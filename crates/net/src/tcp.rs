//! TCP header with pseudo-header checksum. Built headers carry no
//! options (window scale is applied out of band by the stack model);
//! parsing skips received options, and checksum verification covers them.

use crate::checksum;
use crate::ipv4::PROTO_TCP;
use crate::ParseError;

/// TCP flag bits.
pub mod flags {
    pub const FIN: u8 = 0x01;
    pub const SYN: u8 = 0x02;
    pub const RST: u8 = 0x04;
    pub const PSH: u8 = 0x08;
    pub const ACK: u8 = 0x10;
}

/// A TCP header's fixed fields. Encoding writes data offset 5 (no
/// options); [`TcpHeader::parse`] accepts larger offsets and skips the
/// options.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TcpHeader {
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: u32,
    pub ack: u32,
    pub flags: u8,
    pub window: u16,
    pub checksum: u16,
}

impl TcpHeader {
    /// Encoded size in bytes.
    pub const LEN: usize = 20;

    /// Builds a data segment header with a valid checksum.
    #[allow(clippy::too_many_arguments)] // mirrors the wire field order
    pub fn for_payload(
        src_port: u16,
        dst_port: u16,
        seq: u32,
        ack: u32,
        flags: u8,
        window: u16,
        src_ip: [u8; 4],
        dst_ip: [u8; 4],
        payload: &[u8],
    ) -> Self {
        let mut h = Self {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window,
            checksum: 0,
        };
        let len = (Self::LEN + payload.len()) as u16;
        let pseudo = checksum::pseudo_header_sum(src_ip, dst_ip, PROTO_TCP, len);
        let mut bytes = Vec::with_capacity(Self::LEN + payload.len());
        h.encode(&mut bytes);
        bytes.extend_from_slice(payload);
        h.checksum = checksum::finish(checksum::ones_complement_sum(&bytes, pseudo));
        h
    }

    /// Writes the header into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        out.push(5 << 4); // data offset = 5 words
        out.push(self.flags);
        out.extend_from_slice(&self.window.to_be_bytes());
        out.extend_from_slice(&self.checksum.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // urgent pointer
    }

    /// Parses a header from the front of `buf`.
    pub fn parse(buf: &[u8]) -> Result<(Self, &[u8]), ParseError> {
        if buf.len() < Self::LEN {
            return Err(ParseError::Truncated);
        }
        let data_off = (buf[12] >> 4) as usize * 4;
        if data_off < Self::LEN || buf.len() < data_off {
            return Err(ParseError::Malformed("tcp data offset"));
        }
        Ok((
            Self {
                src_port: u16::from_be_bytes([buf[0], buf[1]]),
                dst_port: u16::from_be_bytes([buf[2], buf[3]]),
                seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
                ack: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
                flags: buf[13],
                window: u16::from_be_bytes([buf[14], buf[15]]),
                checksum: u16::from_be_bytes([buf[16], buf[17]]),
            },
            &buf[data_off..],
        ))
    }

    /// Verifies the checksum of a received segment — the header as it
    /// arrived (options, urgent pointer and all) plus the payload —
    /// against the pseudo-header. Allocation-free: one pass over the
    /// segment bytes in place. A segment too long for the pseudo-header's
    /// 16-bit length fails.
    pub fn verify_segment(src_ip: [u8; 4], dst_ip: [u8; 4], segment: &[u8]) -> bool {
        let Ok(len) = u16::try_from(segment.len()) else {
            return false;
        };
        let pseudo = checksum::pseudo_header_sum(src_ip, dst_ip, PROTO_TCP, len);
        checksum::ones_complement_sum(segment, pseudo) == 0xFFFF
    }

    /// True if the ACK flag is set.
    pub fn is_ack(&self) -> bool {
        self.flags & flags::ACK != 0
    }
}

/// A segment as a Linux sender emits it: data offset 8, a 12-byte
/// timestamp option (NOP, NOP, TS), URG with a nonzero urgent pointer,
/// and a valid checksum.
#[cfg(test)]
pub(crate) fn segment_with_options(src_ip: [u8; 4], dst_ip: [u8; 4], payload: &[u8]) -> Vec<u8> {
    let mut seg = Vec::with_capacity(32 + payload.len());
    seg.extend_from_slice(&40000u16.to_be_bytes());
    seg.extend_from_slice(&5201u16.to_be_bytes());
    seg.extend_from_slice(&0x1234_5678u32.to_be_bytes());
    seg.extend_from_slice(&0x9abc_def0u32.to_be_bytes());
    seg.push(8 << 4);
    seg.push(flags::ACK | flags::PSH | 0x20);
    seg.extend_from_slice(&502u16.to_be_bytes());
    seg.extend_from_slice(&[0, 0]); // checksum, filled below
    seg.extend_from_slice(&0x0102u16.to_be_bytes()); // urgent pointer
    seg.extend_from_slice(&[1, 1, 8, 10]); // NOP, NOP, timestamp kind/len
    seg.extend_from_slice(&0x0a0b_0c0du32.to_be_bytes());
    seg.extend_from_slice(&0x0102_0304u32.to_be_bytes());
    seg.extend_from_slice(payload);
    let pseudo = checksum::pseudo_header_sum(src_ip, dst_ip, PROTO_TCP, seg.len() as u16);
    let ck = checksum::finish(checksum::ones_complement_sum(&seg, pseudo));
    seg[16..18].copy_from_slice(&ck.to_be_bytes());
    seg
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: [u8; 4] = [172, 17, 0, 2];
    const DST: [u8; 4] = [172, 17, 0, 3];

    /// `h` encoded in front of `payload`: the segment as sent.
    fn segment(h: &TcpHeader, payload: &[u8]) -> Vec<u8> {
        let mut seg = Vec::new();
        h.encode(&mut seg);
        seg.extend_from_slice(payload);
        seg
    }

    #[test]
    fn roundtrip_and_verify() {
        let payload = vec![0xAB; 1448];
        let h = TcpHeader::for_payload(
            45000,
            5001,
            123456,
            654321,
            flags::ACK | flags::PSH,
            0xFFFF,
            SRC,
            DST,
            &payload,
        );
        let mut buf = Vec::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), TcpHeader::LEN);
        let (parsed, rest) = TcpHeader::parse(&buf).unwrap();
        assert_eq!(parsed, h);
        assert!(rest.is_empty());
        let seg = segment(&parsed, &payload);
        assert!(TcpHeader::verify_segment(SRC, DST, &seg));
        assert!(parsed.is_ack());
    }

    #[test]
    fn corrupt_seq_fails_verify() {
        let h = TcpHeader::for_payload(1, 2, 100, 0, flags::ACK, 1000, SRC, DST, b"xyz");
        let mut tampered = h;
        tampered.seq += 1;
        let seg = segment(&tampered, b"xyz");
        assert!(!TcpHeader::verify_segment(SRC, DST, &seg));
    }

    #[test]
    fn segment_with_options_and_urgent_pointer_verifies() {
        let seg = segment_with_options(SRC, DST, b"linux sends timestamps");
        let (h, payload) = TcpHeader::parse(&seg).unwrap();
        assert_eq!(payload, b"linux sends timestamps", "options are skipped");
        assert_eq!(h.seq, 0x1234_5678);
        assert!(TcpHeader::verify_segment(SRC, DST, &seg));
        // The checksum covers the options: flip one byte and it fails.
        let mut bad = seg.clone();
        bad[25] ^= 0x40;
        assert!(TcpHeader::parse(&bad).is_ok(), "still well-formed");
        assert!(!TcpHeader::verify_segment(SRC, DST, &bad));
        // ... and the urgent pointer.
        let mut bad = seg;
        bad[19] ^= 0x01;
        assert!(!TcpHeader::verify_segment(SRC, DST, &bad));
    }

    #[test]
    fn truncated_parse() {
        assert_eq!(TcpHeader::parse(&[0; 19]).unwrap_err(), ParseError::Truncated);
    }

    #[test]
    fn bad_data_offset_rejected() {
        let mut buf = vec![0u8; 20];
        buf[12] = 3 << 4; // offset 12 bytes < minimum 20
        assert!(matches!(
            TcpHeader::parse(&buf),
            Err(ParseError::Malformed("tcp data offset"))
        ));
    }

    #[test]
    fn seq_wraparound_encodes() {
        let h = TcpHeader::for_payload(1, 2, u32::MAX, 0, 0, 0, SRC, DST, &[]);
        let mut buf = Vec::new();
        h.encode(&mut buf);
        let (parsed, _) = TcpHeader::parse(&buf).unwrap();
        assert_eq!(parsed.seq, u32::MAX);
    }
}
