//! Property-based tests: every generated frame must parse back to exactly
//! the fields and payload it was built from, and corruption must never be
//! silently accepted as the original.

use mflow_net::flow::{FlowKey, Proto};
use mflow_net::frame::{build_overlay_frame, parse_overlay_frame, OverlayFrameSpec};
use mflow_net::ipv4::{fragment_payload, FragmentReassembler};
use mflow_net::toeplitz::rss_hash_v4;
use mflow_net::{EthernetHeader, Ipv4Header, MacAddr, TcpHeader, UdpHeader};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = OverlayFrameSpec> {
    (
        any::<[u8; 4]>(),
        any::<[u8; 4]>(),
        1u16..u16::MAX,
        1u16..u16::MAX,
        any::<u32>(),
        0u32..(1 << 24),
        prop::collection::vec(any::<u8>(), 0..1500),
        any::<bool>(),
    )
        .prop_map(
            |(src_ip, dst_ip, sport, dport, seq, vni, payload, is_tcp)| OverlayFrameSpec {
                outer_src_mac: MacAddr::local(1),
                outer_dst_mac: MacAddr::local(2),
                outer_src_ip: [10, 0, 0, 1],
                outer_dst_ip: [10, 0, 0, 2],
                outer_src_port: 49152,
                vni,
                inner_src_mac: MacAddr::local(3),
                inner_dst_mac: MacAddr::local(4),
                inner_src_ip: src_ip,
                inner_dst_ip: dst_ip,
                inner_src_port: sport,
                inner_dst_port: dport,
                proto: if is_tcp { Proto::Tcp } else { Proto::Udp },
                tcp_seq: seq,
                payload,
            },
        )
}

proptest! {
    #[test]
    fn overlay_frame_roundtrips(spec in arb_spec()) {
        let frame = build_overlay_frame(&spec);
        let parsed = parse_overlay_frame(&frame).unwrap();
        prop_assert_eq!(parsed.payload, spec.payload.clone());
        prop_assert_eq!(parsed.vni, spec.vni);
        prop_assert_eq!(parsed.inner_flow, FlowKey::from(&spec));
        if spec.proto == Proto::Tcp {
            prop_assert_eq!(parsed.tcp_seq, spec.tcp_seq);
        }
    }

    #[test]
    fn single_byte_corruption_never_passes_silently(
        spec in arb_spec(),
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let frame = build_overlay_frame(&spec);
        let reference = parse_overlay_frame(&frame).unwrap();
        let pos = (pos_seed % frame.len() as u64) as usize;
        let mut bad = frame.clone();
        bad[pos] ^= 1 << bit;
        match parse_overlay_frame(&bad) {
            Err(_) => {}
            // Fields not covered by any checksum (e.g. MAC addresses) may
            // change without error, but the result must differ from the
            // original parse — corruption is never invisible.
            Ok(p) => prop_assert_ne!(p, reference),
        }
    }

    #[test]
    fn ipv4_header_roundtrips(
        src in any::<[u8;4]>(), dst in any::<[u8;4]>(),
        proto in any::<u8>(), ttl in 1u8..255,
        id in any::<u16>(), frag_off in 0u16..0x1FFF,
        more in any::<bool>(), len in 0u16..1480,
    ) {
        let h = Ipv4Header {
            src, dst, protocol: proto, ttl,
            total_len: Ipv4Header::LEN as u16 + len,
            identification: id,
            dont_fragment: false,
            more_fragments: more,
            fragment_offset: frag_off,
        };
        let mut buf = Vec::new();
        h.encode(&mut buf);
        let (parsed, _) = Ipv4Header::parse(&buf).unwrap();
        prop_assert_eq!(parsed, h);
    }

    #[test]
    fn fragmentation_reassembles_in_any_order(
        payload in prop::collection::vec(any::<u8>(), 1..20_000),
        order_seed in any::<u64>(),
    ) {
        let frags = fragment_payload(&payload, 1500);
        let n = frags.len();
        // Deterministic shuffle of offer order.
        let mut order: Vec<usize> = (0..n).collect();
        let mut s = order_seed;
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let mut r = FragmentReassembler::new();
        let mut result = None;
        let mut offered = 0;
        for &i in &order {
            let (off, chunk) = frags[i];
            let more = i + 1 != n;
            offered += 1;
            if let Some(out) = r.offer(off, chunk, more) {
                prop_assert_eq!(offered, n, "completed before all fragments offered");
                result = Some(out);
            }
        }
        prop_assert_eq!(result.unwrap(), payload);
    }

    #[test]
    fn udp_checksum_detects_any_payload_flip(
        payload in prop::collection::vec(any::<u8>(), 1..512),
        pos_seed in any::<u64>(),
    ) {
        let h = UdpHeader::for_payload(1111, 2222, [1,2,3,4], [5,6,7,8], &payload);
        prop_assert!(h.verify([1,2,3,4], [5,6,7,8], &payload));
        let mut bad = payload.clone();
        let pos = (pos_seed % bad.len() as u64) as usize;
        bad[pos] ^= 0x5A;
        prop_assert!(!h.verify([1,2,3,4], [5,6,7,8], &bad));
    }

    #[test]
    fn tcp_checksum_detects_any_payload_flip(
        payload in prop::collection::vec(any::<u8>(), 1..512),
        pos_seed in any::<u64>(),
        seq in any::<u32>(),
    ) {
        let h = TcpHeader::for_payload(3, 4, seq, 0, 0x10, 1000, [9,9,9,9], [8,8,8,8], &payload);
        let mut seg = Vec::new();
        h.encode(&mut seg);
        seg.extend_from_slice(&payload);
        prop_assert!(TcpHeader::verify_segment([9,9,9,9], [8,8,8,8], &seg));
        let pos = TcpHeader::LEN + (pos_seed % payload.len() as u64) as usize;
        seg[pos] ^= 0xA5;
        prop_assert!(!TcpHeader::verify_segment([9,9,9,9], [8,8,8,8], &seg));
    }

    #[test]
    fn ethernet_roundtrips(dst in any::<[u8;6]>(), src in any::<[u8;6]>(), et in any::<u16>()) {
        let h = EthernetHeader {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype: et.into(),
        };
        let mut buf = Vec::new();
        h.encode(&mut buf);
        let (parsed, _) = EthernetHeader::parse(&buf).unwrap();
        prop_assert_eq!(parsed, h);
    }

    #[test]
    fn rss_hash_is_flow_stable_and_direction_sensitive(
        sip in any::<[u8;4]>(), dip in any::<[u8;4]>(),
        sp in any::<u16>(), dp in any::<u16>(),
    ) {
        let a = rss_hash_v4(sip, dip, sp, dp);
        let b = rss_hash_v4(sip, dip, sp, dp);
        prop_assert_eq!(a, b);
    }
}
