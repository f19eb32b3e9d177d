//! The three workloads: their pipeline configurations, the seeded traffic
//! they generate, and the output check every timed call must pass.
//!
//! Traffic is built in memory: frames are encoded with
//! `build_overlay_frame_into` straight into a [`BufPool`], and the
//! pipeline only ever sees the resulting [`Frame`]s. Nothing crosses a
//! real link or the loopback interface.

use mflow_net::flow::Proto;
use mflow_net::frame::{build_overlay_frame_into, OverlayFrameSpec};
use mflow_runtime::{
    frame_wire_len, process_serial_stateful, BufPool, DispatchMode, Frame, PacketResult,
    PolicyKind, RunOutput, RuntimeConfig, StatefulMode, Transport,
};

/// TCP maximum segment size on a 1500-byte MTU: the payload of one
/// request/response frame.
pub const MSS: usize = 1448;

/// Message sizes of the paper's sockperf sweep (Fig. 9), in bytes.
pub const MESSAGE_SIZES: [usize; 6] = [16, 256, 1448, 4096, 16384, 65536];

/// What one workload offers the pipeline.
#[derive(Clone, Copy, Debug)]
pub enum Traffic {
    /// One elephant VXLAN flow: every call carries `frames` frames of
    /// `payload` bytes over the inner transport `proto`.
    Elephant {
        proto: Proto,
        payload: usize,
        frames: usize,
    },
    /// Request/response: every call carries one message, cut into
    /// MSS-sized TCP frames. `blocks` blocks of one message per size in
    /// [`MESSAGE_SIZES`], each block in a seeded order.
    Messages { blocks: usize },
}

/// A named workload: its traffic and the pipeline configuration it runs.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub traffic: Traffic,
    pub cfg: RuntimeConfig,
}

/// Every workload, in the order `--workload all` runs them.
pub fn all() -> [Spec; 3] {
    let base = RuntimeConfig {
        policy: PolicyKind::Mflow,
        dispatch_mode: DispatchMode::PostParse,
        batch_size: 256,
        workers: 2,
        ..RuntimeConfig::default()
    };
    [
        Spec {
            name: "udp-64b",
            traffic: Traffic::Elephant {
                proto: Proto::Udp,
                payload: 64,
                frames: 50_000,
            },
            cfg: RuntimeConfig {
                transport: Transport::Ring,
                stateful_work: 0,
                ..base
            },
        },
        Spec {
            name: "tcp-mss",
            traffic: Traffic::Elephant {
                proto: Proto::Tcp,
                payload: MSS,
                frames: 20_000,
            },
            cfg: RuntimeConfig {
                transport: Transport::Mpsc,
                stateful_mode: StatefulMode::MergeBeforeTcp,
                stateful_work: 256,
                // Supervision armed, no faults injected. The heartbeat
                // deadline is far above any scheduling gap on a loaded
                // host, so it never declares a healthy worker stalled.
                restart_budget: 4,
                heartbeat_interval_ms: Some(1_000),
                ..base
            },
        },
        Spec {
            name: "rr-msg",
            traffic: Traffic::Messages { blocks: 96 },
            cfg: base,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

impl Spec {
    /// Pipeline threads one call runs: the calling thread as dispatcher,
    /// the workers and the merger.
    pub fn pipeline_threads(&self) -> usize {
        self.cfg.workers + 2
    }
}

/// One pipeline call's input and its expected output.
pub struct Call {
    pub frames: Vec<Frame>,
    /// The serial path's output for the same frames.
    pub reference: Vec<PacketResult>,
    /// Application payload bytes the call delivers.
    pub payload_bytes: u64,
}

/// A workload's generated inputs. A block is the unit the input mix is
/// balanced over: one call for an elephant flow, one message of every
/// size for request/response.
pub struct Inputs {
    pub pool: BufPool,
    pub blocks: Vec<Vec<Call>>,
}

impl Inputs {
    /// Every call, block by block.
    pub fn calls(&self) -> impl Iterator<Item = &Call> {
        self.blocks.iter().flatten()
    }
}

/// SplitMix64: the seeded generator behind payload bytes, message order
/// and reassembly interleaving.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Builds the pool, the frames and the serial reference for `spec`.
/// This is the work `setup_s` times.
pub fn setup(spec: &Spec, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    let sw = spec.cfg.stateful_work;
    match spec.traffic {
        Traffic::Elephant {
            proto,
            payload,
            frames,
        } => {
            let pool = BufPool::for_frames(frames, frame_wire_len(payload));
            let mut scratch = Vec::with_capacity(frame_wire_len(payload));
            let sizes = vec![payload; frames];
            let call = build_call(&pool, &mut scratch, &mut rng, proto, &sizes, 0, sw);
            Inputs {
                pool,
                blocks: vec![vec![call]],
            }
        }
        Traffic::Messages { blocks } => {
            let frames_per_block: usize = MESSAGE_SIZES.iter().map(|s| s.div_ceil(MSS)).sum();
            let pool = BufPool::for_frames(blocks * frames_per_block, frame_wire_len(MSS));
            let mut scratch = Vec::with_capacity(frame_wire_len(MSS));
            let mut tcp_seq = 0u32;
            let blocks = (0..blocks)
                .map(|_| {
                    let mut order = MESSAGE_SIZES;
                    // Fisher-Yates: a seeded order, an exact mix.
                    for i in (1..order.len()).rev() {
                        order.swap(i, rng.below(i + 1));
                    }
                    order
                        .iter()
                        .map(|&size| {
                            let sizes: Vec<usize> = (0..size.div_ceil(MSS))
                                .map(|k| (size - k * MSS).min(MSS))
                                .collect();
                            let call = build_call(
                                &pool,
                                &mut scratch,
                                &mut rng,
                                Proto::Tcp,
                                &sizes,
                                tcp_seq,
                                sw,
                            );
                            tcp_seq = tcp_seq.wrapping_add(size as u32);
                            call
                        })
                        .collect()
                })
                .collect();
            Inputs { pool, blocks }
        }
    }
}

/// Encodes one call's frames (payload sizes `sizes`) into `pool` and
/// computes their serial reference.
fn build_call(
    pool: &BufPool,
    scratch: &mut Vec<u8>,
    rng: &mut Rng,
    proto: Proto,
    sizes: &[usize],
    first_tcp_seq: u32,
    stateful_work: u32,
) -> Call {
    let mut tcp_seq = first_tcp_seq;
    let frames: Vec<Frame> = sizes
        .iter()
        .enumerate()
        .map(|(seq, &len)| {
            let mut payload = vec![0u8; len];
            for chunk in payload.chunks_mut(8) {
                let word = rng.next_u64().to_le_bytes();
                chunk.copy_from_slice(&word[..chunk.len()]);
            }
            let mut spec = OverlayFrameSpec::example_tcp(1, tcp_seq, payload);
            spec.proto = proto;
            tcp_seq = tcp_seq.wrapping_add(len as u32);
            build_overlay_frame_into(&spec, scratch);
            Frame::new(seq as u64, pool.alloc(scratch))
        })
        .collect();
    let reference = process_serial_stateful(&frames, stateful_work).digests;
    Call {
        frames,
        reference,
        payload_bytes: sizes.iter().sum::<usize>() as u64,
    }
}

/// The output check of one parallel call: the digests equal the serial
/// reference, every frame was delivered, nothing was left parked,
/// flushed, late or duplicated, and every buffer the call borrowed went
/// back to the pool (`in_flight` as before the call).
pub fn check_parallel(
    out: &RunOutput,
    reference: &[PacketResult],
    in_flight_before: u64,
    in_flight_after: u64,
) -> Result<(), String> {
    let t = &out.telemetry;
    if out.digests != reference {
        return Err(format!(
            "digests differ from the serial reference ({} results, {} expected)",
            out.digests.len(),
            reference.len()
        ));
    }
    if t.delivered != reference.len() as u64 {
        return Err(format!(
            "delivered {} of {} frames",
            t.delivered,
            reference.len()
        ));
    }
    if t.residue + t.flushed + t.late + t.dup != 0 {
        return Err(format!(
            "merge anomalies: residue {} flushed {} late {} dup {}",
            t.residue, t.flushed, t.late, t.dup
        ));
    }
    if in_flight_after != in_flight_before {
        return Err(format!(
            "pool in_flight {in_flight_after} after the call, {in_flight_before} before"
        ));
    }
    Ok(())
}

/// The output check of one serial call.
pub fn check_serial(out: &RunOutput, reference: &[PacketResult]) -> Result<(), String> {
    if out.digests == reference {
        Ok(())
    } else {
        Err("serial digests differ from the reference".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_payloads() {
        let spec = by_name("rr-msg").unwrap();
        let digests = |seed| -> Vec<u64> {
            setup(&spec, seed)
                .calls()
                .flat_map(|c| c.reference.iter().map(|r| r.digest))
                .collect()
        };
        assert_eq!(digests(7), digests(7));
        assert_ne!(digests(7), digests(8));
    }

    #[test]
    fn message_blocks_hold_every_size_once() {
        let spec = by_name("rr-msg").unwrap();
        let inputs = setup(&spec, 3);
        for block in &inputs.blocks {
            let mut sizes: Vec<u64> = block.iter().map(|c| c.payload_bytes).collect();
            sizes.sort_unstable();
            let expected: Vec<u64> = MESSAGE_SIZES.iter().map(|&s| s as u64).collect();
            assert_eq!(sizes, expected);
        }
        let frames: Vec<usize> = inputs.blocks[0].iter().map(|c| c.frames.len()).collect();
        assert_eq!(frames.iter().sum::<usize>(), 1 + 1 + 1 + 3 + 12 + 46);
        assert_eq!(inputs.pool.stats().misses, 0, "the pool holds every frame");
    }
}
