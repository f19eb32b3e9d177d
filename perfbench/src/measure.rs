//! The untraced pass: end-to-end metrics, timed around each public call.
//!
//! One client thread drives a closed loop: it issues a call, waits for
//! it, checks the output, and only then issues the next. The pipeline's
//! own threads (this thread as dispatcher, the workers, the merger) are
//! the system under test.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mflow_metrics::percentile_of_sorted;
use mflow_runtime::{process_parallel, process_serial_stateful, RunOutput, RuntimeConfig};

use crate::host::host_ticks;
use crate::workload::{check_parallel, check_serial, Call, Inputs};

/// Blocks whose samples are discarded while caches fill and thread
/// stacks fault in.
const WARMUP_BLOCKS: usize = 2;

/// One named metric: its value, its unit, and how it was measured.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, note: &str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
            note: note.to_string(),
        }
    }
}

/// Operations attempted and failed; any output check that misses counts
/// as one failed operation.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one checked operation; the first few failures are printed
    /// to standard error.
    pub fn record(&mut self, what: &str, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = check {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("check failed: {what}: {why}");
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One checked `process_parallel` call over `frames`, whose expected
/// output is `reference`. Returns the call's wall time and its output.
pub fn parallel_call(
    inputs: &Inputs,
    frames: &[mflow_runtime::Frame],
    reference: &[mflow_runtime::PacketResult],
    cfg: &RuntimeConfig,
    tally: &mut Tally,
) -> (Duration, Option<RunOutput>) {
    let before = inputs.pool.in_flight();
    let t0 = Instant::now();
    let out = process_parallel(black_box(frames), cfg);
    let wall = t0.elapsed();
    let after = inputs.pool.in_flight();
    match out {
        Ok(out) => {
            tally.record(
                "process_parallel",
                check_parallel(&out, reference, before, after),
            );
            (wall, Some(out))
        }
        Err(e) => {
            tally.record("process_parallel", Err(e.to_string()));
            (wall, None)
        }
    }
}

/// The timings of one block of the untraced pass.
pub struct BlockTiming {
    /// Frames per wall second of the block's parallel calls.
    pub mpps: f64,
    /// Payload gigabits per wall second of the same calls.
    pub gbps: f64,
    /// Wall time of each parallel call, in microseconds.
    pub call_us: Vec<f64>,
    /// The same frames through the serial path.
    pub serial_mpps: f64,
    /// When the parallel calls ran, in seconds since the pass started.
    pub parallel: (f64, f64),
    /// When the serial calls ran.
    pub serial: (f64, f64),
}

/// The untraced pass's blocks, and the times at which the host's steal
/// counter was seen to advance.
pub struct EndToEnd {
    pub blocks: Vec<BlockTiming>,
    steal_marks: Vec<f64>,
}

/// How far before an observed steal-counter advance a block counts as
/// touched by steal. The counter moves in 10 ms steps per vCPU, so an
/// advance closes a burst whose stolen time lies in the tens of
/// milliseconds before it; on the reference host, `rr-msg` p90 over the
/// blocks left stopped moving with the steal share at this lookback.
const STEAL_LOOKBACK_S: f64 = 0.050;

/// Fewer clean blocks than this and the statistics use every block.
const MIN_CLEAN_BLOCKS: usize = 10;

impl EndToEnd {
    /// The blocks the timing statistics use: those whose `span` (the
    /// parallel or the serial calls) ran clear of host steal, or every
    /// block when fewer than [`MIN_CLEAN_BLOCKS`] are clear. Stolen time
    /// is the neighbours' load, not the program's; on a shared 2-vCPU host
    /// it moves the pipeline's wall time by tens of percent from one
    /// minute to the next. Blocks left out are still checked and counted.
    pub fn steady(&self, span: fn(&BlockTiming) -> (f64, f64)) -> Vec<&BlockTiming> {
        let clean: Vec<&BlockTiming> = self
            .blocks
            .iter()
            .filter(|b| {
                let (start, end) = span(b);
                // The first advance at or after the span's start is the
                // only one whose lookback window can reach the span.
                let first = self.steal_marks.partition_point(|&m| m < start);
                self.steal_marks
                    .get(first)
                    .is_none_or(|&m| m - STEAL_LOOKBACK_S > end)
            })
            .collect();
        if clean.len() >= MIN_CLEAN_BLOCKS {
            clean
        } else {
            self.blocks.iter().collect()
        }
    }
}

/// Runs blocks of calls round-robin until `budget` has passed: each
/// block's calls through the pipeline, then the same frames through the
/// serial path. Every call is checked. The host's steal counter is read
/// around both halves of every block.
pub fn end_to_end(
    inputs: &Inputs,
    cfg: &RuntimeConfig,
    budget: Duration,
    tally: &mut Tally,
) -> EndToEnd {
    let mut e = EndToEnd {
        blocks: Vec::new(),
        steal_marks: Vec::new(),
    };
    let epoch = Instant::now();
    let now = || epoch.elapsed().as_secs_f64();
    let mut steal = host_ticks().0;
    let mut read_steal = |marks: &mut Vec<f64>| {
        let (ticks, at) = (host_ticks().0, now());
        if ticks != steal {
            marks.push(at);
            steal = ticks;
        }
        at
    };
    for (n, block) in inputs.blocks.iter().cycle().enumerate() {
        if epoch.elapsed() >= budget && n > WARMUP_BLOCKS {
            break;
        }
        let frames: usize = block.iter().map(|c| c.frames.len()).sum();
        let bits: u64 = block.iter().map(|c| c.payload_bytes * 8).sum();
        let t0 = read_steal(&mut e.steal_marks);
        let mut wall = Duration::ZERO;
        let mut call_us = Vec::with_capacity(block.len());
        for call in block {
            let (dt, _) = parallel_call(inputs, &call.frames, &call.reference, cfg, tally);
            wall += dt;
            call_us.push(dt.as_secs_f64() * 1e6);
        }
        let t1 = read_steal(&mut e.steal_marks);
        let serial = serial_block(block, cfg.stateful_work, tally);
        let t2 = read_steal(&mut e.steal_marks);
        if n >= WARMUP_BLOCKS {
            e.blocks.push(BlockTiming {
                mpps: mpps(frames, wall),
                gbps: ratio(bits as f64, wall.as_secs_f64()) / 1e9,
                call_us,
                serial_mpps: mpps(frames, serial),
                parallel: (t0, t1),
                serial: (t1, t2),
            });
        }
    }
    e
}

/// Runs every call of `block` through the serial path, checked; returns
/// the summed wall time.
fn serial_block(block: &[Call], stateful_work: u32, tally: &mut Tally) -> Duration {
    let mut wall = Duration::ZERO;
    for call in block {
        let t0 = Instant::now();
        let out = process_serial_stateful(black_box(&call.frames), stateful_work);
        wall += t0.elapsed();
        tally.record(
            "process_serial_stateful",
            check_serial(&out, &call.reference),
        );
    }
    wall
}

pub fn mpps(frames: usize, wall: Duration) -> f64 {
    ratio(frames as f64, wall.as_secs_f64()) / 1e6
}

pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nearest-rank quantile of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_of_sorted(&sorted, q)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{by_name, setup, Spec, Traffic};
    use mflow_net::flow::Proto;

    fn small_udp() -> Spec {
        Spec {
            traffic: Traffic::Elephant {
                proto: Proto::Udp,
                payload: 64,
                frames: 2_000,
            },
            ..by_name("udp-64b").unwrap()
        }
    }

    #[test]
    fn correct_outputs_pass_every_check() {
        let spec = small_udp();
        let inputs = setup(&spec, 1);
        let mut tally = Tally::default();
        let e = end_to_end(&inputs, &spec.cfg, Duration::from_millis(50), &mut tally);
        assert!(tally.attempted > 0);
        assert_eq!(tally.failed, 0);
        assert!(!e.blocks.is_empty() && e.blocks.iter().all(|b| b.gbps > 0.0));
    }

    #[test]
    fn steady_blocks_leave_out_those_near_a_steal_advance() {
        // Blocks of 10 ms each; the steal counter advanced at 0.5 s.
        let blocks: Vec<BlockTiming> = (0..100)
            .map(|i| {
                let t = i as f64 * 0.010;
                BlockTiming {
                    mpps: 1.0,
                    gbps: 1.0,
                    call_us: vec![1.0],
                    serial_mpps: 1.0,
                    parallel: (t, t + 0.005),
                    serial: (t + 0.005, t + 0.010),
                }
            })
            .collect();
        let e = EndToEnd {
            blocks,
            steal_marks: vec![0.5],
        };
        let kept: Vec<f64> = e
            .steady(|b| b.parallel)
            .iter()
            .map(|b| b.parallel.0)
            .collect();
        // Spans ending within the 50 ms before the advance, and the one
        // the advance fell in, are left out; the rest are kept.
        assert_eq!(kept.len(), 100 - 6);
        assert!(kept.iter().all(|&t| !(0.445..0.505).contains(&t)));
        let e = EndToEnd {
            steal_marks: (0..100).map(|i| i as f64 * 0.010 + 0.001).collect(),
            ..e
        };
        assert_eq!(
            e.steady(|b| b.serial).len(),
            100,
            "too few clean: every block"
        );
    }

    #[test]
    fn a_corrupted_reference_counts_every_call_as_failed() {
        let spec = small_udp();
        let mut inputs = setup(&spec, 1);
        inputs.blocks[0][0].reference[777].digest ^= 1;
        let mut tally = Tally::default();
        end_to_end(&inputs, &spec.cfg, Duration::from_millis(50), &mut tally);
        assert!(tally.attempted > 0);
        // Parallel and serial calls alike are compared with the reference.
        assert_eq!(tally.failed, tally.attempted);
    }
}
