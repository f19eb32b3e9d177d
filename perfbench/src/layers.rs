//! The traced pass: per-layer costs, each timed from outside around calls
//! into one module's public functions.
//!
//! * Pipeline calls alternate between traced (one span per call) and
//!   untraced blocks; the process CPU clock and the counting allocator
//!   are read around the whole stretch.
//! * A single-thread replay pushes each call's inputs through the layer
//!   functions in pipeline order, one span per layer per micro-flow.
//! * The cross-thread layers the replay cannot show (ring handoff, pool
//!   slot churn, per-call set-up) are timed on their own.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use mflow::{ElephantConfig, MergeCounter, MfTag, MflowLanes, Offer};
use mflow_net::checksum::ones_complement_sum;
use mflow_net::frame::parse_overlay_frame_ref;
use mflow_runtime::ring::{ring_mux, spsc, MuxRecvError};
use mflow_runtime::{
    process_frame, stateful_stage, BufPool, Frame, PacketResult, RuntimeConfig, SteeringPolicy,
    Transport,
};

use crate::measure::{median, mpps, parallel_call, ratio, Metric, Tally};
use crate::trace::{self_times, Tracer};
use crate::workload::{Call, Inputs, Rng};

/// Spans kept for the trace file; later replay passes are still timed
/// but their spans are dropped after their self times are taken.
const SPAN_CAP: usize = 50_000;

pub struct LayerReport {
    pub metrics: Vec<Metric>,
    /// Human-readable reconciliation and tracing-overhead lines.
    pub lines: Vec<String>,
    pub tracer: Tracer,
}

/// Shares of the run's `--seconds` given to each stretch.
const PIPELINE_SHARE: f64 = 0.5;
const REPLAY_SHARE: f64 = 0.25;
const POOL_SHARE: f64 = 0.05;
const RING_SHARE: f64 = 0.05;
const FIXED_SHARE: f64 = 0.10;

pub fn measure(
    inputs: &Inputs,
    cfg: &RuntimeConfig,
    seconds: f64,
    seed: u64,
    host_cores: usize,
    tally: &mut Tally,
) -> LayerReport {
    let budget = |share: f64| Duration::from_secs_f64(seconds * share);
    let mut tracer = Tracer::new();
    let mut m = Vec::new();
    let mut metric = |name, value, unit, note: &str| m.push(Metric::new(name, value, unit, note));

    let p = pipeline_stretch(inputs, cfg, budget(PIPELINE_SHARE), &mut tracer, tally);
    let r = replay(inputs, cfg, budget(REPLAY_SHARE), seed, &mut tracer, tally);
    let (alloc_ns, release_ns) = pool_churn(inputs, cfg.batch_size, budget(POOL_SHARE), tally);
    let spsc_ns = ring_spsc(cfg, budget(RING_SHARE));
    let mux_ns = ring_fan_in(cfg, budget(RING_SHARE));
    let fixed_us = call_fixed_us(inputs, cfg, budget(FIXED_SHARE), tally);

    let replays = format!("self time, median of {} replays", r.passes);
    metric("net.parse_ns", r.layer("net.parse"), "ns/pkt", &replays);
    metric("net.csum_ns", r.layer("net.csum"), "ns/pkt", &replays);
    metric(
        "work.process_frame_ns",
        r.layer("work.process_frame"),
        "ns/pkt",
        &replays,
    );
    metric(
        "work.stateful_ns",
        r.layer("work.stateful"),
        "ns/pkt",
        &replays,
    );
    metric(
        "steering.classify_ns",
        r.layer("steering.classify"),
        "ns/mf",
        &replays,
    );
    metric(
        "pool.alloc_ns",
        alloc_ns,
        "ns/buf",
        "BufPool::alloc, median batch",
    );
    metric(
        "pool.release_ns",
        release_ns,
        "ns/buf",
        "PktBuf drop, median batch",
    );
    metric(
        "pool.hit_rate",
        inputs.pool.stats().hit_rate(),
        "ratio",
        "slab hits / allocs",
    );
    metric(
        "pool.clone_drop_ns",
        r.layer("pool.clone_drop"),
        "ns/pkt",
        &replays,
    );
    metric(
        "pool.allocs_per_pkt",
        p.allocs_per_pkt,
        "allocs/pkt",
        "counting allocator over pipeline calls",
    );
    metric(
        "ring.spsc_ns_per_item",
        spsc_ns,
        "ns/item",
        "push_all/pop_batch across two threads",
    );
    metric(
        "ring.mux_ns_per_item",
        mux_ns,
        "ns/item",
        "ring_mux fan-in from two producers",
    );
    metric(
        "reassembly.offer_ns",
        r.layer("reassembly.offer"),
        "ns/pkt",
        &replays,
    );
    metric(
        "reassembly.hold_max",
        r.hold_max as f64,
        "items",
        "most items parked at once",
    );
    metric(
        "reassembly.accepted_ratio",
        ratio(r.accepted as f64, r.offers as f64),
        "ratio",
        "accepted / offered",
    );
    metric(
        "pipeline.call_fixed_us",
        fixed_us,
        "us",
        "1-frame process_parallel, median",
    );
    metric(
        "pipeline.cpu_ns_per_pkt",
        p.cpu_ns_per_pkt,
        "ns/pkt",
        "/proc/self/stat user+sys",
    );
    metric(
        "pipeline.cores_busy",
        p.cores_busy,
        "cores",
        "process CPU / wall",
    );
    metric(
        "pipeline.merger_busy_ns_per_pkt",
        p.merger_busy_ns_per_pkt,
        "ns/pkt",
        "RunOutput::stateful_serial_ns",
    );
    metric(
        "pipeline.checkpoints",
        p.checkpoints_per_call,
        "count/call",
        "RunOutput::checkpoints",
    );
    metric(
        "pipeline.merge_ooo_per_pkt",
        p.ooo_per_pkt,
        "ratio",
        "telemetry ooo / frames",
    );
    metric(
        "pipeline.backpressure_events",
        p.backpressure_per_call,
        "count/call",
        "RunOutput::backpressure_events",
    );

    // Reconciliation: what the pipeline pays per packet, layer by layer.
    // `net.*` is the inside of `work.process_frame` and is not added
    // again. The mpsc transport has no public entry point, so its handoff
    // stays in the remainder; under the ring transport the fan-in cost
    // stands for the worker->merger handoff.
    let handoff = if cfg.transport == Transport::Ring {
        mux_ns
    } else {
        0.0
    };
    let parts = [
        (
            "steering",
            ratio(r.layer("steering.classify"), r.pkts_per_mf),
        ),
        ("pool", r.layer("pool.clone_drop")),
        ("work", r.layer("work.process_frame")),
        ("stateful", r.layer("work.stateful")),
        ("reassembly", r.layer("reassembly.offer")),
        ("ring", handoff),
    ];
    let layer_sum: f64 = parts.iter().map(|(_, v)| v).sum();
    let unaccounted = p.cpu_ns_per_pkt - layer_sum;
    metric(
        "pipeline.unaccounted_ns_per_pkt",
        unaccounted,
        "ns/pkt",
        "cpu_ns_per_pkt - layer sum",
    );
    let overhead = p.traced_mpps - p.untraced_mpps;
    metric(
        "trace.overhead_mpps",
        overhead,
        "Mpps",
        "traced - untraced mpps",
    );

    let breakdown: Vec<String> = parts.iter().map(|(n, v)| format!("{n} {v:.1}")).collect();
    let lines = vec![
        format!(
            "reconciliation: layer sum {layer_sum:.1} ns/pkt ({}) | pipeline.cpu_ns_per_pkt {:.1} | \
             wall ns/pkt x host_cores {:.1} x {host_cores} = {:.1} | unaccounted {unaccounted:.1} ns/pkt \
             ({:.1}% of cpu)",
            breakdown.join(" + "),
            p.cpu_ns_per_pkt,
            p.wall_ns_per_pkt,
            p.wall_ns_per_pkt * host_cores as f64,
            100.0 * ratio(unaccounted, p.cpu_ns_per_pkt),
        ),
        format!(
            "tracing: traced {:.4} Mpps ({} blocks), untraced {:.4} Mpps ({} blocks), overhead {overhead:+.4} Mpps",
            p.traced_mpps, p.traced_blocks, p.untraced_mpps, p.untraced_blocks
        ),
    ];
    LayerReport {
        metrics: m,
        lines,
        tracer,
    }
}

struct PipelineStretch {
    traced_mpps: f64,
    untraced_mpps: f64,
    traced_blocks: usize,
    untraced_blocks: usize,
    cpu_ns_per_pkt: f64,
    wall_ns_per_pkt: f64,
    cores_busy: f64,
    allocs_per_pkt: f64,
    merger_busy_ns_per_pkt: f64,
    checkpoints_per_call: f64,
    ooo_per_pkt: f64,
    backpressure_per_call: f64,
}

/// Pipeline calls block by block, odd blocks traced with one span per
/// call, even blocks untraced; every call checked.
fn pipeline_stretch(
    inputs: &Inputs,
    cfg: &RuntimeConfig,
    budget: Duration,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> PipelineStretch {
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    let (mut frames, mut calls) = (0u64, 0u64);
    let (mut serial_ns, mut checkpoints, mut ooo, mut backpressure) = (0u64, 0u64, 0u64, 0u64);
    let cpu0 = crate::host::process_cpu();
    let allocs0 = crate::ALLOC.allocations();
    let t0 = Instant::now();
    for (n, block) in inputs.blocks.iter().cycle().enumerate() {
        if t0.elapsed() >= budget && n >= 2 {
            break;
        }
        let trace = n % 2 == 1;
        let mut wall = Duration::ZERO;
        let mut block_frames = 0;
        for call in block {
            let span = trace.then(|| tracer.begin("pipeline.call", calls, None));
            let (dt, out) = parallel_call(inputs, &call.frames, &call.reference, cfg, tally);
            if let Some(id) = span {
                tracer.end(id);
            }
            wall += dt;
            block_frames += call.frames.len();
            calls += 1;
            if let Some(out) = out {
                serial_ns += out.stateful_serial_ns;
                checkpoints += out.checkpoints;
                ooo += out.telemetry.ooo;
                backpressure += out.backpressure_events;
            }
        }
        frames += block_frames as u64;
        if trace { &mut traced } else { &mut untraced }.push(mpps(block_frames, wall));
    }
    let wall = t0.elapsed().as_nanos() as f64;
    let cpu = (crate::host::process_cpu() - cpu0).as_nanos() as f64;
    let allocs = (crate::ALLOC.allocations() - allocs0) as f64;
    let pkts = frames as f64;
    PipelineStretch {
        traced_mpps: median(&traced),
        untraced_mpps: median(&untraced),
        traced_blocks: traced.len(),
        untraced_blocks: untraced.len(),
        cpu_ns_per_pkt: ratio(cpu, pkts),
        wall_ns_per_pkt: ratio(wall, pkts),
        cores_busy: ratio(cpu, wall),
        allocs_per_pkt: ratio(allocs, pkts),
        merger_busy_ns_per_pkt: ratio(serial_ns as f64, pkts),
        checkpoints_per_call: ratio(checkpoints as f64, calls as f64),
        ooo_per_pkt: ratio(ooo as f64, pkts),
        backpressure_per_call: ratio(backpressure as f64, calls as f64),
    }
}

#[derive(Default)]
struct Replay {
    passes: usize,
    /// Per layer span name, the self time of each pass per packet (per
    /// micro-flow for `steering.classify`, which runs once per batch).
    per_unit: BTreeMap<&'static str, Vec<f64>>,
    pkts_per_mf: f64,
    hold_max: usize,
    offers: u64,
    accepted: u64,
}

impl Replay {
    fn layer(&self, name: &str) -> f64 {
        self.per_unit.get(name).map_or(0.0, |v| median(v))
    }
}

/// Replays every call's inputs through the layer functions, pass after
/// pass, until `budget` has passed. Each pass is one operation, checked
/// against the serial reference.
fn replay(
    inputs: &Inputs,
    cfg: &RuntimeConfig,
    budget: Duration,
    seed: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Replay {
    let mut r = Replay::default();
    let mut rng = Rng::new(seed);
    let t0 = Instant::now();
    while r.passes == 0 || t0.elapsed() < budget {
        let first = tracer.spans.len();
        let (mut pkts, mut mfs) = (0usize, 0usize);
        let mut ok = Ok(());
        for call in inputs.calls() {
            pkts += call.frames.len();
            mfs += call.frames.len().div_ceil(cfg.batch_size);
            let pass = replay_call(call, cfg, tracer, &mut rng, &mut r);
            ok = ok.and(pass);
        }
        tally.record("replay", ok);
        let times = self_times(&tracer.spans[first..], first);
        for (name, ns) in times {
            let units = if name == "steering.classify" {
                mfs
            } else {
                pkts
            };
            r.per_unit
                .entry(name)
                .or_default()
                .push(ns as f64 / units as f64);
        }
        r.pkts_per_mf = ratio(pkts as f64, mfs as f64);
        if tracer.spans.len() > SPAN_CAP {
            tracer.spans.truncate(first);
        }
        r.passes += 1;
    }
    r
}

/// One call's frames through the pipeline's layer functions, micro-flow
/// by micro-flow: classify and steer, batch clone, parse, checksum,
/// per-packet work, stateful stage, reassembly, batch drop. The stateful
/// stage is a pure function of the packet result, so running it before
/// the offer yields what the merger's serial pass would.
fn replay_call(
    call: &Call,
    cfg: &RuntimeConfig,
    tracer: &mut Tracer,
    rng: &mut Rng,
    r: &mut Replay,
) -> Result<(), String> {
    let mut policy =
        MflowLanes::try_new(ElephantConfig::always()).expect("the always-split config is valid");
    let depths = vec![0usize; cfg.workers];
    let mut counter = MergeCounter::new();
    let mut released = Vec::with_capacity(call.frames.len());
    let mut views = Vec::with_capacity(cfg.batch_size);
    let mut results: Vec<PacketResult> = Vec::with_capacity(cfg.batch_size);
    // One finished micro-flow per lane, waiting to be offered together.
    let mut round: Vec<Vec<(MfTag, PacketResult)>> = Vec::new();
    let n_mfs = call.frames.len().div_ceil(cfg.batch_size);
    for (mf, chunk) in call.frames.chunks(cfg.batch_size).enumerate() {
        let id = mf as u64;
        let root = tracer.begin("replay.mf", id, None);

        let s = tracer.begin("steering.classify", id, Some(root));
        let hash = chunk[0].try_flow_hash().map_err(|e| e.to_string())?;
        let lane = policy.steer(id, hash, &depths);
        policy.observe(id, hash, lane, chunk.len());
        tracer.end(s);

        let s = tracer.begin("pool.clone_drop", id, Some(root));
        let batch: Vec<(MfTag, Frame)> = chunk
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let tag = MfTag {
                    id,
                    lane,
                    last: i + 1 == chunk.len(),
                };
                (tag, f.clone())
            })
            .collect();
        tracer.end(s);

        let s = tracer.begin("net.parse", id, Some(root));
        views.clear();
        for (_, f) in &batch {
            let bytes = f.bytes();
            let parsed = parse_overlay_frame_ref(bytes).map_err(|e| e.to_string())?;
            let off = parsed.payload.as_ptr() as usize - bytes.as_ptr() as usize;
            views.push((off, parsed.payload.len()));
        }
        tracer.end(s);

        let s = tracer.begin("net.csum", id, Some(root));
        let mut sum = 0u32;
        for ((_, f), &(off, len)) in batch.iter().zip(&views) {
            sum = sum.wrapping_add(ones_complement_sum(&f.bytes()[off..off + len], 0));
        }
        black_box(sum);
        tracer.end(s);

        let s = tracer.begin("work.process_frame", id, Some(root));
        results.clear();
        results.extend(batch.iter().map(|(_, f)| process_frame(f)));
        tracer.end(s);

        let s = tracer.begin("work.stateful", id, Some(root));
        for res in results.iter_mut() {
            *res = stateful_stage(*res, cfg.stateful_work);
        }
        tracer.end(s);

        round.push(
            batch
                .iter()
                .map(|(t, _)| *t)
                .zip(results.iter().copied())
                .collect(),
        );
        if round.len() == cfg.workers || mf + 1 == n_mfs {
            // The merger sees each lane's results in push_all stretches
            // of seeded length, the lanes interleaved.
            let order = interleave(&mut round, rng);
            let s = tracer.begin("reassembly.offer", id, Some(root));
            for (tag, res) in order {
                r.offers += 1;
                if counter.offer(tag, res, &mut released) == Offer::Accepted {
                    r.accepted += 1;
                }
                r.hold_max = r.hold_max.max(counter.buffered());
            }
            tracer.end(s);
        }

        let s = tracer.begin("pool.clone_drop", id, Some(root));
        drop(batch);
        tracer.end(s);
        tracer.end(root);
    }
    if released != call.reference || counter.buffered() != 0 {
        return Err(format!(
            "replay released {} results ({} parked) that differ from the reference",
            released.len(),
            counter.buffered()
        ));
    }
    Ok(())
}

/// Merges the lanes' result streams into one arrival order: runs of 1 to
/// 64 items (seeded) taken from each lane in turn.
fn interleave<T>(lanes: &mut Vec<Vec<T>>, rng: &mut Rng) -> Vec<T> {
    let mut queues: Vec<VecDeque<T>> = lanes.drain(..).map(VecDeque::from).collect();
    let mut order = Vec::with_capacity(queues.iter().map(VecDeque::len).sum());
    while queues.iter().any(|q| !q.is_empty()) {
        for q in queues.iter_mut() {
            let run = 1 + rng.below(64);
            order.extend(q.drain(..run.min(q.len())));
        }
    }
    order
}

/// `BufPool::alloc` and `PktBuf` release per buffer, over batch-sized
/// rounds on one pool of the workload's slot size.
fn pool_churn(inputs: &Inputs, batch: usize, budget: Duration, tally: &mut Tally) -> (f64, f64) {
    let frame = inputs.blocks[0][0].frames[0].bytes();
    let pool = BufPool::new(batch, frame.len());
    let mut bufs = Vec::with_capacity(batch);
    let (mut alloc, mut release) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while alloc.is_empty() || t0.elapsed() < budget {
        let a = Instant::now();
        for _ in 0..batch {
            bufs.push(pool.alloc(black_box(frame)));
        }
        let b = Instant::now();
        bufs.clear();
        let c = Instant::now();
        alloc.push((b - a).as_nanos() as f64 / batch as f64);
        release.push((c - b).as_nanos() as f64 / batch as f64);
    }
    let s = pool.stats();
    let check = if s.misses == 0 && pool.in_flight() == 0 {
        Ok(())
    } else {
        Err(format!(
            "pool churn: {} misses, {} in flight",
            s.misses,
            pool.in_flight()
        ))
    };
    tally.record("pool", check);
    (median(&alloc), median(&release))
}

/// Micro-flow-sized batches of per-packet results, as a worker publishes
/// them to the merger.
fn result_batch(batch: usize) -> Vec<(MfTag, PacketResult)> {
    (0..batch)
        .map(|i| {
            let tag = MfTag {
                id: 0,
                lane: 0,
                last: i + 1 == batch,
            };
            let res = PacketResult {
                seq: i as u64,
                digest: i as u64,
                len: 64,
            };
            (tag, res)
        })
        .collect()
}

/// Rounds of micro-flows each ring stretch pushes.
const RING_ROUNDS: usize = 128;

/// `push_all` of one micro-flow's results on one thread, `pop_batch` on
/// another; wall ns per item, median over stretches.
fn ring_spsc(cfg: &RuntimeConfig, budget: Duration) -> f64 {
    let items = result_batch(cfg.batch_size);
    let total = RING_ROUNDS * items.len();
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while samples.is_empty() || t0.elapsed() < budget {
        let (mut tx, mut rx) = spsc(cfg.merger_depth);
        let start = Barrier::new(2);
        let wall = thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for _ in 0..RING_ROUNDS {
                    tx.push_all(items.iter().copied()).expect("consumer alive");
                }
            });
            start.wait();
            let t = Instant::now();
            let mut got = 0;
            let mut out = VecDeque::with_capacity(items.len());
            while got < total {
                let n = rx.pop_batch(&mut out, items.len());
                if n == 0 {
                    thread::yield_now();
                }
                got += n;
                black_box(out.drain(..).count());
            }
            t.elapsed()
        });
        samples.push(wall.as_nanos() as f64 / total as f64);
    }
    median(&samples)
}

/// Two producers `push_all` micro-flows into a `ring_mux`; this thread
/// receives every item. Wall ns per item, median over stretches.
fn ring_fan_in(cfg: &RuntimeConfig, budget: Duration) -> f64 {
    let items = result_batch(cfg.batch_size);
    let producers = cfg.workers;
    let total = producers * RING_ROUNDS * items.len();
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while samples.is_empty() || t0.elapsed() < budget {
        let (txs, mut mux) = ring_mux(producers, cfg.merger_depth);
        let start = Barrier::new(producers + 1);
        let wall = thread::scope(|s| {
            for mut tx in txs {
                let (items, start) = (&items, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..RING_ROUNDS {
                        tx.push_all(items.iter().copied()).expect("consumer alive");
                    }
                });
            }
            start.wait();
            let t = Instant::now();
            let mut got = 0;
            loop {
                match mux.recv_deadline(None) {
                    Ok(item) => {
                        black_box(item);
                        got += 1;
                    }
                    Err(MuxRecvError::Disconnected) => break,
                    Err(MuxRecvError::Timeout) => unreachable!("no deadline"),
                }
            }
            assert_eq!(got, total, "fan-in lost items");
            t.elapsed()
        });
        samples.push(wall.as_nanos() as f64 / total as f64);
    }
    median(&samples)
}

/// The fixed cost of one pipeline call: `process_parallel` over a single
/// frame (thread spawn and join, lane and merger wiring), checked.
fn call_fixed_us(inputs: &Inputs, cfg: &RuntimeConfig, budget: Duration, tally: &mut Tally) -> f64 {
    let call = &inputs.blocks[0][0];
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while samples.is_empty() || t0.elapsed() < budget {
        let (dt, _) = parallel_call(inputs, &call.frames[..1], &call.reference[..1], cfg, tally);
        samples.push(dt.as_secs_f64() * 1e6);
    }
    median(&samples)
}
