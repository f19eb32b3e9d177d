//! The threaded split/merge pipeline, steered by a pluggable policy.
//!
//! Topology (mirroring Figure 6 of the paper on real cores):
//!
//! ```text
//!             +-> worker 0 --\
//! dispatcher -+-> worker 1 ---+-> merger (MergeCounter) -> ordered output
//!             +-> worker N-1-/
//! ```
//!
//! The dispatcher groups micro-flows of `batch_size` consecutive frames
//! and asks the configured [`SteeringPolicy`]
//! ([`RuntimeConfig::policy`]) for a lane per batch; each worker performs
//! the per-packet work; the merger restores the original order with the
//! merging-counter algorithm. Workers run genuinely concurrently, so the
//! merger sees every interleaving a real kernel would.
//!
//! # Steering policies
//!
//! * **mflow** (default) — micro-flows of an elephant flow round-robin
//!   across every lane, the paper's packet-level parallelism. The only
//!   policy that interleaves one flow, so the only one that *needs* the
//!   merge counter on a fault-free run.
//! * **rps / rss / rfs** — whole-flow steering: every batch of a flow
//!   lands on one pinned lane, so per-lane FIFO alone preserves order
//!   and the merger degenerates to passthrough (zero `ooo`, zero
//!   `flushed`).
//! * **falcon-dev / falcon-func** — FALCON's softirq pipelining: batches
//!   enter a *chain* of workers (2 or 3 stage groups of
//!   [`crate::work::STAGES`]); each worker applies its group and
//!   forwards to the next, the tail feeds the merger. Order is FIFO
//!   along the chain. If a downstream worker dies, the upstream one
//!   finishes batches locally; if the chain head dies, the dispatcher
//!   processes inline — degraded but never wedged.
//!
//! The merge counter is engaged for reordering policies and whenever
//! faults, shedding or recovery lanes are possible; otherwise results
//! stream through unbuffered.
//!
//! # Transports
//!
//! Every lane — dispatcher→worker and worker→merger — runs over one of
//! two interchangeable transports ([`RuntimeConfig::transport`]):
//!
//! * [`Transport::Mpsc`] — `std::sync::mpsc::sync_channel`, i.e.
//!   mutex+condvar handoff. The original implementation, kept as the
//!   differential-testing baseline.
//! * [`Transport::Ring`] — the in-tree lock-free SPSC rings of
//!   [`crate::ring`], the userspace analogue of the paper's per-core
//!   packet-request ring buffers: atomic head/tail, batch-granular
//!   publishes, spin-then-park waiting. The merge path becomes one ring
//!   per producer (each worker plus the dispatcher's inline lane) fanned
//!   into a round-robin mux.
//!
//! Both transports preserve the same per-lane FIFO and disconnect
//! semantics, so the fault-recovery machinery below is transport-blind.
//! Every cross-thread handoff happens once per micro-flow: batches hold
//! references into the caller's `frames` (no refcount traffic), and a
//! micro-flow's results reach the merger as one run.
//!
//! # Stateful modes
//!
//! The per-packet *stateful* stage ([`crate::work::stateful_stage`],
//! [`RuntimeConfig::stateful_work`] rounds) can run in two places
//! ([`RuntimeConfig::stateful_mode`]):
//!
//! * **merge-before-tcp** (default, the paper's design) — the merger
//!   applies it serially after reassembly, to each result as the merge
//!   engine releases it, so it stays a single-core stage exactly like
//!   the kernel's in-order TCP receive but overlaps the parallel worker
//!   stages instead of running after them.
//! * **scr** (state-compute replication) — every lane applies it to the
//!   packets it processes, and the merger becomes a *reconciler*
//!   ([`mflow::ScrReconciler`]): a per-stream seq watermark that emits
//!   each position exactly once, in order, discarding replicated or
//!   redispatched duplicates. Because the stage is a pure function of
//!   the packet, both modes deliver byte-identical streams — the
//!   differential suite in `tests/` proves it across every policy,
//!   transport and fault mix.
//!
//! # Degradation under faults
//!
//! [`process_parallel_faulty`] runs the same pipeline with an injected
//! [`RuntimeFaults`] mix and never panics or wedges:
//!
//! * **Worker death** — each send failure marks the lane dead; the batch
//!   that bounced plus a retained window of recently-sent batches are
//!   redispatched to surviving workers. Redispatched copies ride fresh
//!   *recovery lanes* (`n_workers + k`) so the merger's per-lane FIFO
//!   assumption is never violated; copies of already-merged batches are
//!   rejected as duplicates. A dead lane's queue-depth counter is zeroed
//!   the moment the death is discovered (and again at join for deaths the
//!   dispatcher never observed), so occupancy signals never count batches
//!   nobody will dequeue.
//! * **Loss** — a micro-flow that never completes stalls the merging
//!   counter; the merger flushes past it after
//!   [`RuntimeFaults::flush_timeout_ms`] without arrivals, and again at
//!   end of stream, releasing every parked successor. Skipped IDs are
//!   reported in [`RunOutput::flushed_mfs`].
//! * **Duplication / late arrival** — rejected by the merge counter and
//!   reported in the [`Telemetry`] `dup` / `late` counters.
//!
//! The output is always an ordered, duplicate-free subsequence of the
//! serial output; what is missing is exactly accounted for by the
//! dispatcher's planned drops plus the flushed micro-flows.
//!
//! # Module map
//!
//! * `lane` — the two transports behind one set of lane types; every
//!   `match` on [`Transport`] lives there.
//! * `dispatch` — the dispatcher and its loop: steering, backpressure,
//!   redispatch, inline processing.
//! * `worker` — the shared worker context, the one worker loop and its
//!   per-kind steps, FALCON chain links, and the crew that spawns every
//!   worker incarnation and runs the worker watchdog.
//! * `merger` — the merger failure domain: ordering engine, WAL,
//!   merger loop and watchdog, final assembly.
//! * `crate::threads` (outside this directory) — the process-wide pool
//!   every worker, chain stage and merger incarnation runs on, behind a
//!   `std::thread::scope`-shaped API, so a call wakes parked threads
//!   instead of spawning and joining fresh ones.
//!
//! This file holds the public surface and [`process_parallel_faulty`],
//! which composes the four on the pool.

mod dispatch;
mod lane;
mod merger;
mod worker;

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mflow::{ElephantConfig, MfTag, MflowLanes, StatefulMode};
use mflow_error::MflowError;
use mflow_metrics::Telemetry;
use mflow_steering::{build_baseline, PolicyKind, SteeringPolicy};

use crate::faults::RuntimeFaults;
use crate::packet::Frame;
use crate::supervise::{HeartbeatBoard, Supervisor};
use crate::threads;
use crate::work::{process_frame, stage_group_sizes, stateful_stage, PacketResult, StagedWork};

use dispatch::{dispatch, Dispatcher};
use lane::merge_path;
use merger::{Merger, MergerShared, MergerWatch};
use worker::{ChainCtx, ChainSlot, Crew, Ctx};

/// Which cross-core handoff primitive carries batches and results.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Transport {
    /// `std::sync::mpsc::sync_channel` — mutex+condvar (the baseline).
    #[default]
    Mpsc,
    /// Lock-free SPSC request rings ([`crate::ring`]), per the paper's
    /// IRQ-splitting design.
    Ring,
}

/// When in the packet's life the dispatcher reads its bytes — MFLOW's
/// two softirq-splitting designs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DispatchMode {
    /// The dispatcher parses every frame itself (computes the real flow
    /// hash before steering), then hands parsed-context batches to the
    /// workers — today's behavior, analogous to splitting after the
    /// protocol demux.
    #[default]
    PostParse,
    /// IRQ splitting: the dispatcher never touches frame bytes. It
    /// round-robins lightweight packet *requests* (pooled-buffer
    /// descriptors) across lanes, and each worker performs the parse,
    /// flow-hash, and steering-feedback work in parallel. Steering sees
    /// a constant surrogate hash at dispatch time, so flow-affine
    /// policies pin the stream to one lane (per-lane FIFO holds) while
    /// the hash-indifferent MFLOW policy still spreads every batch.
    PacketRequest,
}

impl DispatchMode {
    /// Stable lowercase name, as reported in [`Telemetry`] and accepted
    /// by [`Self::parse`].
    pub fn name(self) -> &'static str {
        match self {
            DispatchMode::PostParse => "post-parse",
            DispatchMode::PacketRequest => "packet-request",
        }
    }

    /// Parses a CLI spelling of the mode.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "post-parse" | "postparse" | "post_parse" => Some(DispatchMode::PostParse),
            "packet-request" | "pktreq" | "packet_request" => Some(DispatchMode::PacketRequest),
            _ => None,
        }
    }
}

/// What the dispatcher does when a lane is at its watermark (or its queue
/// is outright full).
///
/// `Block` reproduces the kernel's default: the dispatching core waits on
/// the splitting queue, which is safe but lets one slow lane stall the
/// whole stream. The other two bound dispatcher latency under overload:
/// `DropTail` sheds whole micro-flows (never a partial batch, so the
/// merge counter is only ever missing complete micro-flows it can flush
/// past), and `Inline` processes the batch on the dispatching core
/// itself, trading its cycles for zero loss and exact order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Wait for the lane to drain (today's behavior).
    #[default]
    Block,
    /// Shed whole batches, up to `budget` packets for the run; once the
    /// budget is exhausted the dispatcher falls back to blocking (or to
    /// inline processing with [`RuntimeConfig::inline_fallback`]).
    DropTail {
        /// Maximum packets the run may shed.
        budget: u64,
    },
    /// Process the batch on the dispatcher thread. The batch rides a
    /// fresh recovery lane, so the merger's per-lane FIFO assumption
    /// holds and ordering is preserved via the merge counter.
    Inline,
}

/// Parallel-pipeline parameters.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Worker (splitting-core) count.
    pub workers: usize,
    /// Micro-flow batch size in packets.
    pub batch_size: usize,
    /// Bounded channel depth between dispatcher and each worker, in
    /// batches.
    pub queue_depth: usize,
    /// What to do when a lane is saturated.
    pub backpressure: BackpressurePolicy,
    /// Queue depth (in batches) at which the policy engages, before the
    /// channel is even full. `None` engages only when a `try_send`
    /// reports the queue full.
    pub high_watermark: Option<usize>,
    /// With `DropTail`: once the shed budget is exhausted, process
    /// overflow batches inline instead of blocking.
    pub inline_fallback: bool,
    /// Cross-core handoff primitive for every lane.
    pub transport: Transport,
    /// Where per-packet parsing happens: on the dispatcher before
    /// steering (`PostParse`) or on the workers, with the dispatcher
    /// reduced to descriptor round-robin (`PacketRequest`).
    pub dispatch_mode: DispatchMode,
    /// Worker→merger queue capacity, counted in results. Must be a power
    /// of two. Results travel as one run per micro-flow, so the transport
    /// holds ⌈`merger_depth` / `batch_size`⌉ runs, at least 1: under
    /// `Mpsc` the shared channel, under `Ring` each producer's ring.
    pub merger_depth: usize,
    /// Which steering policy drives dispatch (lane choice, chain
    /// topology, merger engagement).
    pub policy: PolicyKind,
    /// Missed-heartbeat deadline in milliseconds: a worker whose
    /// heartbeat epoch has not moved for this long *while it has work
    /// queued* is declared stalled and replaced. `None` disables the
    /// stall watchdog (deaths are then only observed through lane
    /// disconnects).
    pub heartbeat_interval_ms: Option<u64>,
    /// Total worker respawns the supervisor may perform across the run;
    /// 0 disables respawning (today's single-recovery behavior).
    pub restart_budget: u32,
    /// Base respawn backoff in milliseconds; doubles per respawn of the
    /// same slot.
    pub restart_backoff_ms: u64,
    /// Where the stateful stage runs: serially on the merger after
    /// reassembly (`MergeBeforeTcp`, the paper's design) or replicated
    /// on every lane with the merger reduced to a seq-watermark
    /// reconciler (`StateComputeReplication`).
    pub stateful_mode: StatefulMode,
    /// Rounds of per-packet stateful work ([`crate::work::stateful_stage`]);
    /// 0 disables the stage (both modes then deliver the plain digests).
    pub stateful_work: u32,
    /// Merger checkpoint interval in accepted offers: every this many
    /// offers the merger folds its write-ahead delta log into a fresh
    /// [`MergerState`] snapshot, bounding crash-recovery replay to one
    /// inter-checkpoint window. Only paid when the merger failure domain
    /// is armed (supervision on, or merger faults injected).
    pub checkpoint_every: u64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            batch_size: 256,
            queue_depth: 8,
            backpressure: BackpressurePolicy::Block,
            high_watermark: None,
            inline_fallback: false,
            transport: Transport::Mpsc,
            dispatch_mode: DispatchMode::PostParse,
            merger_depth: 4096,
            policy: PolicyKind::Mflow,
            heartbeat_interval_ms: None,
            restart_budget: 0,
            restart_backoff_ms: 8,
            stateful_mode: StatefulMode::MergeBeforeTcp,
            stateful_work: 0,
            checkpoint_every: 1024,
        }
    }
}

impl RuntimeConfig {
    /// Checks the structural invariants; every fallible pipeline entry
    /// point calls this instead of asserting.
    pub fn validate(&self) -> Result<(), MflowError> {
        if self.workers < 1 {
            return Err(MflowError::invalid("workers", "must be at least 1"));
        }
        if self.batch_size < 1 {
            return Err(MflowError::invalid("batch_size", "must be at least 1"));
        }
        if self.queue_depth < 1 {
            return Err(MflowError::invalid("queue_depth", "must be at least 1"));
        }
        if let Some(w) = self.high_watermark {
            if w < 1 || w > self.queue_depth {
                return Err(MflowError::invalid(
                    "high_watermark",
                    "must be between 1 and queue_depth",
                ));
            }
        }
        if self.merger_depth < 1 || !self.merger_depth.is_power_of_two() {
            return Err(MflowError::invalid(
                "merger_depth",
                "must be a nonzero power of two",
            ));
        }
        if self.heartbeat_interval_ms == Some(0) {
            return Err(MflowError::invalid(
                "heartbeat_interval_ms",
                "must be at least 1 (or None to disable)",
            ));
        }
        if self.checkpoint_every < 1 {
            return Err(MflowError::invalid(
                "checkpoint_every",
                "must be at least 1",
            ));
        }
        Ok(())
    }

    /// Whether the supervision layer is engaged: either the stall
    /// watchdog or the respawn machinery (or both) is on.
    pub fn supervised(&self) -> bool {
        self.restart_budget > 0 || self.heartbeat_interval_ms.is_some()
    }
}

/// Dispatch-side throughput windows around the fault interval, for
/// time-to-recovery assertions: how fast frames moved before the first
/// observed worker death, and again after the last supervisor respawn.
/// Zeroes when the window does not exist (no deaths, or no respawn).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryRates {
    /// Frames dispatched before the first observed death.
    pub prefault_frames: u64,
    /// Wall-clock nanoseconds of the pre-fault window.
    pub prefault_ns: u64,
    /// Frames dispatched after the last respawn.
    pub recovered_frames: u64,
    /// Wall-clock nanoseconds of the post-recovery window.
    pub recovered_ns: u64,
}

impl RecoveryRates {
    /// Pre-fault dispatch rate in frames per second (0 when unmeasured).
    pub fn prefault_rate(&self) -> f64 {
        if self.prefault_ns == 0 {
            0.0
        } else {
            self.prefault_frames as f64 * 1e9 / self.prefault_ns as f64
        }
    }

    /// Post-recovery dispatch rate in frames per second (0 when
    /// unmeasured).
    pub fn recovered_rate(&self) -> f64 {
        if self.recovered_ns == 0 {
            0.0
        } else {
            self.recovered_frames as f64 * 1e9 / self.recovered_ns as f64
        }
    }
}

/// The outcome of a pipeline run: the shared [`Telemetry`] counter block
/// plus the runtime engine's extension fields. All the cross-engine
/// counters (delivered, ooo, flushed, late, dup, shed, inline, desplits,
/// redispatched, fault drops, residue, lane depths) live in
/// [`RunOutput::telemetry`]; only runtime-specific detail stays here.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// Results in emission order.
    pub digests: Vec<PacketResult>,
    /// Wall-clock processing time.
    pub elapsed: Duration,
    /// Busy time of the merger thread's serial stage: per-arrival merge
    /// or reconcile bookkeeping plus, under merge-before-tcp, the serial
    /// stateful pass. This is the quantity state-compute replication
    /// exists to shrink, and unlike wall-clock it reads the same no
    /// matter how many host cores the worker threads actually share.
    /// Timed exactly (one clock pair per drain, restore replay, flush
    /// and final assembly), so it never exceeds `elapsed` on a benign
    /// run. (Zero for serial runs, which have no merge stage.)
    pub stateful_serial_ns: u64,
    /// What the merger flushed past instead of waiting forever (the
    /// `flushed` counter is this list's length): micro-flow IDs under
    /// merge-before-tcp, skipped packet seqs under SCR (the reconciler
    /// tracks stream positions, not batch structure).
    pub flushed_mfs: Vec<u64>,
    /// Worker threads that panicked during the run (every incarnation).
    pub workers_died: usize,
    /// Merger incarnations that panicked during the run. Unlike worker
    /// deaths these never shrink the pool: the supervisor respawns the
    /// merger from its last checkpoint, or the dispatcher degrades to
    /// serial merging when the budget is spent.
    pub merger_deaths: usize,
    /// Checkpoints the merger's write-ahead layer folded during the run
    /// (0 when the failure domain was not armed).
    pub checkpoints: u64,
    /// Panicked workers whose slot received a supervisor replacement.
    pub workers_respawned: usize,
    /// Panicked workers whose slot stayed empty (no budget, or backoff
    /// never cleared before end of stream) — the pool shrank for good.
    pub workers_abandoned: usize,
    /// Dispatch throughput before the first death and after the last
    /// respawn (zeroes when supervision is off or nothing died).
    pub recovery: RecoveryRates,
    /// Each shed batch as `(micro-flow id, lane)` — the lane whose
    /// saturation caused the shed.
    pub sheds: Vec<(u64, usize)>,
    /// Batches processed inline on the dispatcher thread (the packet
    /// count is the telemetry `inline` counter).
    pub inline_batches: u64,
    /// Times a `DropTail` dispatcher exhausted its budget and fell back
    /// to blocking.
    pub block_fallbacks: u64,
    /// Times the backpressure policy engaged (watermark hit or queue
    /// full), regardless of what it then did.
    pub backpressure_events: u64,
    /// The shared counter block. `lane_depths` are end-of-run per-lane
    /// queue depths — all zero for every completed parallel run: live
    /// lanes drain to empty, dead lanes are zeroed when the death is
    /// discovered. (Empty for serial runs, which have no lanes.)
    pub telemetry: Telemetry,
}

impl RunOutput {
    fn new(digests: Vec<PacketResult>, elapsed: Duration, policy: &str) -> Self {
        let telemetry = Telemetry {
            delivered: digests.len() as u64,
            ..Telemetry::new(policy)
        };
        Self {
            digests,
            elapsed,
            stateful_serial_ns: 0,
            flushed_mfs: Vec::new(),
            workers_died: 0,
            merger_deaths: 0,
            checkpoints: 0,
            workers_respawned: 0,
            workers_abandoned: 0,
            recovery: RecoveryRates::default(),
            sheds: Vec::new(),
            inline_batches: 0,
            block_fallbacks: 0,
            backpressure_events: 0,
            telemetry,
        }
    }
}

/// Baseline: one thread processes every frame in order.
pub fn process_serial(frames: &[Frame]) -> RunOutput {
    process_serial_stateful(frames, 0)
}

/// Baseline with the stateful stage applied in order after the
/// per-packet work — the reference stream both
/// [`RuntimeConfig::stateful_mode`]s must reproduce exactly.
pub fn process_serial_stateful(frames: &[Frame], stateful_work: u32) -> RunOutput {
    let start = Instant::now();
    let digests = frames
        .iter()
        .map(|f| stateful_stage(process_frame(f), stateful_work))
        .collect();
    RunOutput::new(digests, start.elapsed(), "serial")
}

/// Instantiates the [`SteeringPolicy`] for a [`PolicyKind`]: baselines
/// come from `mflow-steering`, MFLOW itself from the `mflow` crate
/// (always-split elephant detection, as in the paper's single-flow
/// experiments).
fn build_policy(kind: PolicyKind) -> Result<Box<dyn SteeringPolicy>, MflowError> {
    match build_baseline(kind) {
        Some(p) => Ok(p),
        None => Ok(Box::new(MflowLanes::try_new(ElephantConfig::always())?)),
    }
}

/// The shared steering-policy cell: the dispatcher steers through it,
/// and in packet-request mode the workers feed observations back through
/// it after parsing.
type PolicyCell = Mutex<Box<dyn SteeringPolicy>>;

/// Locks the policy cell, ignoring poisoning — a worker panicking
/// between observe calls leaves the policy structurally valid.
fn lock_policy(cell: &PolicyCell) -> std::sync::MutexGuard<'_, Box<dyn SteeringPolicy>> {
    cell.lock().unwrap_or_else(|e| e.into_inner())
}

/// One micro-flow's tagged frames, as sent to a worker: references into
/// the caller's `frames`, which outlive every pipeline thread.
type Batch<'f> = Vec<(MfTag, &'f Frame)>;
/// One micro-flow part-way through the staged pipeline, as forwarded
/// between FALCON chain workers.
type StageBatch<'f> = Vec<(MfTag, StagedWork<'f>)>;
/// One processed packet, as offered to the merge engine.
type Merged = (MfTag, PacketResult);
/// One micro-flow's processed packets: the merge transport's unit, so a
/// producer pays one handoff per micro-flow, not per packet.
type Run = Vec<Merged>;

/// Allocator of fresh merge-counter tag lanes, shared by the dispatcher
/// (recovery lanes, revived slots) and the FALCON chain stages (batches
/// finished locally or sent over a re-wired link). Every id it hands out
/// is above the initial lanes and used by no one else, so whatever rides
/// it is FIFO by construction.
struct TagLanes(AtomicUsize);

impl TagLanes {
    fn new(first: usize) -> Self {
        Self(AtomicUsize::new(first))
    }

    fn fresh(&self) -> usize {
        self.0.fetch_add(1, Ordering::Relaxed)
    }

    /// Moves a whole batch onto one fresh tag lane.
    fn retag<T>(&self, batch: &mut [(MfTag, T)]) {
        let lane = self.fresh();
        for (tag, _) in batch {
            tag.lane = lane;
        }
    }
}

/// MFLOW pipeline: split into micro-flows, process on `workers` threads,
/// merge back in order. Equivalent to [`process_parallel_faulty`] with
/// [`RuntimeFaults::none`].
///
/// Returns [`MflowError::InvalidConfig`] for a malformed configuration,
/// [`MflowError::MergerPoisoned`] if the merge stage panics, and
/// [`MflowError::NoLiveWorkers`] when every fan-out worker died with
/// input still pending (chain policies instead fall back to inline
/// processing on the dispatcher).
pub fn process_parallel(frames: &[Frame], cfg: &RuntimeConfig) -> Result<RunOutput, MflowError> {
    process_parallel_faulty(frames, cfg, &RuntimeFaults::none())
}

/// The pipeline under an injected fault mix. Guaranteed not to panic and
/// not to wedge for any fault combination; see the module docs for the
/// degradation contract.
pub fn process_parallel_faulty<'f>(
    frames: &'f [Frame],
    cfg: &RuntimeConfig,
    faults: &RuntimeFaults,
) -> Result<RunOutput, MflowError> {
    cfg.validate()?;
    let policy = build_policy(cfg.policy)?;
    let start = Instant::now();
    // FALCON pipelines stages across a worker chain instead of fanning
    // batches out: one entry lane, min(stage groups, workers) workers,
    // worker i applying stage group i. (Empty in fan-out mode.)
    let groups = if policy.stage_groups() >= 2 {
        stage_group_sizes(policy.stage_groups().min(cfg.workers))
    } else {
        Vec::new()
    };
    let chain_len = groups.len();
    let n_lanes = if chain_len > 0 { 1 } else { cfg.workers };
    let n_threads = chain_len.max(n_lanes);
    // DropTail removes whole micro-flows from the stream, which stalls
    // the merge counter exactly like injected loss does, and any policy
    // that can go inline (Inline itself, DropTail's inline fallback)
    // retags batches onto recovery lanes whose arrivals may trail the
    // primary lanes indefinitely — so every policy that sheds or creates
    // recovery lanes gets the flush deadline even in otherwise faultless
    // runs, not just DropTail. Supervision counts too: a stall-respawn
    // redispatches the retained window while the stalled worker may still
    // drain its copy, so recovery lanes and duplicates become possible.
    let supervised = cfg.supervised();
    let can_shed_or_recover = !matches!(cfg.backpressure, BackpressurePolicy::Block) || supervised;
    let flush_timeout = if faults.is_active() || can_shed_or_recover {
        faults.flush_timeout_ms.map(Duration::from_millis)
    } else {
        None
    };
    // The merge counter is only needed when arrivals can leave original
    // order: a policy that interleaves one flow across lanes, or any run
    // where faults / shedding / recovery lanes can perturb the stream.
    // Otherwise per-lane FIFO carries order end to end and the merger
    // streams results through unbuffered.
    let use_counter = policy.reorders() || faults.is_active() || can_shed_or_recover;
    // Stateful-stage placement: under SCR the lanes (and every degraded
    // path that stands in for a lane — chain-local completion, inline
    // processing) apply the stage; under merge-before-tcp the merger
    // does, serially, on each result reassembly releases.
    let scr = cfg.stateful_mode == StatefulMode::StateComputeReplication;
    let wal_on = supervised || faults.merger_faults_active();

    // Workers (plus the dispatcher's inline lane) -> merger. `merger_depth`
    // counts results; the transport carries runs of at most one
    // micro-flow (`batch_size` results) each. The receiver moves into a
    // shared slot that merger incarnations lease; producer senders stay
    // valid across merger deaths, which makes re-attachment implicit.
    let merge_runs = cfg.merger_depth.div_ceil(cfg.batch_size).max(1);
    let (wiring, dispatch_tx, merge_rx) = merge_path(cfg.transport, merge_runs);
    let shared = MergerShared::new(merge_rx, use_counter, scr, cfg.stateful_work);
    let depths: Vec<AtomicUsize> = (0..n_lanes).map(|_| AtomicUsize::new(0)).collect();
    // Per-slot heartbeat epochs, the watchdog's liveness signal. The
    // extra slot past the workers is the merger's.
    let beats = HeartbeatBoard::new(n_threads + 1);
    let slots: Vec<Mutex<ChainSlot<'f>>> = (0..chain_len)
        .map(|_| Mutex::new(ChainSlot { gen: 0, tx: None }))
        .collect();
    let link_depths: Vec<AtomicUsize> = (0..chain_len).map(|_| AtomicUsize::new(0)).collect();
    let dead_gens: Vec<AtomicU64> = (0..chain_len).map(|_| AtomicU64::new(u64::MAX)).collect();
    let tag_lanes = TagLanes::new(n_lanes);
    // The policy moves into a shared cell: the dispatcher steers through
    // it and, under packet-request dispatch (IRQ splitting), the parsing
    // thread feeds observations back — one uncontended acquisition per
    // micro-flow. Structural reads (`stage_groups`, `reorders`) happened
    // above, before the move.
    let policy_cell = Mutex::new(policy);
    let ctx = Ctx {
        faults,
        beats: &beats,
        sent: &shared.sent,
        depths: &depths,
        scr_work: scr.then_some(cfg.stateful_work),
        chain: ChainCtx {
            slots: &slots,
            link_depths: &link_depths,
            dead_gens: &dead_gens,
        },
        groups: &groups,
        policy: &policy_cell,
        pkt_req: cfg.dispatch_mode == DispatchMode::PacketRequest,
        tag_lanes: &tag_lanes,
    };
    let merger = Merger {
        shared: &shared,
        faults,
        beats: &beats,
        slot: n_threads,
        flush_timeout,
        wal_on,
        checkpoint_every: cfg.checkpoint_every,
    };
    // Buffer-pool telemetry: snapshot the frames' pool so the run can
    // report the recycle and heap-fallback deltas it caused.
    let frame_pool = frames.iter().find_map(|f| f.buf().pool());
    let pool_before = frame_pool.as_ref().map(|p| p.stats());
    let n = frames.len() as u64;

    let (counters, sup, recovery, deaths, merger_deaths) = threads::scope(|s| {
        let (mut crew, lanes) = Crew::start(s, ctx, cfg, supervised, wiring);
        let mut watch = MergerWatch::start(s, merger, cfg.merger_depth, supervised);
        // One supervision slot per worker plus the merger's; the respawn
        // budget is one shared pool across both failure domains, but the
        // restart and recovery-time counters split per domain.
        let mut sup = Supervisor::new(
            n_threads + 1,
            cfg.heartbeat_interval_ms.map(Duration::from_millis),
            cfg.restart_budget,
            Duration::from_millis(cfg.restart_backoff_ms),
            start,
        );
        sup.watch_merger(n_threads);
        // Orphaned batches go inline in chain mode (the chain has one
        // entry lane, so "no live worker" is routine) and in supervised
        // runs (total loss past the restart budget must degrade to
        // dispatcher-inline processing, never drop the tail).
        let mut d = Dispatcher::new(
            lanes,
            faults,
            cfg,
            &depths,
            &tag_lanes,
            chain_len > 0 || supervised,
        );
        // The watchdog passes: the workers', then the merger's on the
        // same cadence — armed even unsupervised when merger faults are
        // injected, so a merger death degrades to WAL pumping instead of
        // wedging the run.
        dispatch(&mut d, frames, ctx, dispatch_tx, |d, done| {
            crew.tend(d, &mut sup, done);
            watch.tend(&mut sup, done);
        });
        let counters = d.finish();
        // The dispatch-side rate windows close here: a stage healed
        // during teardown below dispatches no frames.
        let recovery = sup.rates(start, Instant::now(), n);
        // Join workers first (they feed the merger); injected deaths
        // surface here as panics and are counted per slot, not
        // propagated. Then keep supervising the merger until the stream
        // is fully consumed (a kill near the end of the stream is
        // respawned or pumped there), and join every incarnation.
        let deaths = crew.join(&mut watch, &mut sup, n);
        let merger_deaths = watch.finish(&mut sup, n);
        (counters, sup, recovery, deaths, merger_deaths)
    });
    if merger_deaths > 0 && !wal_on {
        // An unarmed merger has no injected faults and no respawn path:
        // a panic there is a real bug, surfaced as an error instead of a
        // propagated abort.
        return Err(MflowError::MergerPoisoned);
    }
    let workers_died = deaths.iter().map(|&d| d as usize).sum();
    // A chain run survives total worker loss through the dispatcher's
    // inline fallback, and so does a supervised run (orphaned batches go
    // inline once the restart budget is gone); an unsupervised fan-out
    // run cannot deliver the remainder.
    if chain_len == 0 && !supervised && workers_died == n_threads && !frames.is_empty() {
        return Err(MflowError::NoLiveWorkers);
    }
    // Every scoped thread has joined; reclaim the policy for its
    // end-of-run reads. End of stream flushes whatever loss left stuck,
    // so nothing stays parked forever.
    let policy = policy_cell.into_inner().unwrap_or_else(|e| e.into_inner());
    let mut run = shared.assemble(flush_timeout.is_some() || faults.is_active() || supervised);
    (run.workers_respawned, run.workers_abandoned) = sup.classify_deaths(&deaths);
    run.workers_died = workers_died;
    run.merger_deaths = merger_deaths;
    run.recovery = recovery;
    counters.report(&mut run);
    let t = &mut run.telemetry;
    t.policy = policy.name().to_string();
    t.stateful_mode = cfg.stateful_mode.name().to_string();
    t.dispatch_mode = cfg.dispatch_mode.name().to_string();
    // Buffer-pool deltas attributable to this run: counters only grow,
    // but saturate anyway so a shared pool raced by another run cannot
    // underflow the report.
    if let (Some(p), Some(before)) = (&frame_pool, pool_before) {
        let now = p.stats();
        t.pool_recycled = now.recycled.saturating_sub(before.recycled);
        t.pool_misses = now.misses.saturating_sub(before.misses);
    }
    (t.desplits, t.resplits) = policy.desplit_stats();
    t.restarts = sup.restarts;
    t.heartbeat_misses = sup.heartbeat_misses;
    t.recovery_ns = sup.recovery_ns;
    t.merger_restarts = sup.merger_restarts;
    t.merger_recovery_ns = sup.merger_recovery_ns;
    t.lane_depths = depths
        .iter()
        .map(|d| d.load(Ordering::Relaxed) as u64)
        .collect();
    run.elapsed = start.elapsed();
    Ok(run)
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::sync::mpsc;

    use super::dispatch::Lane;
    use super::lane::{spsc_lane, LaneTx};
    use super::worker::Intake;
    use super::*;
    use crate::faults::{MergerKill, MergerStall, SlowWorker, WorkerKill};
    use crate::packet::generate_frames;

    /// Both transports, for exercising every scenario over each.
    const TRANSPORTS: [Transport; 2] = [Transport::Mpsc, Transport::Ring];

    fn run(n: usize, payload: usize, cfg: RuntimeConfig) {
        let frames = generate_frames(n, payload);
        let serial = process_serial(&frames);
        for transport in TRANSPORTS {
            let cfg = RuntimeConfig { transport, ..cfg };
            let parallel = process_parallel(&frames, &cfg).unwrap();
            assert_eq!(
                serial.digests, parallel.digests,
                "order or content diverged with {cfg:?}"
            );
            assert!(
                parallel.telemetry.lane_depths.iter().all(|&d| d == 0),
                "stale end-of-run depths {:?} with {cfg:?}",
                parallel.telemetry.lane_depths
            );
        }
    }

    #[test]
    fn two_workers_preserve_order_and_content() {
        run(2_000, 128, RuntimeConfig::default());
    }

    #[test]
    fn many_workers_tiny_batches() {
        run(
            1_000,
            64,
            RuntimeConfig {
                workers: 8,
                batch_size: 1,
                queue_depth: 4,
                ..RuntimeConfig::default()
            },
        );
    }

    #[test]
    fn batch_larger_than_input() {
        run(
            10,
            32,
            RuntimeConfig {
                workers: 3,
                batch_size: 1_000,
                queue_depth: 2,
                ..RuntimeConfig::default()
            },
        );
    }

    #[test]
    fn single_worker_degenerates_to_serial() {
        run(
            500,
            16,
            RuntimeConfig {
                workers: 1,
                batch_size: 64,
                queue_depth: 2,
                ..RuntimeConfig::default()
            },
        );
    }

    #[test]
    fn empty_input() {
        for transport in TRANSPORTS {
            let cfg = RuntimeConfig {
                transport,
                ..RuntimeConfig::default()
            };
            let out = process_parallel(&[], &cfg).unwrap();
            assert!(out.digests.is_empty());
            assert_eq!(out.telemetry.ooo, 0);
        }
    }

    #[test]
    fn exact_batch_multiple() {
        run(
            512,
            8,
            RuntimeConfig {
                workers: 2,
                batch_size: 256,
                queue_depth: 2,
                ..RuntimeConfig::default()
            },
        );
    }

    #[test]
    fn small_batches_cause_more_merge_input_disorder_than_large() {
        // The real-thread analogue of Figure 7: with more lanes than one
        // and tiny batches, the merger input interleaves heavily; with one
        // giant batch everything arrives in order. This is statistical on
        // real threads, so only the extreme ends are asserted.
        let frames = generate_frames(20_000, 64);
        for transport in TRANSPORTS {
            let small = process_parallel(
                &frames,
                &RuntimeConfig {
                    workers: 4,
                    batch_size: 1,
                    queue_depth: 64,
                    transport,
                    ..RuntimeConfig::default()
                },
            )
            .unwrap();
            let large = process_parallel(
                &frames,
                &RuntimeConfig {
                    workers: 4,
                    batch_size: 20_000,
                    queue_depth: 64,
                    transport,
                    ..RuntimeConfig::default()
                },
            )
            .unwrap();
            assert_eq!(large.telemetry.ooo, 0, "single batch cannot interleave");
            assert!(
                small.telemetry.ooo > 0,
                "1-packet batches over 4 threads should interleave at least once ({transport:?})"
            );
        }
    }

    #[test]
    fn stress_repeated_runs_stay_correct() {
        let frames = generate_frames(3_000, 32);
        let reference = process_serial(&frames);
        for transport in TRANSPORTS {
            for workers in [2, 3, 5] {
                for batch in [7, 97, 1024] {
                    let out = process_parallel(
                        &frames,
                        &RuntimeConfig {
                            workers,
                            batch_size: batch,
                            queue_depth: 3,
                            transport,
                            ..RuntimeConfig::default()
                        },
                    )
                    .unwrap();
                    assert_eq!(
                        out.digests, reference.digests,
                        "w={workers} b={batch} t={transport:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn faultless_fault_path_is_exact() {
        // The faulty entry point with an inert mix must behave like the
        // plain pipeline: exact digests, no degradation counters.
        let frames = generate_frames(1_500, 64);
        let serial = process_serial(&frames);
        for transport in TRANSPORTS {
            let out = process_parallel_faulty(
                &frames,
                &RuntimeConfig {
                    transport,
                    ..RuntimeConfig::default()
                },
                &RuntimeFaults::none(),
            )
            .unwrap();
            assert_eq!(out.digests, serial.digests);
            assert!(out.flushed_mfs.is_empty());
            assert_eq!(out.telemetry.fault_drops, 0);
            assert_eq!(out.workers_died, 0);
            assert_eq!(out.telemetry.residue, 0);
            assert_eq!(out.telemetry.shed, 0);
            assert_eq!(out.backpressure_events, 0);
        }
    }

    #[test]
    fn killed_worker_does_not_panic_or_wedge_the_run() {
        let frames = generate_frames(4_000, 32);
        let mut faults = RuntimeFaults::none();
        faults.kills = vec![WorkerKill {
            worker: 1,
            after_batches: 3,
            incarnation: 0,
        }];
        faults.flush_timeout_ms = Some(50);
        for transport in TRANSPORTS {
            let out = process_parallel_faulty(
                &frames,
                &RuntimeConfig {
                    workers: 3,
                    batch_size: 64,
                    queue_depth: 4,
                    transport,
                    ..RuntimeConfig::default()
                },
                &faults,
            )
            .unwrap();
            assert_eq!(out.workers_died, 1);
            assert!(!out.digests.is_empty());
            assert_eq!(out.telemetry.residue, 0, "end flush must empty the merger");
            // The dead lane's counter must not report phantom load.
            assert!(
                out.telemetry.lane_depths.iter().all(|&d| d == 0),
                "stale depth after worker death: {:?} ({transport:?})",
                out.telemetry.lane_depths
            );
            // Output must be a strictly ordered, duplicate-free subsequence.
            for pair in out.digests.windows(2) {
                assert!(pair[0].seq < pair[1].seq);
            }
        }
    }

    #[test]
    fn recovery_windows_cover_whole_micro_flows() {
        // The watchdog runs only between micro-flows, so with no dispatch
        // drops the frames dispatched before the first death, and those
        // before the last respawn, are whole batches.
        let batch_size = 32;
        let frames = generate_frames(batch_size * 64, 32);
        let n = frames.len() as u64;
        let mut faults = RuntimeFaults::none();
        faults.kills = vec![WorkerKill {
            worker: 0,
            after_batches: 4,
            incarnation: 0,
        }];
        for transport in TRANSPORTS {
            let cfg = RuntimeConfig {
                batch_size,
                transport,
                restart_budget: 4,
                restart_backoff_ms: 0,
                ..RuntimeConfig::default()
            };
            let out = process_parallel_faulty(&frames, &cfg, &faults).unwrap();
            assert_eq!(out.workers_died, 1, "{transport:?}");
            assert_eq!(out.workers_respawned, 1, "{transport:?}");
            let r = out.recovery;
            assert!(r.prefault_frames > 0, "{transport:?}: {r:?}");
            let healed = n - r.recovered_frames;
            for (what, frames) in [("prefault", r.prefault_frames), ("healed", healed)] {
                assert_eq!(
                    frames % batch_size as u64,
                    0,
                    "{transport:?}: {what} window ends mid-micro-flow: {r:?}"
                );
            }
        }
    }

    #[test]
    fn a_rerouted_window_never_reuses_a_dead_workers_tag_lane() {
        // Worker 1 emits batch 0 and dies; worker 0 dies holding batch 1.
        // The bounce off lane 0 reroutes its window onto lane 1, which
        // bounces too (that death is not yet discovered), so lane 1's
        // window — batch 0, already emitted on tag lane 1 — is rerouted
        // from inside a recovery send. It must still move to a fresh
        // recovery lane: a second copy on tag lane 1 would merge as a
        // continuation of the first, and if the micro-flow lost its
        // closing packet the counter would release it twice.
        let frames = generate_frames(3, 16);
        let batch = |i: usize, lane: usize| -> Batch<'_> {
            let tag = MfTag {
                id: i as u64,
                lane,
                last: false,
            };
            vec![(tag, &frames[i])]
        };
        for transport in TRANSPORTS {
            let cfg = RuntimeConfig {
                workers: 3,
                restart_budget: 1,
                transport,
                ..RuntimeConfig::default()
            };
            let depths: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
            let mut rxs = Vec::new();
            let lanes = (0..3)
                .map(|tag_lane| {
                    let (tx, rx) = spsc_lane::<Batch<'_>>(transport, cfg.queue_depth);
                    rxs.push(Some(rx));
                    Lane {
                        tx: Some(tx),
                        recent: VecDeque::new(),
                        tag_lane,
                    }
                })
                .collect();
            let tag_lanes = TagLanes::new(3);
            let mut d = Dispatcher::new(
                lanes,
                &RuntimeFaults::none(),
                &cfg,
                &depths,
                &tag_lanes,
                false,
            );
            d.send_retained(1, batch(0, 1));
            rxs[1] = None;
            d.send_retained(0, batch(1, 0));
            rxs[0] = None;
            d.send_retained(0, batch(2, 0));
            let mut survivor = rxs[2].take().expect("lane 2 stays live");
            drop(d);
            let mut got = Vec::new();
            while let Some(b) = survivor.recv() {
                got.extend(b.iter().map(|(tag, f)| (f.seq, tag.lane)));
            }
            // (A bounced send also sits in its lane's window, so batch 2
            // arrives twice, on two recovery lanes.)
            let seqs: std::collections::BTreeSet<u64> = got.iter().map(|&(seq, _)| seq).collect();
            assert_eq!(seqs, [0, 1, 2].into(), "{transport:?}");
            assert!(
                got.iter().all(|&(_, lane)| lane >= 3),
                "a redispatched batch kept a worker's tag lane: {got:?} ({transport:?})"
            );
        }
    }

    #[test]
    fn zero_workers_rejected() {
        let cfg = RuntimeConfig {
            workers: 0,
            ..RuntimeConfig::default()
        };
        let err = process_parallel(&[], &cfg).unwrap_err();
        assert_eq!(err.field(), Some("workers"));
    }

    #[test]
    fn zero_batch_size_rejected() {
        let cfg = RuntimeConfig {
            batch_size: 0,
            ..RuntimeConfig::default()
        };
        let err = process_parallel(&[], &cfg).unwrap_err();
        assert_eq!(err.field(), Some("batch_size"));
    }

    #[test]
    fn zero_queue_depth_rejected() {
        let cfg = RuntimeConfig {
            queue_depth: 0,
            ..RuntimeConfig::default()
        };
        let err = process_parallel(&[], &cfg).unwrap_err();
        assert_eq!(err.field(), Some("queue_depth"));
    }

    #[test]
    fn bad_merger_depth_rejected() {
        // Zero and non-power-of-two both fail validation, under either
        // transport (the bound must mean the same thing when the config
        // is flipped between them).
        for transport in TRANSPORTS {
            for depth in [0usize, 3, 1000, 4097] {
                let cfg = RuntimeConfig {
                    merger_depth: depth,
                    transport,
                    ..RuntimeConfig::default()
                };
                let err = process_parallel(&[], &cfg).unwrap_err();
                assert_eq!(err.field(), Some("merger_depth"), "depth {depth}");
            }
            for depth in [1usize, 2, 1024, 65_536] {
                let cfg = RuntimeConfig {
                    merger_depth: depth,
                    transport,
                    ..RuntimeConfig::default()
                };
                assert!(cfg.validate().is_ok(), "depth {depth}");
            }
        }
    }

    #[test]
    fn tiny_merger_depth_still_completes() {
        // merger_depth 1 forces maximal producer-side waiting — the
        // deepest spin-then-park coverage the ring path can get.
        let frames = generate_frames(600, 32);
        let serial = process_serial(&frames);
        for transport in TRANSPORTS {
            let out = process_parallel(
                &frames,
                &RuntimeConfig {
                    workers: 3,
                    batch_size: 16,
                    queue_depth: 2,
                    merger_depth: 1,
                    transport,
                    ..RuntimeConfig::default()
                },
            )
            .unwrap();
            assert_eq!(out.digests, serial.digests, "{transport:?}");
        }
    }

    #[test]
    fn out_of_range_watermark_rejected() {
        for w in [0, 9] {
            let cfg = RuntimeConfig {
                queue_depth: 8,
                high_watermark: Some(w),
                ..RuntimeConfig::default()
            };
            let err = process_parallel(&[], &cfg).unwrap_err();
            assert_eq!(err.field(), Some("high_watermark"), "watermark {w}");
        }
        // In-range watermarks pass validation.
        let cfg = RuntimeConfig {
            queue_depth: 8,
            high_watermark: Some(8),
            ..RuntimeConfig::default()
        };
        assert!(cfg.validate().is_ok());
    }

    /// Worker 0 takes an extra 500 µs per batch, so its lane holds a
    /// queued batch whenever the dispatcher comes round to it again. The
    /// backpressure tests below need that lag; workers on parked pool
    /// threads wake fast enough to keep up with the dispatcher unaided.
    fn lagging_worker() -> RuntimeFaults {
        RuntimeFaults {
            slow_worker: Some(SlowWorker {
                worker: 0,
                per_batch_us: 500,
            }),
            ..RuntimeFaults::none()
        }
    }

    #[test]
    fn inline_policy_keeps_output_exact() {
        // A watermark of 1 engages the policy on nearly every send to the
        // lagging lane; with `Inline` every engaged batch is processed on
        // the dispatcher thread and the output must still equal the
        // serial run exactly.
        let frames = generate_frames(2_000, 64);
        let serial = process_serial(&frames);
        for transport in TRANSPORTS {
            let out = process_parallel_faulty(
                &frames,
                &RuntimeConfig {
                    workers: 2,
                    batch_size: 32,
                    queue_depth: 2,
                    backpressure: BackpressurePolicy::Inline,
                    high_watermark: Some(1),
                    transport,
                    ..RuntimeConfig::default()
                },
                &lagging_worker(),
            )
            .unwrap();
            assert_eq!(out.digests, serial.digests);
            assert!(out.inline_batches > 0, "watermark 1 must engage inline");
            assert_eq!(out.telemetry.shed, 0);
        }
    }

    #[test]
    fn drop_tail_with_zero_budget_blocks_instead() {
        // Budget 0 can never shed, so every engagement (on the lagging
        // lane) falls back to a blocking send: output stays exact and
        // fallbacks are counted.
        let frames = generate_frames(1_000, 64);
        let serial = process_serial(&frames);
        for transport in TRANSPORTS {
            let out = process_parallel_faulty(
                &frames,
                &RuntimeConfig {
                    workers: 2,
                    batch_size: 16,
                    queue_depth: 1,
                    backpressure: BackpressurePolicy::DropTail { budget: 0 },
                    high_watermark: Some(1),
                    transport,
                    ..RuntimeConfig::default()
                },
                &lagging_worker(),
            )
            .unwrap();
            assert_eq!(out.digests, serial.digests);
            assert!(out.block_fallbacks > 0);
            assert_eq!(out.telemetry.shed, 0);
        }
    }

    #[test]
    fn every_policy_matches_serial_output() {
        // The central invariant: whatever the steering policy, the
        // delivered stream on a benign run equals the serial run exactly,
        // and non-reordering policies see zero merge disturbance.
        let frames = generate_frames(2_000, 64);
        let serial = process_serial(&frames);
        for transport in TRANSPORTS {
            for policy in PolicyKind::ALL {
                let out = process_parallel(
                    &frames,
                    &RuntimeConfig {
                        workers: 4,
                        batch_size: 32,
                        queue_depth: 4,
                        policy,
                        transport,
                        ..RuntimeConfig::default()
                    },
                )
                .unwrap();
                assert_eq!(
                    out.digests, serial.digests,
                    "{policy} diverged ({transport:?})"
                );
                assert_eq!(out.telemetry.policy, policy.name());
                assert_eq!(out.telemetry.delivered, frames.len() as u64);
                if !policy.reorders() {
                    assert_eq!(out.telemetry.ooo, 0, "{policy} must not reorder");
                    assert!(out.flushed_mfs.is_empty(), "{policy} must not flush");
                }
            }
        }
    }

    #[test]
    fn falcon_chain_survives_worker_death() {
        // Killing any link of the stage chain must degrade, not wedge:
        // upstream finishes locally (tail death) or the dispatcher goes
        // inline (head death). Order survives either way.
        let frames = generate_frames(3_000, 32);
        for transport in TRANSPORTS {
            for dead_worker in 0..3 {
                let mut faults = RuntimeFaults::none();
                faults.kills = vec![WorkerKill {
                    worker: dead_worker,
                    after_batches: 2,
                    incarnation: 0,
                }];
                faults.flush_timeout_ms = Some(50);
                let out = process_parallel_faulty(
                    &frames,
                    &RuntimeConfig {
                        workers: 3,
                        batch_size: 64,
                        queue_depth: 4,
                        policy: PolicyKind::FalconFunc,
                        transport,
                        ..RuntimeConfig::default()
                    },
                    &faults,
                )
                .unwrap();
                assert_eq!(out.workers_died, 1, "worker {dead_worker} ({transport:?})");
                assert!(!out.digests.is_empty());
                for pair in out.digests.windows(2) {
                    assert!(
                        pair[0].seq < pair[1].seq,
                        "disorder after killing chain worker {dead_worker} ({transport:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn chain_stage_dying_after_dispatch_is_still_healed() {
        // Queues deep enough to take the whole stream, so the dispatcher
        // is done within a millisecond; a slow interior stage then paces
        // the tail, whose death comes long after the last dispatch-loop
        // watchdog pass. The interior's next forward bounces and flags
        // it, and the staged join must heal it as the dispatch loop
        // would have.
        let frames = generate_frames(40 * 32, 32);
        let mut faults = RuntimeFaults::none();
        faults.kills = vec![WorkerKill {
            worker: 2,
            after_batches: 10,
            incarnation: 0,
        }];
        faults.slow_worker = Some(SlowWorker {
            worker: 1,
            per_batch_us: 2_000,
        });
        faults.flush_timeout_ms = Some(50);
        for transport in TRANSPORTS {
            let cfg = RuntimeConfig {
                workers: 3,
                batch_size: 32,
                queue_depth: 64,
                policy: PolicyKind::FalconFunc,
                restart_budget: 4,
                restart_backoff_ms: 1,
                transport,
                ..RuntimeConfig::default()
            };
            let out = process_parallel_faulty(&frames, &cfg, &faults).unwrap();
            assert_eq!(out.workers_died, 1, "{transport:?}");
            assert_eq!(out.telemetry.restarts, 1, "{transport:?}");
            assert_eq!(out.workers_respawned, 1, "{transport:?}");
            assert_eq!(out.workers_abandoned, 0, "{transport:?}");
            assert_eq!(out.telemetry.residue, 0, "{transport:?}");
            for pair in out.digests.windows(2) {
                assert!(pair[0].seq < pair[1].seq, "disorder ({transport:?})");
            }
        }
    }

    #[test]
    fn a_dying_chain_stage_flags_its_own_death() {
        // Stage 1 of a chain, wired to link generation 5. Killed on its
        // first batch, it must flag generation 5 as it unwinds; drained
        // to a clean end of stream, it must flag nothing.
        let frames = generate_frames(1, 16);
        let mut faults = RuntimeFaults::none();
        faults.kills = vec![WorkerKill {
            worker: 1,
            after_batches: 0,
            incarnation: 0,
        }];
        for killed in [true, false] {
            let slots = [
                Mutex::new(ChainSlot { gen: 5, tx: None }),
                Mutex::new(ChainSlot { gen: 0, tx: None }),
            ];
            let link_depths = [AtomicUsize::new(0), AtomicUsize::new(0)];
            let dead_gens = [AtomicU64::new(u64::MAX), AtomicU64::new(u64::MAX)];
            let chain = ChainCtx {
                slots: &slots,
                link_depths: &link_depths,
                dead_gens: &dead_gens,
            };
            let (merge_tx, _merge_rx) = mpsc::sync_channel::<Run>(4);
            let (mut link_tx, link_rx) = spsc_lane::<StageBatch<'_>>(Transport::Mpsc, 4);
            let (sent, beats) = (AtomicU64::new(0), HeartbeatBoard::new(2));
            let policy = Mutex::new(build_policy(PolicyKind::FalconDev).unwrap());
            let tag_lanes = TagLanes::new(1);
            let ctx = Ctx {
                faults: &faults,
                beats: &beats,
                sent: &sent,
                depths: &[],
                scr_work: None,
                chain,
                groups: &[1, 1],
                policy: &policy,
                pkt_req: false,
                tag_lanes: &tag_lanes,
            };
            let died = threads::scope(|s| {
                let stage =
                    s.spawn(|| ctx.serve(1, 0, Intake::Link(link_rx, 5), LaneTx::Mpsc(merge_tx)));
                if killed {
                    let tag = MfTag {
                        id: 0,
                        lane: 0,
                        last: true,
                    };
                    let _ = link_tx.send(vec![(tag, StagedWork::Raw(&frames[0]))]);
                }
                drop(link_tx);
                stage.join().is_err()
            });
            assert_eq!(died, killed);
            let want = if killed { 5 } else { u64::MAX };
            let flagged = dead_gens[1].load(Ordering::Acquire);
            assert_eq!(flagged, want, "killed {killed}");
        }
    }

    #[test]
    fn chain_mode_uses_one_entry_lane() {
        // FALCON runs report one dispatcher lane regardless of the
        // worker count — stages consume the cores instead.
        let frames = generate_frames(500, 32);
        let out = process_parallel(
            &frames,
            &RuntimeConfig {
                workers: 4,
                policy: PolicyKind::FalconDev,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(out.telemetry.lane_depths.len(), 1);
        let fanout = process_parallel(
            &frames,
            &RuntimeConfig {
                workers: 4,
                policy: PolicyKind::Rps,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(fanout.telemetry.lane_depths.len(), 4);
    }

    /// Supervision knobs shared by the merger failure-domain tests.
    fn merger_test_cfg(transport: Transport) -> RuntimeConfig {
        RuntimeConfig {
            workers: 3,
            batch_size: 32,
            queue_depth: 4,
            heartbeat_interval_ms: Some(25),
            restart_budget: 8,
            restart_backoff_ms: 1,
            transport,
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn zero_checkpoint_interval_rejected() {
        let cfg = RuntimeConfig {
            checkpoint_every: 0,
            ..RuntimeConfig::default()
        };
        let err = process_parallel(&[], &cfg).unwrap_err();
        assert_eq!(err.field(), Some("checkpoint_every"));
    }

    #[test]
    fn benign_supervised_run_checkpoints_but_never_replays() {
        let frames = generate_frames(2_000, 32);
        let serial = process_serial(&frames);
        for transport in TRANSPORTS {
            let cfg = RuntimeConfig {
                checkpoint_every: 256,
                ..merger_test_cfg(transport)
            };
            let out = process_parallel(&frames, &cfg).unwrap();
            assert_eq!(out.digests, serial.digests, "{transport:?}");
            assert_eq!(out.merger_deaths, 0);
            assert_eq!(out.telemetry.merger_restarts, 0);
            assert_eq!(out.telemetry.restore_replayed_offers, 0);
            assert!(out.checkpoints > 0, "armed run must checkpoint");
            assert!(out.telemetry.snapshot_bytes > 0);
        }
    }

    #[test]
    fn killed_merger_respawns_from_checkpoint_with_exact_output() {
        let frames = generate_frames(3_000, 32);
        let serial = process_serial(&frames);
        let mut faults = RuntimeFaults::none();
        faults.merger_kills = vec![MergerKill {
            after_offers: 100,
            incarnation: 0,
        }];
        for transport in TRANSPORTS {
            let out =
                process_parallel_faulty(&frames, &merger_test_cfg(transport), &faults).unwrap();
            assert_eq!(
                out.digests, serial.digests,
                "recovered stream must be byte-identical ({transport:?})"
            );
            assert_eq!(out.merger_deaths, 1, "{transport:?}");
            assert!(out.telemetry.merger_restarts >= 1, "{transport:?}");
            // The fatal offer was journaled before the panic, so the
            // successor replays at least the whole first window.
            assert!(
                out.telemetry.restore_replayed_offers >= 100,
                "replayed only {} ({transport:?})",
                out.telemetry.restore_replayed_offers
            );
            assert_eq!(out.telemetry.residue, 0);
        }
    }

    #[test]
    fn merger_kills_on_successive_incarnations_all_heal() {
        let frames = generate_frames(3_000, 32);
        let serial = process_serial(&frames);
        let mut faults = RuntimeFaults::none();
        faults.merger_kills = vec![
            MergerKill {
                after_offers: 64,
                incarnation: 0,
            },
            MergerKill {
                after_offers: 512,
                incarnation: 1,
            },
        ];
        for transport in TRANSPORTS {
            let cfg = RuntimeConfig {
                checkpoint_every: 128,
                ..merger_test_cfg(transport)
            };
            let out = process_parallel_faulty(&frames, &cfg, &faults).unwrap();
            assert_eq!(out.digests, serial.digests, "{transport:?}");
            assert_eq!(out.merger_deaths, 2, "{transport:?}");
            assert_eq!(out.telemetry.residue, 0);
        }
    }

    #[test]
    fn unsupervised_merger_kill_degrades_to_dispatcher_merge() {
        // No supervision at all: the injected fault still arms the WAL
        // and the watchdog, so the death degrades to the dispatcher
        // journaling the backlog and final assembly performing the
        // serial merge — never MergerPoisoned, never a wedge.
        let frames = generate_frames(2_000, 32);
        let serial = process_serial(&frames);
        let mut faults = RuntimeFaults::none();
        faults.merger_kills = vec![MergerKill {
            after_offers: 50,
            incarnation: 0,
        }];
        for transport in TRANSPORTS {
            let cfg = RuntimeConfig {
                workers: 3,
                batch_size: 32,
                queue_depth: 4,
                transport,
                ..RuntimeConfig::default()
            };
            let out = process_parallel_faulty(&frames, &cfg, &faults).unwrap();
            assert_eq!(out.digests, serial.digests, "{transport:?}");
            assert_eq!(out.merger_deaths, 1);
            assert_eq!(
                out.telemetry.merger_restarts, 0,
                "unsupervised runs must not respawn"
            );
            assert!(
                out.telemetry.restore_replayed_offers >= 50,
                "the journaled stream must be replayed serially"
            );
        }
    }

    #[test]
    fn exhausted_budget_pumps_instead_of_respawning() {
        // Heartbeats on but zero respawn budget: the death is detected,
        // respawn is off the table, and the watchdog must degrade to
        // pumping the transport so producers never block forever.
        let frames = generate_frames(2_000, 32);
        let serial = process_serial(&frames);
        let mut faults = RuntimeFaults::none();
        faults.merger_kills = vec![MergerKill {
            after_offers: 50,
            incarnation: 0,
        }];
        for transport in TRANSPORTS {
            let cfg = RuntimeConfig {
                restart_budget: 0,
                ..merger_test_cfg(transport)
            };
            let out = process_parallel_faulty(&frames, &cfg, &faults).unwrap();
            assert_eq!(out.digests, serial.digests, "{transport:?}");
            assert_eq!(out.merger_deaths, 1);
            assert_eq!(out.telemetry.merger_restarts, 0);
        }
    }

    #[test]
    fn stalled_merger_is_superseded_without_a_death() {
        // A wedge (no heartbeat movement with results queued) is healed
        // by generation supersession: the stuck incarnation exits
        // cleanly at its next gen check — the wedged offer is already
        // journaled — and the successor replays it. No panic anywhere.
        let frames = generate_frames(2_000, 32);
        let serial = process_serial(&frames);
        let mut faults = RuntimeFaults::none();
        faults.merger_stall = Some(MergerStall {
            after_offers: 50,
            ms: 300,
        });
        for transport in TRANSPORTS {
            let cfg = RuntimeConfig {
                heartbeat_interval_ms: Some(20),
                ..merger_test_cfg(transport)
            };
            let out = process_parallel_faulty(&frames, &cfg, &faults).unwrap();
            assert_eq!(out.digests, serial.digests, "{transport:?}");
            assert_eq!(out.merger_deaths, 0, "a supersede is not a death");
            assert!(
                out.telemetry.merger_restarts >= 1,
                "the wedge must be healed by a respawn ({transport:?})"
            );
            assert!(out.telemetry.heartbeat_misses >= 1);
        }
    }

    #[test]
    fn merger_failure_domain_covers_every_policy() {
        // The respawn path must preserve byte-identical delivery under
        // every steering topology, including the chains whose teardown
        // overlaps merger supervision.
        let frames = generate_frames(2_000, 32);
        let serial = process_serial(&frames);
        let mut faults = RuntimeFaults::none();
        faults.merger_kills = vec![MergerKill {
            after_offers: 80,
            incarnation: 0,
        }];
        for transport in TRANSPORTS {
            for policy in PolicyKind::ALL {
                let cfg = RuntimeConfig {
                    policy,
                    checkpoint_every: 64,
                    ..merger_test_cfg(transport)
                };
                let out = process_parallel_faulty(&frames, &cfg, &faults).unwrap();
                assert_eq!(out.digests, serial.digests, "{policy} ({transport:?})");
                // Passthrough policies bypass the merge engine entirely
                // (no counter, no WAL), so the kill never fires there.
                if out.merger_deaths > 0 {
                    assert!(out.telemetry.merger_restarts >= 1, "{policy}");
                }
                assert_eq!(out.telemetry.residue, 0, "{policy} ({transport:?})");
            }
        }
    }

    #[test]
    fn merger_busy_clock_never_exceeds_wall_time() {
        // The serial-stage clock times disjoint stretches of one thread at
        // a time (drains, restores, flushes, final assembly), so on a
        // benign run it can never read more than the run's wall time.
        let frames = generate_frames(20_000, 64);
        for stateful_mode in StatefulMode::ALL {
            for transport in TRANSPORTS {
                let cfg = RuntimeConfig {
                    workers: 2,
                    batch_size: 32,
                    transport,
                    stateful_mode,
                    stateful_work: 64,
                    ..RuntimeConfig::default()
                };
                let out = process_parallel(&frames, &cfg).unwrap();
                assert_eq!(
                    out.digests,
                    process_serial_stateful(&frames, 64).digests,
                    "{stateful_mode:?}/{transport:?}"
                );
                assert!(
                    out.stateful_serial_ns > 0,
                    "{stateful_mode:?}/{transport:?}"
                );
                assert!(
                    u128::from(out.stateful_serial_ns) <= out.elapsed.as_nanos(),
                    "merger busy {} ns > wall {:?} ({stateful_mode:?}/{transport:?})",
                    out.stateful_serial_ns,
                    out.elapsed
                );
            }
        }
    }

    #[test]
    fn replay_stays_within_one_window_when_the_interval_does_not_divide_the_drain() {
        // Checkpoint intervals that do not divide the drain cap: every
        // drain must stop at the boundary, or a kill journals offers no
        // checkpoint covers and the successor replays past one window.
        // The second and third kills fire on their incarnation's first
        // live offer, right after a restore, which is where a restore
        // that did not checkpoint would carry its replayed window into
        // the next one. `merger_depth` dwarfs the stream so the backlog
        // pump (which legitimately journals unbounded bursts) never
        // engages.
        let frames = generate_frames(2_000, 32);
        let mut faults = RuntimeFaults::none();
        faults.merger_kills = (0..3)
            .map(|incarnation| MergerKill {
                after_offers: 100 + incarnation,
                incarnation,
            })
            .collect();
        for checkpoint_every in [7, 1] {
            for stateful_mode in StatefulMode::ALL {
                for transport in TRANSPORTS {
                    let cfg = RuntimeConfig {
                        merger_depth: 8192,
                        stateful_mode,
                        stateful_work: 8,
                        heartbeat_interval_ms: Some(1_000),
                        checkpoint_every,
                        ..merger_test_cfg(transport)
                    };
                    let at = format!("every {checkpoint_every}, {stateful_mode:?}/{transport:?}");
                    let benign = process_parallel(&frames, &cfg).unwrap();
                    let killed = process_parallel_faulty(&frames, &cfg, &faults).unwrap();
                    assert_eq!(killed.digests, benign.digests, "{at}");
                    assert!(killed.merger_deaths >= 1, "{at}");
                    let t = &killed.telemetry;
                    assert!(t.restore_replayed_offers >= 1, "{at}");
                    assert!(
                        t.restore_replayed_offers <= checkpoint_every * (t.merger_restarts + 1),
                        "replayed {} offers over {} restarts ({at})",
                        t.restore_replayed_offers,
                        t.merger_restarts
                    );
                }
            }
        }
    }

    #[test]
    fn merger_killed_mid_run_replays_exactly() {
        // Results travel as one run per micro-flow (32 here), and the
        // merger hands drains to the engine in pieces that stop only at
        // offers where a hook fires. Kills on offers inside a run — on
        // the first incarnation and on each successor — must still die
        // on exactly that offer, leave the rest of the run staged in the
        // leased receiver, and recover byte-identical output within the
        // replay bound. The 100-offer interval lets one drain span
        // several runs, so the kill also splits a drain mid-piece.
        let frames = generate_frames(2_000, 32);
        let mut faults = RuntimeFaults::none();
        faults.merger_kills = [113, 169, 245]
            .into_iter()
            .zip(0..)
            .map(|(after_offers, incarnation)| MergerKill {
                after_offers,
                incarnation,
            })
            .collect();
        for checkpoint_every in [7, 1, 100] {
            for stateful_mode in StatefulMode::ALL {
                for transport in TRANSPORTS {
                    let cfg = RuntimeConfig {
                        merger_depth: 8192,
                        stateful_mode,
                        stateful_work: 8,
                        heartbeat_interval_ms: Some(1_000),
                        checkpoint_every,
                        ..merger_test_cfg(transport)
                    };
                    let at = format!("every {checkpoint_every}, {stateful_mode:?}/{transport:?}");
                    let benign = process_parallel(&frames, &cfg).unwrap();
                    let killed = process_parallel_faulty(&frames, &cfg, &faults).unwrap();
                    assert_eq!(killed.digests, benign.digests, "{at}");
                    assert_eq!(killed.merger_deaths, 3, "{at}");
                    let t = &killed.telemetry;
                    assert!(t.restore_replayed_offers >= 1, "{at}");
                    assert!(
                        t.restore_replayed_offers <= checkpoint_every * (t.merger_restarts + 1),
                        "replayed {} offers over {} restarts ({at})",
                        t.restore_replayed_offers,
                        t.merger_restarts
                    );
                }
            }
        }
    }

    #[test]
    fn journaled_backlog_is_staged_by_final_assembly() {
        // No respawn is coming (unsupervised, or no budget): the backlog
        // is journaled and final assembly merges it. Under
        // merge-before-tcp that replay is also where those results go
        // through the serial stateful stage, so the stream must still
        // equal the serial stateful reference.
        let frames = generate_frames(2_000, 32);
        let serial = process_serial_stateful(&frames, 16);
        let mut faults = RuntimeFaults::none();
        faults.merger_kills = vec![MergerKill {
            after_offers: 50,
            incarnation: 0,
        }];
        for heartbeat_interval_ms in [None, Some(25)] {
            for transport in TRANSPORTS {
                let cfg = RuntimeConfig {
                    restart_budget: 0,
                    heartbeat_interval_ms,
                    stateful_work: 16,
                    ..merger_test_cfg(transport)
                };
                let out = process_parallel_faulty(&frames, &cfg, &faults).unwrap();
                let at = format!("heartbeat {heartbeat_interval_ms:?}, {transport:?}");
                assert_eq!(out.digests, serial.digests, "{at}");
                assert_eq!(out.merger_deaths, 1, "{at}");
                assert!(out.telemetry.restore_replayed_offers >= 50, "{at}");
            }
        }
    }
}
