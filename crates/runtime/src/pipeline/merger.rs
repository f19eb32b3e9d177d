//! The merger failure domain: the ordering engine and its cloneable
//! state, the write-ahead log (checkpoint snapshot plus delta of offers
//! since), the leased receiver, the merger incarnation loop, the
//! merger watchdog, and final assembly. Only this module knows the WAL
//! layout; the rest of the pipeline sees [`MergerShared`],
//! [`MergerWatch`] and the [`RunOutput`] that final assembly returns.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use mflow::{MergeCounter, MergeStats, ScrReconciler};

use crate::faults::{FaultEvent, RuntimeFaults};
use crate::supervise::{HeartbeatBoard, Supervisor};
use crate::threads;
use crate::work::{stateful_stage, PacketResult};

use super::lane::{MergeRecv, MergeRx};
use super::{Merged, RunOutput};

/// Most offers one merger drain takes after its blocking receive: the
/// heartbeat bump, `recvd` add and WAL append are paid once per drain.
/// A drain also stops at the next checkpoint boundary, so the delta log
/// never outgrows one checkpoint window.
const MERGE_DRAIN_MAX: usize = 256;

/// The merger's ordering engine. The variant is fixed for the whole run
/// (it is part of the policy/fault configuration, not of the mutable
/// state), but the bookkeeping inside is exactly what a crash must not
/// lose — so the engine lives inside [`MergerState`] and is cloned whole
/// into every checkpoint.
#[derive(Clone)]
enum MergeEngine {
    /// Per-lane FIFO already is global order (pinned-lane policies on
    /// benign runs): results stream through unbuffered.
    Passthrough,
    /// Merge-before-tcp: the paper's merging counter.
    Counter(MergeCounter<PacketResult>),
    /// State-compute replication: seq-watermark reconciler.
    Reconciler(ScrReconciler<PacketResult>),
}

/// Everything the merger mutates while the stream is in flight, as one
/// cloneable snapshot object: the engine (per-lane queues, counter,
/// flush/dedup windows, SCR watermark and parked set) plus the scalar
/// counters the merger owns. Restoring a [`MergerState`] and replaying
/// the delta log reproduces the dead incarnation's trajectory exactly.
#[derive(Clone)]
struct MergerState {
    engine: MergeEngine,
    /// Stateful mode is SCR (lanes did the stateful stage; arrivals are
    /// counted as replicated transitions).
    scr: bool,
    /// Highest packet seq seen so far, for the `ooo` arrival counter.
    max_seen: Option<u64>,
    /// Arrivals that carried a seq below `max_seen`.
    ooo: u64,
    /// Replicated stateful transitions observed (SCR only).
    replicated: u64,
    /// Rounds of the serial stateful stage applied to every released
    /// result (merge-before-tcp's `stateful_work`; 0 under SCR, whose
    /// lanes already ran it).
    stage_units: u32,
    /// Busy nanoseconds of the serial merge/reconcile stage, stateful
    /// pass included. Callers clock whole drains, restore replays and
    /// flushes into it, so it counts every offer exactly once.
    serial_ns: u64,
    /// Offers applied so far — the WAL's logical clock: checkpoint
    /// boundaries and injected merger faults are expressed in it.
    offers: u64,
}

impl MergerState {
    fn new(use_counter: bool, scr: bool, stateful_work: u32) -> Self {
        let engine = if !use_counter {
            MergeEngine::Passthrough
        } else if scr {
            MergeEngine::Reconciler(ScrReconciler::new())
        } else {
            MergeEngine::Counter(MergeCounter::new())
        };
        Self {
            engine,
            scr,
            max_seen: None,
            ooo: 0,
            replicated: 0,
            stage_units: if scr { 0 } else { stateful_work },
            serial_ns: 0,
            offers: 0,
        }
    }

    /// Runs the serial stateful stage over `out[from..]`, the results an
    /// engine call just released. Every release path ends here, so live
    /// offers, WAL replay and final assembly all emit staged output, and
    /// `out` — like the durable prefix checkpointed from it — only ever
    /// holds staged results.
    fn stage_released(&self, out: &mut [PacketResult], from: usize) {
        if self.stage_units > 0 {
            for r in &mut out[from..] {
                *r = stateful_stage(*r, self.stage_units);
            }
        }
    }

    /// Applies received offers in order: counters, the engine, then the
    /// stateful stage on whatever the engine released. The one apply
    /// path — live drains, restore replay and final assembly all feed
    /// it — so an offer has the same effect whether it arrives live or
    /// replays from the delta log. The merge counter takes the slice as
    /// runs ([`MergeCounter::offer_run`]), equivalent to one offer each.
    fn apply_all(&mut self, items: &[Merged], out: &mut Vec<PacketResult>) {
        self.offers += items.len() as u64;
        if self.scr {
            self.replicated += items.len() as u64;
        }
        for (_, result) in items {
            match self.max_seen {
                Some(max) if result.seq < max => self.ooo += 1,
                Some(max) if result.seq == max => {}
                _ => self.max_seen = Some(result.seq),
            }
        }
        let from = out.len();
        match &mut self.engine {
            MergeEngine::Passthrough => out.extend(items.iter().map(|&(_, r)| r)),
            MergeEngine::Counter(mc) => mc.offer_run(items, out),
            MergeEngine::Reconciler(rc) => {
                for &(_, r) in items {
                    rc.offer(r.seq, r.seq + 1, r, out);
                }
            }
        }
        self.stage_released(out, from);
    }

    /// Flushes past stuck heads: the single most-stalled one
    /// (receive-timeout path), or everything still parked (`all`, end
    /// of stream).
    fn flush(&mut self, out: &mut Vec<PacketResult>, all: bool) {
        let from = out.len();
        match &mut self.engine {
            MergeEngine::Passthrough => {}
            MergeEngine::Counter(mc) if all => {
                mc.flush_stalled(out);
            }
            MergeEngine::Counter(mc) => {
                mc.flush_one(out);
            }
            MergeEngine::Reconciler(rc) if all => {
                rc.flush_stalled(out);
            }
            MergeEngine::Reconciler(rc) => {
                rc.flush_one(out);
            }
        }
        self.stage_released(out, from);
    }

    /// Adds the time since `t` to the serial-stage busy clock.
    fn charge(&mut self, t: Instant) {
        self.serial_ns += t.elapsed().as_nanos() as u64;
    }

    fn stats(&self) -> MergeStats {
        match &self.engine {
            MergeEngine::Passthrough => MergeStats::default(),
            MergeEngine::Counter(mc) => mc.stats(),
            MergeEngine::Reconciler(rc) => rc.stats(),
        }
    }

    /// What the engine flushed past: micro-flow IDs (counter) or skipped
    /// packet seqs (reconciler).
    fn flushed_list(&self) -> Vec<u64> {
        match &self.engine {
            MergeEngine::Passthrough => Vec::new(),
            MergeEngine::Counter(mc) => mc.flushed_ids().iter().copied().collect(),
            MergeEngine::Reconciler(rc) => rc
                .skipped_ranges()
                .iter()
                .flat_map(|&(s, e)| s..e)
                .collect(),
        }
    }

    /// Approximate heap footprint of one snapshot, for the
    /// `snapshot_bytes` telemetry counter.
    fn approx_bytes(&self) -> u64 {
        let engine = match &self.engine {
            MergeEngine::Passthrough => 0,
            MergeEngine::Counter(mc) => mc.approx_bytes(),
            MergeEngine::Reconciler(rc) => rc.approx_bytes(),
        };
        std::mem::size_of::<Self>() as u64 + engine
    }
}

/// The crash-consistent half of the merger failure domain: the last
/// checkpoint ([`MergerState`] snapshot plus the delivered-output prefix
/// it corresponds to) and the write-ahead delta log of offers accepted
/// since. A successor incarnation — or final assembly — reconstructs the
/// exact live state with [`MergerDurable::restore`], so a crash loses at
/// most nothing: every received offer is journaled *before* the
/// (possibly fatal) processing step.
struct MergerDurable {
    snapshot: MergerState,
    /// Delivered (already staged) results as of the last checkpoint —
    /// always a strict prefix of the live incarnation's output, extended
    /// (never cloned) at each checkpoint so the whole run costs
    /// O(delivered) total.
    out: Vec<PacketResult>,
    /// Offers received since the last checkpoint, in arrival order.
    delta: Vec<Merged>,
    snapshot_bytes: u64,
    checkpoints: u64,
    replayed: u64,
}

impl MergerDurable {
    /// The one restore path: replays the delta log onto a copy of the
    /// snapshot, appending what it releases to `out` (which must hold
    /// the delivered prefix), on the busy clock, and counts the replayed
    /// offers.
    fn restore(&mut self, out: &mut Vec<PacketResult>) -> MergerState {
        let t = Instant::now();
        let mut state = self.snapshot.clone();
        state.apply_all(&self.delta, out);
        state.charge(t);
        self.replayed += self.delta.len() as u64;
        state
    }
}

/// Shared coordination block between merger incarnations, the
/// dispatcher's watchdog, and final assembly.
pub(super) struct MergerShared {
    /// The single receiving end of the merge transport. It must survive
    /// merger deaths — dropping it would disconnect every producer for
    /// good — so incarnations *lease* it from this slot and a panic
    /// returns it on unwind. Possession of the lease is the exclusive
    /// right to append to the WAL, mutate durable state, or checkpoint.
    rx_slot: Mutex<Option<MergeRx>>,
    durable: Mutex<MergerDurable>,
    /// Incarnation generation: bumped by the watchdog to supersede a
    /// wedged incarnation, which then exits cleanly at its next check.
    gen: AtomicU64,
    /// A (non-superseded) incarnation died holding the lease; cleared
    /// when the supervisor respawns one.
    down: AtomicBool,
    /// The stream was fully consumed and folded into `durable`.
    eos: AtomicBool,
    /// Results producers have pushed toward the merge transport.
    pub(super) sent: AtomicU64,
    /// Results the merger side has popped from it.
    recvd: AtomicU64,
}

impl MergerShared {
    pub(super) fn new(rx: MergeRx, use_counter: bool, scr: bool, stateful_work: u32) -> Self {
        Self {
            rx_slot: Mutex::new(Some(rx)),
            durable: Mutex::new(MergerDurable {
                snapshot: MergerState::new(use_counter, scr, stateful_work),
                out: Vec::new(),
                delta: Vec::new(),
                snapshot_bytes: 0,
                checkpoints: 0,
                replayed: 0,
            }),
            gen: AtomicU64::new(0),
            down: AtomicBool::new(false),
            eos: AtomicBool::new(false),
            sent: AtomicU64::new(0),
            recvd: AtomicU64::new(0),
        }
    }

    /// Locks the durable block, recovering from a poisoned mutex: the
    /// WAL protocol keeps `durable` consistent at every instruction
    /// boundary (the injected kill even panics while holding it), so the
    /// poison flag carries no information here.
    fn durable(&self) -> std::sync::MutexGuard<'_, MergerDurable> {
        self.durable.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Folds the live state into the durable block: extend the delivered
    /// prefix, replace the snapshot, clear the WAL. `count` marks a
    /// checkpoint (end of stream folds without counting one).
    fn fold(&self, state: &MergerState, out: &[PacketResult], count: bool) {
        let mut d = self.durable();
        let done = d.out.len();
        d.out.extend_from_slice(&out[done..]);
        d.snapshot = state.clone();
        d.delta.clear();
        if count {
            d.checkpoints += 1;
            d.snapshot_bytes += state.approx_bytes();
        }
    }

    /// Dispatcher-side non-blocking drain of the merge transport into the
    /// WAL, for when no merger incarnation holds the lease (respawn backed
    /// off, budget exhausted, or supervision disabled entirely): producers
    /// keep moving, and whichever consumer comes next — a respawned merger
    /// or final assembly — replays the journaled backlog.
    fn pump(&self) {
        let Some(mut lease) = RxLease::try_take(self) else {
            return; // someone else is consuming; nothing to do
        };
        lease.clean = true; // a pump exit is never a merger death
        loop {
            match lease.rx().recv(Some(Duration::ZERO)) {
                MergeRecv::Item(item) => {
                    self.recvd.fetch_add(1, Ordering::Relaxed);
                    self.durable().delta.push(item);
                }
                MergeRecv::Timeout => break,
                MergeRecv::Disconnected => {
                    // Every producer is gone and the backlog is journaled:
                    // the stream is fully consumed.
                    self.eos.store(true, Ordering::Release);
                    break;
                }
            }
        }
    }

    /// Final assembly, on the caller's thread once every producer and
    /// merger incarnation has exited: restore from the durable block
    /// (the serial-merge degradation path replays the delta log here —
    /// empty after any clean merger end of stream), merge transport
    /// residue a non-blocking pump may have left (every producer is
    /// gone, so this terminates), then, with `flush`, flush whatever loss
    /// left parked. Returns the run's output with the merger's fields
    /// and counters filled in.
    pub(super) fn assemble(self, flush: bool) -> RunOutput {
        let mut d = self.durable.into_inner().unwrap_or_else(|e| e.into_inner());
        let mut out = std::mem::take(&mut d.out);
        let mut state = d.restore(&mut out);
        let t = Instant::now();
        if let Some(mut rx) = self.rx_slot.into_inner().unwrap_or_else(|e| e.into_inner()) {
            let mut backlog = Vec::new();
            while let MergeRecv::Item(item) = rx.recv(None) {
                backlog.push(item);
            }
            state.apply_all(&backlog, &mut out);
        }
        if flush {
            state.flush(&mut out, true);
        }
        state.charge(t);
        let stats = state.stats();
        let mut run = RunOutput::new(out, Duration::ZERO, "");
        run.flushed_mfs = state.flushed_list();
        run.stateful_serial_ns = state.serial_ns;
        run.checkpoints = d.checkpoints;
        let t = &mut run.telemetry;
        t.ooo = state.ooo;
        t.flushed = run.flushed_mfs.len() as u64;
        t.late = stats.late_drops;
        t.dup = stats.dup_drops;
        t.residue = stats.residue;
        t.snapshot_bytes = d.snapshot_bytes;
        t.restore_replayed_offers = d.replayed;
        t.replicated_transitions = state.replicated;
        t.reconciled_dups = if state.scr { stats.dup_drops } else { 0 };
        run
    }
}

/// RAII lease on the merge receiver. Dropping the lease — normally or on
/// panic unwind — returns the receiver to the shared slot; unless the
/// holder marked the exit `clean` (end of stream, supersession, or a
/// dispatcher pump), the drop also reports the incarnation dead.
struct RxLease<'a> {
    shared: &'a MergerShared,
    rx: Option<MergeRx>,
    clean: bool,
}

impl<'a> RxLease<'a> {
    fn try_take(shared: &'a MergerShared) -> Option<Self> {
        let rx = shared
            .rx_slot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()?;
        Some(Self {
            shared,
            rx: Some(rx),
            clean: false,
        })
    }

    fn rx(&mut self) -> &mut MergeRx {
        self.rx
            .as_mut()
            .expect("leased receiver present until drop")
    }
}

impl Drop for RxLease<'_> {
    fn drop(&mut self) {
        *self
            .shared
            .rx_slot
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = self.rx.take();
        if !self.clean {
            self.shared.down.store(true, Ordering::Release);
        }
    }
}

/// What every merger incarnation runs with. `Copy`, so each spawn
/// captures its own.
#[derive(Clone, Copy)]
pub(super) struct Merger<'e> {
    pub(super) shared: &'e MergerShared,
    pub(super) faults: &'e RuntimeFaults,
    pub(super) beats: &'e HeartbeatBoard,
    /// The merger's heartbeat and supervision slot, past the workers'.
    pub(super) slot: usize,
    pub(super) flush_timeout: Option<Duration>,
    /// The failure domain is armed: drains are journaled, checkpoints
    /// taken, and the watchdog tends the merger. On whenever the merger
    /// can actually die or wedge — supervision on, or merger faults
    /// injected. Both force the merge counter, so a passthrough merger
    /// never pays for the write-ahead layer.
    pub(super) wal_on: bool,
    pub(super) checkpoint_every: u64,
}

impl Merger<'_> {
    /// The body of one merger incarnation. Waits for the receiver lease,
    /// restores from the durable block, then runs the receive loop:
    /// drain, journal, then per offer fault checks, apply (which stages
    /// released results) and periodic checkpoint.
    fn run(self, incarnation: u64, my_gen: u64) {
        let Merger {
            shared,
            faults,
            beats,
            slot,
            ..
        } = self;
        let mut lease = loop {
            if shared.gen.load(Ordering::Acquire) != my_gen {
                return; // superseded before acquiring the lease
            }
            if let Some(lease) = RxLease::try_take(shared) {
                break lease;
            }
            // Predecessor still unwinding (or a pump holds the lease): stay
            // visibly alive while waiting.
            beats.bump(slot);
            thread::sleep(Duration::from_micros(50));
        };
        // Restore strictly *after* taking the lease: only then is the delta
        // log guaranteed quiescent (a superseded-but-running predecessor may
        // journal one more drain right up to releasing the receiver). A
        // restore that replayed anything checkpoints at once, so the next
        // window starts empty and no restore ever replays more than one.
        let (mut state, mut out) = {
            let mut d = shared.durable();
            let mut out = d.out.clone();
            let state = d.restore(&mut out);
            let replayed = !d.delta.is_empty();
            drop(d);
            if incarnation > 0 {
                faults.note(FaultEvent::SnapshotRestore { incarnation });
            }
            if replayed {
                shared.fold(&state, &out, true);
            }
            (state, out)
        };
        let mut batch: Vec<Merged> = Vec::new();
        loop {
            if shared.gen.load(Ordering::Acquire) != my_gen {
                lease.clean = true; // superseded: hand over, not a death
                return;
            }
            match lease.rx().recv(self.flush_timeout) {
                MergeRecv::Item(first) => {
                    // Take whatever else is already buffered, up to the drain
                    // cap and never past the next checkpoint boundary. The
                    // whole drain is journaled before any of it is applied, so
                    // a checkpoint mid-drain would clear journaled offers not
                    // yet applied, and a kill after it would lose them.
                    let max = if self.wal_on {
                        let to_boundary =
                            self.checkpoint_every - state.offers % self.checkpoint_every;
                        MERGE_DRAIN_MAX.min(to_boundary as usize)
                    } else {
                        MERGE_DRAIN_MAX
                    };
                    batch.clear();
                    batch.push(first);
                    lease.rx().drain_buffered(&mut batch, max);
                    beats.bump(slot);
                    shared
                        .recvd
                        .fetch_add(batch.len() as u64, Ordering::Relaxed);
                    // Journal before any processing: once in the WAL the
                    // drain survives this incarnation's death — including
                    // the injected one below.
                    if self.wal_on {
                        shared.durable().delta.extend_from_slice(&batch);
                    }
                    // Apply the drain in pieces that each start at an offer
                    // where a merger hook may fire: the kill and stall checks
                    // run per offer number, the engine per piece.
                    let mut t = Instant::now();
                    let mut rest = &batch[..];
                    while !rest.is_empty() {
                        let offer_no = state.offers + 1;
                        if faults.merger_kill_fires(incarnation, offer_no) {
                            faults.note(FaultEvent::MergerDeath { incarnation });
                            panic!("injected merger death (incarnation {incarnation})");
                        }
                        if let Some(ms) = faults.merger_stall_fires(offer_no) {
                            faults.note(FaultEvent::MergerStall { offers: offer_no });
                            state.charge(t);
                            thread::sleep(Duration::from_millis(ms));
                            if shared.gen.load(Ordering::Acquire) != my_gen {
                                // Superseded while wedged. The drain is
                                // already journaled; the successor replays it.
                                lease.clean = true;
                                return;
                            }
                            t = Instant::now();
                        }
                        let last_no = state.offers + rest.len() as u64;
                        let len = faults
                            .next_merger_hook(incarnation, offer_no + 1, last_no)
                            .map_or(rest.len(), |at| (at - offer_no) as usize);
                        let (piece, tail) = rest.split_at(len);
                        state.apply_all(piece, &mut out);
                        rest = tail;
                    }
                    // The drain stops at the next checkpoint boundary, so
                    // only its last offer can land on one.
                    if self.wal_on && state.offers % self.checkpoint_every == 0 {
                        shared.fold(&state, &out, true);
                    }
                    state.charge(t);
                }
                MergeRecv::Timeout => {
                    // An expired recv deadline proves this incarnation is
                    // alive and scheduled — keep the epoch fresh so an
                    // increment-before-send discrepancy from a mid-send
                    // worker death (sent > recvd with an empty transport)
                    // cannot read as a wedge and supersede a healthy
                    // merger once per heartbeat deadline until the shared
                    // restart budget is gone.
                    beats.bump(slot);
                    let t = Instant::now();
                    state.flush(&mut out, false);
                    state.charge(t);
                }
                MergeRecv::Disconnected => break,
            }
        }
        // End of stream: fold everything into the durable block so final
        // assembly starts from a clean snapshot with an empty delta.
        shared.fold(&state, &out, false);
        shared.eos.store(true, Ordering::Release);
        lease.clean = true;
    }
}

/// The merger watchdog: owns every merger incarnation's handle and runs
/// the supervision passes the dispatch loop and the teardown joins call.
/// With the failure domain unarmed (`wal_on` off) every pass is a no-op
/// and the single merger incarnation runs to end of stream on its own.
pub(super) struct MergerWatch<'s, 'e> {
    s: &'s threads::Scope<'s, 'e>,
    merger: Merger<'e>,
    merger_depth: usize,
    supervised: bool,
    handles: Vec<threads::ScopedJoinHandle<'s, ()>>,
}

impl<'s, 'e> MergerWatch<'s, 'e> {
    /// Spawns merger incarnation 0 and returns its watchdog.
    pub(super) fn start(
        s: &'s threads::Scope<'s, 'e>,
        merger: Merger<'e>,
        merger_depth: usize,
        supervised: bool,
    ) -> Self {
        let mut watch = Self {
            s,
            merger,
            merger_depth,
            supervised,
            handles: Vec::new(),
        };
        watch.spawn(0);
        watch
    }

    fn spawn(&mut self, incarnation: u64) {
        let merger = self.merger;
        let my_gen = merger.shared.gen.load(Ordering::Acquire);
        self.handles
            .push(self.s.spawn(move || merger.run(incarnation, my_gen)));
    }

    /// One non-blocking pass: respawn a dead merger from its last
    /// checkpoint (budget and backoff permitting), degrade to WAL
    /// pumping when respawn is off the table, supersede a wedged
    /// incarnation. Called between micro-flows and while joining
    /// workers, so a merger death can never wedge the pipeline.
    pub(super) fn tend(&mut self, sup: &mut Supervisor, frames_done: u64) {
        let Merger { shared, slot, .. } = self.merger;
        if !self.merger.wal_on || shared.eos.load(Ordering::Acquire) {
            return;
        }
        let now = Instant::now();
        let backlog = || {
            shared
                .sent
                .load(Ordering::Relaxed)
                .saturating_sub(shared.recvd.load(Ordering::Relaxed))
        };
        if shared.down.load(Ordering::Acquire) {
            sup.note_death(slot, now, frames_done);
            if self.supervised && sup.allow_respawn(slot, now) {
                let incarnation = sup.on_respawn(slot, now, frames_done);
                self.merger
                    .faults
                    .note(FaultEvent::MergerRespawn { incarnation });
                shared.down.store(false, Ordering::Release);
                self.spawn(incarnation);
            } else if !self.supervised
                || sup.budget_exhausted()
                || backlog() > (self.merger_depth / 2) as u64
            {
                // No respawn is coming (terminal degradation: final
                // assembly performs the serial merge from the WAL), or it
                // is backed off while the backlog approaches transport
                // capacity. Either way journal the backlog so producers
                // never block on a consumerless transport; whoever
                // consumes next replays it.
                shared.pump();
            }
        } else if self.supervised
            && sup.stale(slot, self.merger.beats.read(slot), now)
            && backlog() > 0
        {
            // Wedge: results are queued but the merger's heartbeat has
            // not moved for a full deadline. Supersede the incarnation
            // (it exits cleanly at its next generation check — every
            // journaled offer is safe) and let the next pass respawn
            // from the checkpoint.
            sup.heartbeat_misses += 1;
            shared.gen.fetch_add(1, Ordering::AcqRel);
            shared.down.store(true, Ordering::Release);
        }
    }

    /// Joins one worker handle while keeping the merge stream consumed:
    /// a worker blocked on a full merge transport whose consumer just
    /// died would otherwise deadlock the join. `also` runs on every pass
    /// (the chain-stage watchdog during a staged join).
    pub(super) fn join_tended(
        &mut self,
        h: threads::ScopedJoinHandle<'s, ()>,
        sup: &mut Supervisor,
        frames_done: u64,
        mut also: impl FnMut(&mut Supervisor),
    ) -> thread::Result<()> {
        while self.merger.wal_on && !h.is_finished() {
            self.tend(sup, frames_done);
            also(sup);
            thread::sleep(Duration::from_micros(50));
        }
        h.join()
    }

    /// Runs supervision passes until the stream is fully consumed and
    /// folded into the durable block, then joins every incarnation and
    /// returns how many panicked. Called after every producer has
    /// exited, so each pass makes progress: a live merger drains to
    /// Disconnected, a dead one is respawned or pumped, a wedged one is
    /// superseded — all of which terminate in `eos`.
    pub(super) fn finish(mut self, sup: &mut Supervisor, frames_done: u64) -> usize {
        while self.merger.wal_on && !self.merger.shared.eos.load(Ordering::Acquire) {
            self.tend(sup, frames_done);
            thread::sleep(Duration::from_micros(50));
        }
        self.handles
            .into_iter()
            .map(|h| h.join())
            .filter(Result::is_err)
            .count()
    }
}
