//! The dispatcher: splits the stream into micro-flows, steers each onto
//! a lane under the backpressure policy, and owns every recovery path
//! that starts at dispatch — redispatch of a dead lane's retained
//! window, duplicate and late micro-flows, inline processing.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use mflow::MfTag;

use crate::faults::{FaultEvent, RuntimeFaults};
use crate::packet::Frame;

use super::lane::{LaneTrySend, LaneTx};
use super::worker::{depth_dec, Ctx};
use super::{lock_policy, BackpressurePolicy, Batch, Run, RunOutput, RuntimeConfig, TagLanes};

/// Dispatcher-side view of one worker queue.
pub(super) struct Lane<'f> {
    pub(super) tx: Option<LaneTx<Batch<'f>>>,
    /// Copies of the most recently sent batches (faulty runs only): the
    /// batches that may still sit unprocessed in the queue when the
    /// worker dies, and must be redispatched. Capacity `queue_depth + 2`
    /// covers the full queue, the batch in the worker's hands, and the
    /// one that bounced.
    pub(super) recent: VecDeque<Batch<'f>>,
    /// Merge-counter lane id stamped on batches routed here. Initially
    /// the slot index; a supervisor respawn moves it to a fresh id so
    /// results a replaced (but still draining) incarnation emits can
    /// never interleave with the new incarnation's on one tag lane —
    /// the merger's per-lane FIFO assumption holds by construction.
    pub(super) tag_lane: usize,
}

/// Outcome of a non-blocking send attempt.
enum SendAttempt<'f> {
    /// Enqueued (or rerouted through the dead-lane machinery).
    Sent,
    /// The queue was full; the batch comes back untouched.
    Full(Batch<'f>),
}

/// What the dispatcher counted over the run.
#[derive(Default)]
pub(super) struct DispatchCounters {
    /// Batches redispatched after a worker death or stall.
    pub(super) redispatched: u64,
    /// Packets the fault plan deleted at dispatch.
    pub(super) fault_drops: u64,
    /// Packets `DropTail` shed.
    pub(super) shed_packets: u64,
    /// Each shed batch as `(micro-flow id, lane)`.
    pub(super) sheds: Vec<(u64, usize)>,
    pub(super) inline_batches: u64,
    pub(super) inline_packets: u64,
    /// Times `DropTail` exhausted its budget and fell back to blocking.
    pub(super) block_fallbacks: u64,
    /// Times the backpressure policy engaged.
    pub(super) backpressure_events: u64,
}

/// Everything the dispatcher tracks while the stream is in flight.
/// `'a` borrows the run's shared counters, `'f` the caller's frames,
/// which outlive them.
pub(super) struct Dispatcher<'a, 'f> {
    lanes: Vec<Lane<'f>>,
    batch_size: usize,
    retain: usize,
    /// Fresh tag lanes for recovery sends and revived slots, drawn from
    /// the allocator the chain stages share.
    tag_lanes: &'a TagLanes,
    /// Physical worker round-robin cursor for recovery sends.
    next_worker: usize,
    /// Per-lane queue depth in batches, the watermark signal
    /// backpressure decisions read.
    depths: &'a [AtomicUsize],
    policy: BackpressurePolicy,
    high_watermark: Option<usize>,
    inline_fallback: bool,
    /// Packets `DropTail` may still shed.
    shed_budget_left: u64,
    counters: DispatchCounters,
    /// Chain mode: batches that lost their only reachable worker are
    /// handed back for inline processing instead of being dropped (the
    /// chain has exactly one entry lane, so "no live worker" does not
    /// mean the pipeline is dead — the dispatcher itself still is).
    orphan_inline: bool,
    orphans: Vec<Batch<'f>>,
}

impl<'a, 'f> Dispatcher<'a, 'f> {
    pub(super) fn new(
        lanes: Vec<Lane<'f>>,
        faults: &RuntimeFaults,
        cfg: &RuntimeConfig,
        depths: &'a [AtomicUsize],
        tag_lanes: &'a TagLanes,
        orphan_inline: bool,
    ) -> Self {
        Self {
            lanes,
            batch_size: cfg.batch_size,
            // Supervised runs retain too: a stall-respawn needs the
            // window to redispatch even when no fault injector is wired.
            retain: if faults.is_active() || cfg.supervised() {
                cfg.queue_depth + 2
            } else {
                0
            },
            tag_lanes,
            next_worker: 0,
            depths,
            policy: cfg.backpressure,
            high_watermark: cfg.high_watermark,
            inline_fallback: cfg.inline_fallback,
            shed_budget_left: match cfg.backpressure {
                BackpressurePolicy::DropTail { budget } => budget,
                _ => 0,
            },
            counters: DispatchCounters::default(),
            orphan_inline,
            orphans: Vec::new(),
        }
    }

    /// Marks a lane dead and zeroes its depth counter: batches still
    /// queued there will never be dequeued, so leaving the count in
    /// place would feed phantom load into every aggregate-occupancy
    /// signal (watermarks, engagement counters) for the rest of the run.
    fn mark_dead(&mut self, lane: usize) -> VecDeque<Batch<'f>> {
        self.lanes[lane].tx = None;
        self.depths[lane].store(0, Ordering::Relaxed);
        std::mem::take(&mut self.lanes[lane].recent)
    }

    /// Whether the lane currently has no live worker attached.
    pub(super) fn lane_dead(&self, lane: usize) -> bool {
        self.lanes[lane].tx.is_none()
    }

    /// Fails a lane the watchdog declared stalled: marks it dead and
    /// redispatches its retained window, exactly as a bounced send
    /// would. The stalled worker may still be alive and drain its queue
    /// later — the merge counter rejects those re-deliveries as
    /// duplicates.
    pub(super) fn fail_lane(&mut self, lane: usize) {
        let window = self.mark_dead(lane);
        let pending = window
            .into_iter()
            .filter_map(|lost| self.reroute(lost, false))
            .collect();
        self.pump(pending);
    }

    /// Re-occupies a dead slot with a freshly spawned worker's lane:
    /// installs the new sender, clears the retained window (the old one
    /// was redispatched at death), resets the depth counter, and moves
    /// the tag lane to a fresh id (see [`Lane::tag_lane`]).
    pub(super) fn revive(&mut self, lane: usize, tx: LaneTx<Batch<'f>>) {
        self.lanes[lane].tx = Some(tx);
        self.lanes[lane].recent.clear();
        self.lanes[lane].tag_lane = self.tag_lanes.fresh();
        self.depths[lane].store(0, Ordering::Relaxed);
    }

    /// Sends `batch` to worker `lane`, redispatching on failure.
    fn send(&mut self, lane: usize, batch: Batch<'f>) {
        self.pump(vec![(lane, batch, false)]);
    }

    /// Drains a pending send list iteratively: a redispatch target may
    /// itself be dead, bouncing the batch again.
    fn pump(&mut self, mut pending: Vec<(usize, Batch<'f>, bool)>) {
        while let Some((lane, batch, is_recovery)) = pending.pop() {
            let Some(tx) = self.lanes[lane].tx.as_mut() else {
                // Known-dead lane: reroute to a live worker directly.
                pending.extend(self.reroute(batch, is_recovery));
                continue;
            };
            // Count the batch as queued *before* publishing it: worker
            // decrements are saturating, so one observed before its
            // increment would be lost for good. (A bounced send leaves
            // the counter inflated only until `mark_dead` zeroes it.)
            self.depths[lane].fetch_add(1, Ordering::Relaxed);
            if let Err(batch) = tx.send(batch) {
                // The worker died: everything it still held is lost.
                // Redispatch its retained window plus this batch. The
                // window always moves to fresh recovery lanes, even
                // when the bounced batch was itself a recovery send:
                // the dead worker may already have emitted part of
                // it, and a second copy on the same tag lane would
                // be merged as a continuation of the first (a copy
                // missing its closing packet never closes, so the
                // counter would release its packets twice). Only the
                // bounced batch, which no worker received, keeps its
                // tags.
                let window = self.mark_dead(lane);
                for lost in window {
                    pending.extend(self.reroute(lost, false));
                }
                pending.extend(self.reroute(batch, is_recovery));
            }
        }
    }

    /// Sends a batch, keeping a copy in the lane's retained window first
    /// (faulty runs only). The copy holds frame references, not frames.
    pub(super) fn send_retained(&mut self, lane: usize, batch: Batch<'f>) {
        if self.retain > 0 && self.lanes[lane].tx.is_some() {
            self.remember(lane, batch.clone());
        }
        self.send(lane, batch);
    }

    fn remember(&mut self, lane: usize, batch: Batch<'f>) {
        let recent = &mut self.lanes[lane].recent;
        if recent.len() == self.retain {
            recent.pop_front();
        }
        recent.push_back(batch);
    }

    /// Offers `batch` to worker `lane` under the backpressure policy.
    /// Returns the batch when the policy decided the *caller* must
    /// process it inline on the dispatcher thread.
    fn offer(&mut self, lane: usize, batch: Batch<'f>) -> Option<Batch<'f>> {
        if self.lanes[lane].tx.is_some() {
            if let Some(w) = self.high_watermark {
                if self.depths[lane].load(Ordering::Relaxed) >= w {
                    self.counters.backpressure_events += 1;
                    return self.apply_policy(lane, batch);
                }
            }
        }
        match self.try_send_now(lane, batch) {
            SendAttempt::Sent => None,
            SendAttempt::Full(batch) => {
                self.counters.backpressure_events += 1;
                self.apply_policy(lane, batch)
            }
        }
    }

    /// Non-blocking send with the same dead-lane recovery as [`send`].
    ///
    /// [`send`]: Dispatcher::send
    fn try_send_now(&mut self, lane: usize, batch: Batch<'f>) -> SendAttempt<'f> {
        if self.lanes[lane].tx.is_none() {
            // Known-dead lane: the blocking path already reroutes without
            // ever waiting.
            self.send(lane, batch);
            return SendAttempt::Sent;
        }
        let copy = if self.retain > 0 {
            Some(batch.clone())
        } else {
            None
        };
        let tx = self.lanes[lane].tx.as_mut().expect("lane checked live");
        // Increment-before-send, as in `pump`: saturating worker-side
        // decrements must never race ahead of the increment.
        self.depths[lane].fetch_add(1, Ordering::Relaxed);
        match tx.try_send(batch) {
            LaneTrySend::Sent => {
                if let Some(c) = copy {
                    self.remember(lane, c);
                }
                SendAttempt::Sent
            }
            LaneTrySend::Full(b) => {
                // Nothing was enqueued; take the provisional count back.
                depth_dec(&self.depths[lane]);
                SendAttempt::Full(b)
            }
            LaneTrySend::Closed(b) => {
                // Route through the blocking path: its send error handler
                // marks the lane dead and redispatches the retained
                // window plus this batch.
                self.send(lane, b);
                SendAttempt::Sent
            }
        }
    }

    /// The policy decision for a saturated lane. `None` means the batch
    /// was handled (sent, blocked-and-sent, or shed); `Some` hands it
    /// back for inline processing.
    fn apply_policy(&mut self, lane: usize, batch: Batch<'f>) -> Option<Batch<'f>> {
        match self.policy {
            BackpressurePolicy::Block => {
                self.send_retained(lane, batch);
                None
            }
            BackpressurePolicy::DropTail { .. } => {
                let n = batch.len() as u64;
                if self.shed_budget_left >= n && n > 0 {
                    self.shed_budget_left -= n;
                    self.counters.shed_packets += n;
                    if let Some((tag, _)) = batch.first() {
                        self.counters.sheds.push((tag.id, lane));
                    }
                    None
                } else if self.inline_fallback {
                    Some(batch)
                } else {
                    self.counters.block_fallbacks += 1;
                    self.send_retained(lane, batch);
                    None
                }
            }
            BackpressurePolicy::Inline => Some(batch),
        }
    }

    /// Retags a lost batch onto a fresh recovery lane and targets the
    /// next live worker. Returns `None` when no workers are left — in
    /// chain mode the batch is parked for inline processing instead of
    /// being dropped.
    fn reroute(
        &mut self,
        mut batch: Batch<'f>,
        was_recovery: bool,
    ) -> Option<(usize, Batch<'f>, bool)> {
        let Some(target) = self.pick_live_worker() else {
            if self.orphan_inline {
                self.orphans.push(batch);
            }
            return None;
        };
        if !was_recovery {
            // (A recovery batch already rides a unique lane; it keeps
            // its tags.)
            self.tag_lanes.retag(&mut batch);
        }
        self.counters.redispatched += 1;
        Some((target, batch, true))
    }

    fn pick_live_worker(&mut self) -> Option<usize> {
        let n = self.lanes.len();
        for _ in 0..n {
            let w = self.next_worker % n;
            self.next_worker = (self.next_worker + 1) % n;
            if self.lanes[w].tx.is_some() {
                return Some(w);
            }
        }
        None
    }

    /// Sends a recovery-tagged copy of `batch` to the next live worker
    /// (parked for inline processing in chain mode when none is left).
    fn send_recovery(&mut self, mut batch: Batch<'f>) {
        self.tag_lanes.retag(&mut batch);
        if let Some(target) = self.pick_live_worker() {
            self.send(target, batch);
        } else if self.orphan_inline {
            self.orphans.push(batch);
        }
    }

    /// Processes a batch on the dispatcher thread: one the policy handed
    /// back, or an orphan. It rides a fresh recovery lane, so the
    /// merger's per-lane FIFO assumption holds (earlier batches for its
    /// original lane may still sit in a worker's queue).
    fn process_inline(&mut self, ctx: Ctx<'_, 'f>, tx: &mut LaneTx<Run>, mut batch: Batch<'f>) {
        self.tag_lanes.retag(&mut batch);
        self.counters.inline_batches += 1;
        self.counters.inline_packets += batch.len() as u64;
        let _ = ctx.publish(tx, ctx.run_batch(batch));
    }

    /// Ends dispatch: dropping the senders lets workers drain and exit.
    /// Returns the counters.
    pub(super) fn finish(self) -> DispatchCounters {
        self.counters
    }
}

impl DispatchCounters {
    /// Writes the dispatcher's counters into the run's output.
    pub(super) fn report(self, run: &mut RunOutput) {
        run.inline_batches = self.inline_batches;
        run.block_fallbacks = self.block_fallbacks;
        run.backpressure_events = self.backpressure_events;
        run.sheds = self.sheds;
        let t = &mut run.telemetry;
        t.shed = self.shed_packets;
        t.inline = self.inline_packets;
        t.redispatched = self.redispatched;
        t.fault_drops = self.fault_drops;
    }
}

/// The dispatch loop — this thread plays the IRQ core's first half.
/// Groups `frames` into micro-flows of the batch size, applies the
/// dispatch-time faults, asks the policy for each micro-flow's lane and
/// offers it under the backpressure policy. Batches handed back, by the
/// policy or orphaned with no reachable worker, are processed inline and
/// published through `tx`. `tend` runs the watchdog passes once per
/// dispatched micro-flow, between batches.
pub(super) fn dispatch<'f>(
    d: &mut Dispatcher<'_, 'f>,
    frames: &'f [Frame],
    ctx: Ctx<'_, 'f>,
    mut tx: LaneTx<Run>,
    mut tend: impl FnMut(&mut Dispatcher<'_, 'f>, u64),
) {
    let (faults, batch_size) = (ctx.faults, d.batch_size);
    let n_lanes = d.lanes.len();
    let mut mf_id = 0u64;
    let mut lane = 0usize;
    let mut tag_lane = 0usize;
    let mut cur_hash = 0u32;
    let mut depth_snap = vec![0usize; n_lanes];
    let mut batch: Batch<'f> = Vec::with_capacity(batch_size);
    let mut delayed: Vec<(u64, Batch<'f>)> = Vec::new();
    let n = frames.len();
    for (i, frame) in frames.iter().enumerate() {
        let last = batch.len() + 1 == batch_size || i + 1 == n;
        if faults.drops_packet(mf_id, frame.seq, last) {
            faults.note(FaultEvent::Drop {
                mf_id,
                seq: frame.seq,
            });
            d.counters.fault_drops += 1;
        } else {
            if batch.is_empty() {
                // A micro-flow opens: ask the policy for its lane,
                // with a fresh view of per-lane occupancy. The tag
                // carries the lane's merge-counter id, which diverges
                // from the physical slot after a respawn. Under
                // packet-request dispatch the frame bytes stay
                // untouched here: steering sees a constant surrogate
                // hash, so flow-affine policies pin the stream to one
                // lane (per-lane FIFO preserves order) and the real
                // hash is computed by the worker that parses.
                cur_hash = if ctx.pkt_req { 0 } else { frame.flow_hash() };
                for (snap, depth) in depth_snap.iter_mut().zip(d.depths.iter()) {
                    *snap = depth.load(Ordering::Relaxed);
                }
                lane = lock_policy(ctx.policy)
                    .steer(mf_id, cur_hash, &depth_snap)
                    .min(n_lanes - 1);
                tag_lane = d.lanes[lane].tag_lane;
            }
            batch.push((
                MfTag {
                    id: mf_id,
                    lane: tag_lane,
                    last,
                },
                frame,
            ));
        }
        if !last {
            continue;
        }
        let full = std::mem::take(&mut batch);
        batch.reserve(batch_size);
        if !full.is_empty() {
            let placed = full.len();
            if faults.is_active() && faults.delays_mf(mf_id) {
                // Held back: will be redispatched on a recovery
                // lane `late_by` batches from now.
                faults.note(FaultEvent::LateMf { mf_id });
                delayed.push((mf_id + faults.late_by.max(1), full));
            } else if faults.is_active() && faults.duplicates_mf(mf_id) {
                faults.note(FaultEvent::DupMf { mf_id });
                d.send_retained(lane, full.clone());
                d.send_recovery(full);
            } else if let Some(b) = d.offer(lane, full) {
                d.process_inline(ctx, &mut tx, b);
            }
            // Completion feedback: the policy hears what it placed
            // (rate accounting for elephant detection). In
            // packet-request mode that feedback comes from whichever
            // thread parses the batch — a worker, or the dispatcher's
            // own inline path — with the real flow hash.
            if !ctx.pkt_req {
                lock_policy(ctx.policy).observe(mf_id, cur_hash, lane, placed);
            }
        }
        let mut k = 0;
        while k < delayed.len() {
            if delayed[k].0 <= mf_id {
                let (_, due) = delayed.remove(k);
                d.send_recovery(due);
            } else {
                k += 1;
            }
        }
        tend(d, i as u64 + 1);
        for b in std::mem::take(&mut d.orphans) {
            d.process_inline(ctx, &mut tx, b);
        }
        mf_id += 1;
    }
    // Anything still held back goes out now, late but present.
    for (_, b) in delayed {
        d.send_recovery(b);
    }
    for b in std::mem::take(&mut d.orphans) {
        d.process_inline(ctx, &mut tx, b);
    }
}
