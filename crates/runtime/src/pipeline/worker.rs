//! Worker threads: the one worker loop, the per-kind steps it runs
//! (fan-out worker, FALCON chain head, interior/tail chain stage), the
//! chain links between stages, and the [`Crew`] that spawns every worker
//! incarnation and runs the worker watchdog.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use mflow::MfTag;

use crate::faults::{FaultEvent, RuntimeFaults};
use crate::supervise::{HeartbeatBoard, Supervisor};
use crate::threads;
use crate::work::{process_frame, stateful_stage, PacketResult, StagedWork};

use super::dispatch::{Dispatcher, Lane};
use super::lane::{spsc_lane, LaneRx, LaneTx, MergeWiring};
use super::merger::MergerWatch;
use super::{lock_policy, Batch, PolicyCell, Run, RuntimeConfig, StageBatch, TagLanes, Transport};

/// The run-wide shared state every worker incarnation (and the
/// dispatcher's inline path) works against. `Copy`: each spawn captures
/// its own.
#[derive(Clone, Copy)]
pub(super) struct Ctx<'e, 'f> {
    pub(super) faults: &'e RuntimeFaults,
    pub(super) beats: &'e HeartbeatBoard,
    /// Results pushed toward the merge transport, counted before each
    /// publish so the merger watchdog's backlog signal (`sent - recvd`)
    /// never under-reports.
    pub(super) sent: &'e AtomicU64,
    /// Per-dispatcher-lane queue depth in batches: incremented by the
    /// dispatcher on every send, decremented by the worker as it
    /// dequeues.
    pub(super) depths: &'e [AtomicUsize],
    /// Under SCR, the rounds of the lane-replicated stateful stage;
    /// `None` under merge-before-tcp (the merger runs the stage there).
    pub(super) scr_work: Option<u32>,
    pub(super) chain: ChainCtx<'e, 'f>,
    /// Stage group sizes, one per chain worker (empty in fan-out mode).
    pub(super) groups: &'e [usize],
    /// The steering policy: the dispatcher steers through it and, under
    /// packet-request dispatch (`pkt_req`), whichever thread parses a
    /// batch feeds the observation back through it.
    pub(super) policy: &'e PolicyCell,
    pub(super) pkt_req: bool,
    pub(super) tag_lanes: &'e TagLanes,
}

/// One re-wireable FALCON chain link: the sender feeding the next stage.
/// Lives in a shared slot (instead of being owned by the upstream
/// worker) so the watchdog can swap in a fresh link when the downstream
/// stage is respawned — re-homing the stage onto the new worker. The
/// generation counter invalidates senders taken out before a re-wire.
pub(super) struct ChainSlot<'f> {
    pub(super) gen: u64,
    pub(super) tx: Option<LaneTx<StageBatch<'f>>>,
}

/// Shared chain state every stage worker (and the watchdog) sees.
/// `slots[i]` / `dead_gens[i+1]` / `link_depths[i+1]` describe the link
/// from stage `i` to stage `i+1`; the tail's slot stays empty forever.
#[derive(Clone, Copy)]
pub(super) struct ChainCtx<'a, 'f> {
    /// `slots[i]`: sender into stage `i + 1` (tail: always `None`).
    pub(super) slots: &'a [Mutex<ChainSlot<'f>>],
    /// `link_depths[i]`: staged batches queued into stage `i` (index 0
    /// unused — the head's backlog is the dispatcher lane depth).
    pub(super) link_depths: &'a [AtomicUsize],
    /// `dead_gens[i]`: generation at which stage `i` was observed dead
    /// (`u64::MAX` = no pending death signal). The watchdog only honors
    /// a signal matching the link's current generation, so stale
    /// discoveries of an already-replaced link are ignored.
    pub(super) dead_gens: &'a [AtomicU64],
}

impl<'f> ChainCtx<'_, 'f> {
    fn link(&self, slot: usize) -> MutexGuard<'_, ChainSlot<'f>> {
        self.slots[slot].lock().expect("chain slot lock")
    }
}

/// What a worker incarnation consumes: its dispatcher lane (a fan-out
/// worker, or the chain head), or — for an interior or tail chain stage
/// — its upstream link, wired at the given generation.
pub(super) enum Intake<'f> {
    Lane(LaneRx<Batch<'f>>),
    Link(LaneRx<StageBatch<'f>>, u64),
}

/// Saturating depth decrement: a replaced-but-still-draining incarnation
/// may decrement after the watchdog reset the counter to zero; clamping
/// keeps the occupancy signal from wrapping to a phantom huge backlog.
pub(super) fn depth_dec(depth: &AtomicUsize) {
    let _ = depth.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_sub(1))
    });
}

/// Applies the injected per-worker faults for one received batch;
/// panics for an injected death (caught and counted at join).
fn apply_worker_faults(
    faults: &RuntimeFaults,
    worker: usize,
    incarnation: u64,
    processed: u64,
    first_mf: Option<u64>,
) {
    if faults.kill_fires(worker, incarnation, processed) {
        faults.note(FaultEvent::Kill {
            worker,
            incarnation,
        });
        // The injected death: an abrupt panic that drops the queues.
        panic!("injected worker death");
    }
    if let Some(stall) = faults.lane_stall {
        if stall.worker == worker {
            // Sustained pressure: every batch pays.
            thread::sleep(Duration::from_millis(stall.ms));
        }
    }
    if let Some(slow) = faults.slow_worker {
        if slow.worker == worker {
            thread::sleep(Duration::from_micros(slow.per_batch_us));
        }
    }
    if let Some(id) = first_mf {
        if faults.stalls_on(id) {
            faults.note(FaultEvent::Stall { worker, mf_id: id });
            thread::sleep(Duration::from_millis(faults.stall_ms));
        }
    }
}

/// Applies the lane-replicated stateful stage under SCR (`scr_work`);
/// identity under merge-before-tcp.
fn apply_scr(r: PacketResult, scr_work: Option<u32>) -> PacketResult {
    match scr_work {
        Some(units) => stateful_stage(r, units),
        None => r,
    }
}

impl<'f> Ctx<'_, 'f> {
    /// Full per-packet work over one micro-flow, on whichever thread
    /// stands in for its lane: a fan-out worker, or the dispatcher's
    /// inline path. Under packet-request dispatch this thread is the
    /// first to read the frame bytes, so it performs the flow-hash and
    /// steering feedback the dispatcher deferred.
    pub(super) fn run_batch(self, batch: Batch<'f>) -> Run {
        if self.pkt_req {
            if let Some((tag, frame)) = batch.first() {
                let hash = frame.try_flow_hash().unwrap_or(0);
                lock_policy(self.policy).observe(tag.id, hash, tag.lane, batch.len());
            }
        }
        let scr_work = self.scr_work;
        batch
            .into_iter()
            .map(|(tag, frame)| (tag, apply_scr(process_frame(frame), scr_work)))
            .collect()
    }

    /// Counts a micro-flow's results in `sent`, then publishes them as
    /// one run (the merge side pays one handoff per micro-flow). Empty
    /// runs are not sent. `Err` when the merger is gone.
    pub(super) fn publish(self, tx: &mut LaneTx<Run>, run: Run) -> Result<(), ()> {
        if run.is_empty() {
            return Ok(());
        }
        self.sent.fetch_add(run.len() as u64, Ordering::Relaxed);
        tx.send(run).map_err(drop)
    }

    /// Forwards a staged batch from chain stage `slot` to the next one.
    /// The tail completes every remaining stage and publishes. Any other
    /// stage whose next hop is cut or dead does the same, on a fresh tag
    /// lane: the next hop, stalled or dead, may still hold (and, if
    /// stalled, later emit) older batches of the batch's lane, and the
    /// merger's per-lane FIFO must hold. `Err` when the merger is gone.
    fn forward(
        self,
        slot: usize,
        merge: &mut LaneTx<Run>,
        mut staged: StageBatch<'f>,
    ) -> Result<(), ()> {
        if slot + 1 < self.chain.slots.len() {
            match self.send_down(slot, staged) {
                Ok(()) => return Ok(()),
                Err(back) => staged = back,
            }
            self.tag_lanes.retag(&mut staged);
        }
        let scr_work = self.scr_work;
        let run = staged
            .into_iter()
            .map(|(tag, w)| (tag, apply_scr(w.complete(), scr_work)))
            .collect();
        self.publish(merge, run)
    }

    /// Sends a staged batch over link `slot` into stage `slot + 1`; hands
    /// it back when the link is cut or the next stage is dead. A death
    /// discovery is flagged (keyed by link generation) for the watchdog.
    /// A batch crossing a re-wired link (generation above 0) moves to a
    /// fresh tag lane, since the stage it replaces may still emit older
    /// batches of its lane.
    fn send_down(self, slot: usize, mut staged: StageBatch<'f>) -> Result<(), StageBatch<'f>> {
        let (gen, tx) = {
            let mut link = self.chain.link(slot);
            (link.gen, link.tx.take())
        };
        let Some(mut tx) = tx else {
            return Err(staged);
        };
        if gen > 0 {
            self.tag_lanes.retag(&mut staged);
        }
        // Count the batch as queued before publishing it, so the downstream
        // decrement can never observe the counter early.
        let depth = &self.chain.link_depths[slot + 1];
        depth.fetch_add(1, Ordering::Relaxed);
        let sent = tx.send(staged);
        let mut link = self.chain.link(slot);
        match sent {
            Ok(()) => {
                // If the generation moved, the watchdog re-wired or cut
                // this link while the send was in flight; the taken-out
                // sender is dropped here. What it carried stays with the
                // replaced stage: emitted if that stage is merely
                // stalled, flushed by the merge counter if it died.
                if link.gen == gen {
                    link.tx = Some(tx);
                }
                Ok(())
            }
            Err(bounced) => {
                depth_dec(depth);
                self.chain.dead_gens[slot + 1].store(gen, Ordering::Release);
                if link.gen == gen {
                    link.tx = None;
                }
                Err(bounced)
            }
        }
    }

    /// The one worker loop: receive a batch, count it off the queue
    /// depth, bump the heartbeat, apply injected faults, then run the
    /// kind's `step`. Exits at end of stream, or when `step` reports the
    /// merger gone.
    fn work<B>(
        self,
        slot: usize,
        incarnation: u64,
        mut rx: LaneRx<Vec<(MfTag, B)>>,
        depth: &AtomicUsize,
        mut step: impl FnMut(Vec<(MfTag, B)>) -> Result<(), ()>,
    ) {
        let mut processed = 0u64;
        while let Some(batch) = rx.recv() {
            depth_dec(depth);
            self.beats.bump(slot);
            let first = batch.first().map(|(t, _)| t.id);
            apply_worker_faults(self.faults, slot, incarnation, processed, first);
            if step(batch).is_err() {
                return;
            }
            processed += 1;
        }
    }

    /// One worker incarnation's whole life, picking the kind's step: a
    /// fan-out worker does the full per-packet work and publishes; the
    /// chain head applies the first stage group to dispatcher batches
    /// and forwards; an interior or tail stage applies its group to
    /// staged batches and forwards.
    pub(super) fn serve(
        self,
        slot: usize,
        incarnation: u64,
        intake: Intake<'f>,
        mut tx: LaneTx<Run>,
    ) {
        match intake {
            Intake::Lane(rx) => match self.groups.first() {
                None => self.work(slot, incarnation, rx, &self.depths[slot], |batch| {
                    self.publish(&mut tx, self.run_batch(batch))
                }),
                Some(&group) => self.work(slot, incarnation, rx, &self.depths[slot], |batch| {
                    let staged = batch
                        .into_iter()
                        .map(|(tag, frame)| (tag, StagedWork::Raw(frame).advance_n(group)))
                        .collect();
                    self.forward(slot, &mut tx, staged)
                }),
            },
            Intake::Link(rx, link_gen) => {
                let _death = StageDeathFlag {
                    flag: &self.chain.dead_gens[slot],
                    link_gen,
                };
                let group = self.groups[slot];
                self.work(
                    slot,
                    incarnation,
                    rx,
                    &self.chain.link_depths[slot],
                    |staged| {
                        let staged = staged
                            .into_iter()
                            .map(|(tag, w)| (tag, w.advance_n(group)))
                            .collect();
                        self.forward(slot, &mut tx, staged)
                    },
                );
            }
        }
    }
}

/// Announces a chain stage's death to the watchdog as its incarnation
/// unwinds, keyed by the generation of the link it was wired to, so the
/// death is seen even when the upstream has nothing more to forward (a
/// bounced forward is then the only other signal, and it may never
/// come). A stale generation is ignored like any other stale signal.
struct StageDeathFlag<'a> {
    flag: &'a AtomicU64,
    link_gen: u64,
}

impl Drop for StageDeathFlag<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.flag.store(self.link_gen, Ordering::Release);
        }
    }
}

/// The worker pool of one run: spawns every worker incarnation, runs the
/// worker watchdog, and joins the pool at teardown.
pub(super) struct Crew<'s, 'e, 'f> {
    s: &'s threads::Scope<'s, 'e>,
    ctx: Ctx<'e, 'f>,
    transport: Transport,
    queue_depth: usize,
    /// Whether the watchdog runs at all (heartbeats or respawns on).
    supervised: bool,
    /// Mints a merge sender per spawned incarnation. The merger sees end
    /// of stream only once it is gone, so teardown drops it as soon as
    /// no stage can be healed any more (see [`Crew::join`]).
    wiring: Option<MergeWiring>,
    /// Handles tagged with their slot, so join-time panics are
    /// attributed per slot even after respawns reorder the list.
    handles: Vec<(usize, threads::ScopedJoinHandle<'s, ()>)>,
}

impl<'s, 'e, 'f> Crew<'s, 'e, 'f> {
    /// Wires and spawns incarnation 0 of every worker: one per dispatcher
    /// lane (the "splitting cores" in fan-out mode, the chain head in
    /// chain mode), then one per interior or tail chain stage, each fed
    /// through a shared, re-wireable link. Returns the dispatcher's lanes.
    pub(super) fn start(
        s: &'s threads::Scope<'s, 'e>,
        ctx: Ctx<'e, 'f>,
        cfg: &RuntimeConfig,
        supervised: bool,
        wiring: MergeWiring,
    ) -> (Self, Vec<Lane<'f>>) {
        let mut crew = Self {
            s,
            ctx,
            transport: cfg.transport,
            queue_depth: cfg.queue_depth,
            supervised,
            wiring: Some(wiring),
            handles: Vec::new(),
        };
        let lanes = (0..ctx.depths.len())
            .map(|slot| {
                let (tx, rx) = spsc_lane(crew.transport, crew.queue_depth);
                crew.spawn(slot, 0, Intake::Lane(rx));
                Lane {
                    tx: Some(tx),
                    recent: VecDeque::new(),
                    tag_lane: slot,
                }
            })
            .collect();
        for slot in 1..ctx.groups.len() {
            let (tx, rx) = spsc_lane(crew.transport, crew.queue_depth);
            ctx.chain.link(slot - 1).tx = Some(tx);
            crew.spawn(slot, 0, Intake::Link(rx, 0));
        }
        (crew, lanes)
    }

    /// The one spawn path, for first incarnations and respawns alike.
    fn spawn(&mut self, slot: usize, incarnation: u64, intake: Intake<'f>) {
        let wiring = self.wiring.as_ref().expect("wiring held while spawning");
        let tx = wiring.new_tx();
        let ctx = self.ctx;
        let h = self
            .s
            .spawn(move || ctx.serve(slot, incarnation, intake, tx));
        self.handles.push((slot, h));
    }

    /// The worker watchdog pass, once per dispatched micro-flow (between
    /// batches, never mid-batch, so a revived lane's fresh tag id cannot
    /// split one micro-flow across ids). Every dispatcher lane's worker
    /// — fan-out worker or chain head — is watched through its lane: a
    /// stale heartbeat while work is queued (an idle worker's epoch is
    /// legitimately still) fails the lane once, exactly as a bounced
    /// send would, and a dead lane is respawned when the budget allows.
    /// Then the chain stages.
    pub(super) fn tend(
        &mut self,
        d: &mut Dispatcher<'_, 'f>,
        sup: &mut Supervisor,
        frames_done: u64,
    ) {
        if !self.supervised {
            return;
        }
        let now = Instant::now();
        for slot in 0..self.ctx.depths.len() {
            if !d.lane_dead(slot)
                && sup.stale(slot, self.ctx.beats.read(slot), now)
                && self.ctx.depths[slot].load(Ordering::Relaxed) > 0
            {
                sup.heartbeat_misses += 1;
                d.fail_lane(slot);
            }
            if d.lane_dead(slot) {
                sup.note_death(slot, now, frames_done);
                if sup.allow_respawn(slot, now) {
                    let (tx, rx) = spsc_lane(self.transport, self.queue_depth);
                    let incarnation = sup.on_respawn(slot, now, frames_done);
                    d.revive(slot, tx);
                    self.spawn(slot, incarnation, Intake::Lane(rx));
                }
            }
        }
        self.tend_stages(sup, 1, frames_done);
    }

    /// One pass over chain stages `first..` (`first >= 1`: the head is
    /// watched through its dispatcher lane). Each stage is watched
    /// through its upstream link. A death is flagged by the upstream's
    /// bounced send or by the dying stage itself (generation-matched),
    /// or declared here on a stale heartbeat with work queued on the
    /// link. Declaring cuts the link, so the upstream completes batches
    /// locally, and records the death at the new generation, so later
    /// passes only retry the respawn: one miss per stalled incarnation.
    /// A dead stage is re-homed onto a fresh link, merger sender and
    /// incarnation when the restart budget allows.
    fn tend_stages(&mut self, sup: &mut Supervisor, first: usize, frames_done: u64) {
        if self.wiring.is_none() {
            return; // teardown of a run that heals no stage
        }
        let chain = self.ctx.chain;
        let now = Instant::now();
        for slot in first..self.ctx.groups.len() {
            let mut link = chain.link(slot - 1);
            if chain.dead_gens[slot].load(Ordering::Acquire) != link.gen {
                if !sup.stale(slot, self.ctx.beats.read(slot), now)
                    || chain.link_depths[slot].load(Ordering::Relaxed) == 0
                {
                    continue;
                }
                sup.heartbeat_misses += 1;
                link.gen += 1;
                link.tx = None;
                chain.dead_gens[slot].store(link.gen, Ordering::Release);
            }
            sup.note_death(slot, now, frames_done);
            if !sup.allow_respawn(slot, now) {
                continue;
            }
            // Re-home the stage: fresh link, fresh merger sender, new
            // incarnation. The generation bump invalidates any old
            // sender still in flight upstream.
            let (tx, rx) = spsc_lane(self.transport, self.queue_depth);
            link.gen += 1;
            link.tx = Some(tx);
            let link_gen = link.gen;
            drop(link);
            chain.link_depths[slot].store(0, Ordering::Relaxed);
            chain.dead_gens[slot].store(u64::MAX, Ordering::Release);
            let incarnation = sup.on_respawn(slot, now, frames_done);
            self.spawn(slot, incarnation, Intake::Link(rx, link_gen));
        }
    }

    /// Joins every worker incarnation, slot by slot, while the merger
    /// watchdog keeps the merge stream consumed. Only after every
    /// incarnation of chain stage `slot` has exited is its outgoing link
    /// cut, so the next stage sees end of stream strictly after its
    /// upstream finished producing. While `slot` drains, the stages
    /// below it are still watched: one that dies now (its upstream may
    /// have bypassed it for most of the run, so its injected death can
    /// come late) is healed like any other, and its new incarnation
    /// joins in turn. So a supervised chain keeps the merge wiring until
    /// the last stage has joined; every other run drops it first.
    ///
    /// Returns the panics per slot. A lane whose worker died has its
    /// depth zeroed: a death the dispatcher never observed leaves queued
    /// batches nobody dequeues, while a clean final incarnation drained
    /// its queue to zero anyway.
    pub(super) fn join(
        mut self,
        watch: &mut MergerWatch<'s, 'e>,
        sup: &mut Supervisor,
        frames_done: u64,
    ) -> Vec<u32> {
        if !self.supervised || self.ctx.groups.is_empty() {
            self.wiring = None;
        }
        let n_slots = self.ctx.groups.len().max(self.ctx.depths.len());
        let mut deaths = vec![0u32; n_slots];
        let mut remaining = std::mem::take(&mut self.handles);
        for (slot, died) in deaths.iter_mut().enumerate() {
            let (mine, rest): (Vec<_>, Vec<_>) =
                remaining.into_iter().partition(|(owner, _)| *owner == slot);
            remaining = rest;
            for (_, h) in mine {
                let tend_below =
                    |sup: &mut Supervisor| self.tend_stages(sup, slot + 1, frames_done);
                if watch.join_tended(h, sup, frames_done, tend_below).is_err() {
                    *died += 1;
                }
            }
            remaining.append(&mut self.handles);
            if slot < self.ctx.chain.slots.len() {
                let mut link = self.ctx.chain.link(slot);
                link.gen += 1;
                link.tx = None;
            }
        }
        for (depth, &died) in self.ctx.depths.iter().zip(&deaths) {
            if died > 0 {
                depth.store(0, Ordering::Relaxed);
            }
        }
        deaths
    }
}
