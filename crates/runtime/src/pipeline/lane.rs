//! The two transports behind one set of lane types. Every `match` on the
//! transport choice lives here; the dispatcher, workers and merger only
//! see [`LaneTx`], [`LaneRx`], [`MergeRx`] and [`MergeWiring`].

use std::collections::VecDeque;
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender};
use std::time::{Duration, Instant};

use crate::ring::{
    self, MuxRecvError, MuxRegistrar, RingConsumer, RingMux, RingProducer, RingSendError,
};

use super::{Merged, Run, Transport};

/// Sending half of one SPSC lane: dispatcher→worker batches,
/// worker→worker staged batches along a FALCON chain, or one producer's
/// runs into the merge path.
pub(super) enum LaneTx<B> {
    Mpsc(SyncSender<B>),
    Ring(RingProducer<B>),
}

/// Outcome of a transport-level non-blocking send.
pub(super) enum LaneTrySend<B> {
    Sent,
    Full(B),
    Closed(B),
}

impl<B> LaneTx<B> {
    /// Blocking send; hands the batch back when the consumer is gone.
    pub(super) fn send(&mut self, batch: B) -> Result<(), B> {
        match self {
            LaneTx::Mpsc(tx) => tx.send(batch).map_err(|mpsc::SendError(b)| b),
            LaneTx::Ring(tx) => tx.push(batch),
        }
    }

    /// Non-blocking send.
    pub(super) fn try_send(&mut self, batch: B) -> LaneTrySend<B> {
        match self {
            LaneTx::Mpsc(tx) => match tx.try_send(batch) {
                Ok(()) => LaneTrySend::Sent,
                Err(mpsc::TrySendError::Full(b)) => LaneTrySend::Full(b),
                Err(mpsc::TrySendError::Disconnected(b)) => LaneTrySend::Closed(b),
            },
            LaneTx::Ring(tx) => match tx.try_push(batch) {
                Ok(()) => LaneTrySend::Sent,
                Err(RingSendError::Full(b)) => LaneTrySend::Full(b),
                Err(RingSendError::Closed(b)) => LaneTrySend::Closed(b),
            },
        }
    }
}

/// Receiving half of one lane.
pub(super) enum LaneRx<B> {
    Mpsc(mpsc::Receiver<B>),
    Ring(RingConsumer<B>),
}

impl<B> LaneRx<B> {
    /// Blocking receive; `None` once the producer dropped its half and
    /// the queue is drained.
    pub(super) fn recv(&mut self) -> Option<B> {
        match self {
            LaneRx::Mpsc(rx) => rx.recv().ok(),
            LaneRx::Ring(rx) => rx.pop(),
        }
    }
}

/// Creates one SPSC lane over the configured transport.
pub(super) fn spsc_lane<B: Send>(transport: Transport, depth: usize) -> (LaneTx<B>, LaneRx<B>) {
    match transport {
        Transport::Mpsc => {
            let (tx, rx) = mpsc::sync_channel::<B>(depth);
            (LaneTx::Mpsc(tx), LaneRx::Mpsc(rx))
        }
        Transport::Ring => {
            let (tx, rx) = ring::spsc::<B>(depth);
            (LaneTx::Ring(tx), LaneRx::Ring(rx))
        }
    }
}

/// Cloneable factory for merger senders: another `SyncSender` clone under
/// `Mpsc`, a freshly registered ring under `Ring` (the registrar
/// explicitly wakes a parked mux). Every worker incarnation, the first
/// ones included, gets its sender here. The merger sees end of stream
/// only once the wiring is dropped along with every sender.
pub(super) enum MergeWiring {
    Mpsc(SyncSender<Run>),
    Ring(MuxRegistrar<Run>),
}

impl MergeWiring {
    pub(super) fn new_tx(&self) -> LaneTx<Run> {
        match self {
            MergeWiring::Mpsc(tx) => LaneTx::Mpsc(tx.clone()),
            MergeWiring::Ring(reg) => LaneTx::Ring(reg.add_producer()),
        }
    }
}

/// Creates the merge path: one shared MPSC channel, or one SPSC ring per
/// producer fanned into a mux. Returns the wiring that mints worker
/// senders, the dispatcher's own sender (for its inline lane), and the
/// merger's receiving end. `runs` is the capacity in runs.
pub(super) fn merge_path(transport: Transport, runs: usize) -> (MergeWiring, LaneTx<Run>, MergeRx) {
    let (wiring, dispatch, rx) = match transport {
        Transport::Mpsc => {
            let (tx, rx) = mpsc::sync_channel::<Run>(runs);
            (
                MergeWiring::Mpsc(tx.clone()),
                LaneTx::Mpsc(tx),
                RunRx::Mpsc(rx),
            )
        }
        Transport::Ring => {
            let (mut txs, mux, registrar) = ring::ring_mux_with_registrar::<Run>(1, runs);
            let dispatch = txs.pop().expect("one ring for the dispatcher");
            (
                MergeWiring::Ring(registrar),
                LaneTx::Ring(dispatch),
                RunRx::Ring(mux),
            )
        }
    };
    let rx = MergeRx {
        rx,
        staged: VecDeque::new(),
    };
    (wiring, dispatch, rx)
}

/// The merge transport's receiving end, carrying whole runs.
enum RunRx {
    Mpsc(mpsc::Receiver<Run>),
    Ring(RingMux<Run>),
}

/// The merger's receiving end: the run transport plus the results of
/// runs already taken off it but not yet handed out. Both live in the
/// leased receiver slot, so a merger death loses neither.
pub(super) struct MergeRx {
    rx: RunRx,
    staged: VecDeque<Merged>,
}

/// Outcome of one merger receive.
pub(super) enum MergeRecv {
    Item(Merged),
    Timeout,
    Disconnected,
}

impl MergeRx {
    /// Receives one result, waiting at most `timeout` (forever if
    /// `None`) when no run is staged.
    pub(super) fn recv(&mut self, timeout: Option<Duration>) -> MergeRecv {
        loop {
            if let Some(item) = self.staged.pop_front() {
                return MergeRecv::Item(item);
            }
            let run = match &mut self.rx {
                RunRx::Mpsc(rx) => match timeout {
                    Some(t) => match rx.recv_timeout(t) {
                        Ok(run) => run,
                        Err(RecvTimeoutError::Timeout) => return MergeRecv::Timeout,
                        Err(RecvTimeoutError::Disconnected) => return MergeRecv::Disconnected,
                    },
                    None => match rx.recv() {
                        Ok(run) => run,
                        Err(_) => return MergeRecv::Disconnected,
                    },
                },
                RunRx::Ring(mux) => {
                    let deadline = timeout.map(|t| Instant::now() + t);
                    match mux.recv_deadline(deadline) {
                        Ok(run) => run,
                        Err(MuxRecvError::Timeout) => return MergeRecv::Timeout,
                        Err(MuxRecvError::Disconnected) => return MergeRecv::Disconnected,
                    }
                }
            };
            self.staged.extend(run);
        }
    }

    /// Appends results that are already waiting — staged, queued in the
    /// mpsc channel, or refilled into the mux's scratch queue — until
    /// `batch` holds `max`. Never blocks; the unused tail of a run stays
    /// staged for the next call.
    pub(super) fn drain_buffered(&mut self, batch: &mut Vec<Merged>, max: usize) {
        while batch.len() < max {
            if self.staged.is_empty() {
                let run = match &mut self.rx {
                    RunRx::Mpsc(rx) => rx.try_recv().ok(),
                    RunRx::Ring(mux) => mux.try_recv_buffered(),
                };
                match run {
                    Some(mut run) if run.len() <= max - batch.len() => batch.append(&mut run),
                    Some(run) => self.staged.extend(run),
                    None => break,
                }
                continue;
            }
            let take = (max - batch.len()).min(self.staged.len());
            batch.extend(self.staged.drain(..take));
        }
    }
}
