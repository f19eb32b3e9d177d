//! A process-wide cache of OS threads behind a `std::thread::scope`-shaped
//! API: [`scope`], [`Scope::spawn`] and a [`ScopedJoinHandle`] with
//! `join` and `is_finished`.
//!
//! The pipeline runs every worker, chain stage and merger incarnation of a
//! [`crate::process_parallel`] call as a job here, so a call wakes threads
//! that already exist instead of spawning and joining fresh ones — the
//! userspace analogue of MFLOW kicking per-core softirq contexts with an
//! IPI rather than creating one per batch (DESIGN.md §6, "Thread reuse").
//!
//! Rules that keep supervision and fault semantics those of plain scoped
//! threads:
//!
//! * Submission never waits. A job goes to an idle thread if one is
//!   waiting, else a new OS thread starts, so a respawn never queues
//!   behind a stalled or wedged incarnation that still holds its thread.
//!   An idle thread exits after [`KEEPALIVE`] without work.
//! * A thread counts as idle *before* its job signals completion, so the
//!   next call's submissions find it even if it has not reached its idle
//!   wait yet. The pool therefore never holds more threads than the peak
//!   number of jobs running at once.
//! * A job's panic is caught; the thread survives it and the payload is
//!   returned by [`ScopedJoinHandle::join`]. The default panic hook still
//!   prints the message. A panicked job nobody joined makes [`scope`]
//!   panic, as `std::thread::scope` does.
//!
//! A reused thread may carry an `unpark` token left over from an earlier
//! job. Every park site in [`crate::ring`] re-checks its condition in a
//! loop, so such a token costs at most one extra wake-up.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::mem;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// How long an idle pool thread waits for a job before it exits.
const KEEPALIVE: Duration = Duration::from_secs(5);

/// A job with its borrows erased (see the SAFETY comment in
/// [`Scope::spawn`]).
type Task = Box<dyn FnOnce() + Send + 'static>;

struct Job {
    task: Task,
    scope: Arc<ScopeState>,
}

/// The pool: jobs not yet picked up, and how many waiting threads are
/// not yet claimed by one of them.
struct Queue {
    jobs: VecDeque<Job>,
    idle: usize,
}

static QUEUE: Mutex<Queue> = Mutex::new(Queue {
    jobs: VecDeque::new(),
    idle: 0,
});
static WAKE: Condvar = Condvar::new();

/// Locks ignoring poisoning: every update made under these locks is one
/// step that leaves the data valid, and no code panics while holding them.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Hands `job` to an idle thread, or starts a new one. Never waits for a
/// running job.
fn submit(job: Job) -> std::io::Result<()> {
    let mut q = lock(&QUEUE);
    if q.idle > 0 {
        q.idle -= 1;
        q.jobs.push_back(job);
        drop(q);
        WAKE.notify_one();
        return Ok(());
    }
    drop(q);
    thread::Builder::new()
        .name("mflow-pool".into())
        .spawn(move || serve(job))
        .map(drop)
}

/// A pool thread's life: run a job, count itself idle, signal the job's
/// completion, wait for the next job until the keepalive runs out.
fn serve(mut job: Job) {
    loop {
        let Job { task, scope } = job;
        // The job's own panic is caught inside `task`; what could still
        // unwind here is the drop of a result nobody joined.
        let stray = panic::catch_unwind(AssertUnwindSafe(task)).is_err();
        lock(&QUEUE).idle += 1;
        scope.complete(stray);
        drop(scope);
        match next_job() {
            Some(next) => job = next,
            None => return,
        }
    }
}

/// Waits for a job; `None` (the thread retires) after [`KEEPALIVE`]
/// without one.
fn next_job() -> Option<Job> {
    let deadline = Instant::now() + KEEPALIVE;
    let mut q = lock(&QUEUE);
    loop {
        if let Some(job) = q.jobs.pop_front() {
            return Some(job);
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            // No job is queued, so no submission has claimed this thread.
            q.idle -= 1;
            return None;
        }
        q = WAKE
            .wait_timeout(q, left)
            .map_or_else(|e| e.into_inner().0, |(q, _)| q);
    }
}

/// One [`scope`]'s bookkeeping, shared with its jobs.
#[derive(Default)]
struct ScopeState {
    tally: Mutex<Tally>,
    done: Condvar,
}

#[derive(Default)]
struct Tally {
    running: usize,
    unjoined_panic: bool,
}

impl ScopeState {
    fn complete(&self, panicked: bool) {
        let mut t = lock(&self.tally);
        t.running -= 1;
        t.unjoined_panic |= panicked;
        drop(t);
        self.done.notify_all();
    }
}

/// A job's result slot, shared by the job and its handle. Whoever drops
/// it last while it holds a panic nobody took flags the scope.
struct Packet<T> {
    scope: Arc<ScopeState>,
    result: Mutex<Option<thread::Result<T>>>,
}

impl<T> Drop for Packet<T> {
    fn drop(&mut self) {
        let result = self.result.get_mut().unwrap_or_else(|e| e.into_inner());
        if matches!(result, Some(Err(_))) {
            lock(&self.scope.tally).unjoined_panic = true;
        }
    }
}

/// A scope to spawn pooled jobs in; see [`scope`].
pub struct Scope<'scope, 'env: 'scope> {
    state: Arc<ScopeState>,
    scope: PhantomData<&'scope mut &'scope ()>,
    env: PhantomData<&'env mut &'env ()>,
}

/// An owned permission to join a pooled job.
pub struct ScopedJoinHandle<'scope, T> {
    packet: Arc<Packet<T>>,
    scope: PhantomData<&'scope ()>,
}

/// Runs `f` with a [`Scope`] whose jobs may borrow anything that outlives
/// the call, and returns only once every job spawned in it has finished —
/// also when `f` panics, in which case the panic resumes afterwards.
/// Panics if a job panicked and was never joined.
pub fn scope<'env, F, T>(f: F) -> T
where
    F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
{
    let scope = Scope {
        state: Arc::new(ScopeState::default()),
        scope: PhantomData,
        env: PhantomData,
    };
    let result = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
    let mut t = lock(&scope.state.tally);
    while t.running > 0 {
        t = scope.state.done.wait(t).unwrap_or_else(|e| e.into_inner());
    }
    let unjoined_panic = t.unjoined_panic;
    drop(t);
    match result {
        Err(payload) => panic::resume_unwind(payload),
        Ok(_) if unjoined_panic => panic!("a pooled job panicked and was never joined"),
        Ok(r) => r,
    }
}

impl<'scope> Scope<'scope, '_> {
    /// Runs `f` on a pool thread: an idle one if any is waiting, else a
    /// new one.
    pub fn spawn<F, T>(&'scope self, f: F) -> ScopedJoinHandle<'scope, T>
    where
        F: FnOnce() -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let packet = Arc::new(Packet {
            scope: Arc::clone(&self.state),
            result: Mutex::new(None),
        });
        let theirs = Arc::clone(&packet);
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let result = panic::catch_unwind(AssertUnwindSafe(f));
            *lock(&theirs.result) = Some(result);
            drop(theirs);
        });
        // SAFETY: the task borrows only data that outlives `'scope`, and
        // nothing of it is touched after `scope` returns:
        // * `scope` waits for `running` to reach 0 before it returns, and
        //   it waits even when its body panics (the body runs under
        //   `catch_unwind`; the panic resumes after the wait).
        // * `running` was raised below before the job could start, and is
        //   lowered only by `ScopeState::complete`, which the pool thread
        //   calls after the task has returned: calling the boxed
        //   `FnOnce` consumes it, so `f`'s captures, the result slot
        //   reference `theirs` and any result nobody joined are dropped
        //   by then. The pool thread keeps only its own `Arc` of the
        //   scope state, which borrows nothing.
        // * Completion goes through the `tally` mutex, so every write the
        //   job made happens-before `scope` observes `running == 0`.
        // * If submission fails, the task was dropped unrun inside
        //   `submit`, before `running` is lowered again.
        let task = unsafe { mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(task) };
        lock(&self.state.tally).running += 1;
        let job = Job {
            task,
            scope: Arc::clone(&self.state),
        };
        if let Err(e) = submit(job) {
            self.state.complete(false);
            panic!("failed to start a pool thread: {e}");
        }
        ScopedJoinHandle {
            packet,
            scope: PhantomData,
        }
    }
}

impl<T> ScopedJoinHandle<'_, T> {
    /// Waits for the job and returns its result, or the payload it
    /// panicked with.
    pub fn join(self) -> thread::Result<T> {
        let state = &self.packet.scope;
        let mut t = lock(&state.tally);
        loop {
            if let Some(result) = lock(&self.packet.result).take() {
                return result;
            }
            // The job stores its result before it completes, and
            // completion takes `tally` before it notifies; this loop
            // holds `tally` from the check until the wait releases it,
            // so the wake-up cannot be lost.
            t = state.done.wait(t).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Whether the job has finished, so that [`Self::join`] will not
    /// block.
    pub fn is_finished(&self) -> bool {
        lock(&self.packet.result).is_some()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;

    use super::*;

    #[test]
    fn a_panicking_scope_body_still_waits_for_its_jobs() {
        // The job is released only as the body unwinds (dropping `tx`),
        // then sleeps before it writes: a scope that returned without
        // waiting would let the caller see the flag unset.
        let flag = AtomicBool::new(false);
        let (tx, rx) = mpsc::channel::<()>();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                let flag = &flag;
                s.spawn(move || {
                    let _ = rx.recv();
                    thread::sleep(Duration::from_millis(20));
                    flag.store(true, Ordering::Relaxed);
                });
                let _tx = tx;
                panic!("scope body fails");
            })
        }));
        assert!(caught.is_err());
        assert!(flag.load(Ordering::Relaxed), "the job outlived its scope");
    }

    #[test]
    fn a_panicked_job_joins_as_err_and_its_thread_serves_on() {
        let died_on = scope(|s| {
            let h = s.spawn(|| panic::panic_any(thread::current().id()));
            *h.join()
                .expect_err("the job panicked")
                .downcast::<thread::ThreadId>()
                .expect("payload is the thread id")
        });
        // Idle threads are handed jobs in turn, so the thread that caught
        // the panic comes round again unless it died with the job.
        let came_back = (0..10_000)
            .any(|_| scope(|s| s.spawn(|| thread::current().id()).join().unwrap()) == died_on);
        assert!(came_back, "the thread that ran the panicking job is gone");
    }

    #[test]
    fn submission_never_waits_for_a_running_job() {
        // Job `a` blocks until job `b`, spawned after it, releases it:
        // `b` must get a thread of its own while `a` holds one. A
        // timeout turns a regression into a failure instead of a hang.
        let (tx, rx) = mpsc::channel();
        let released = scope(|s| {
            let a = s.spawn(move || rx.recv_timeout(Duration::from_secs(10)).is_ok());
            s.spawn(move || tx.send(()).unwrap());
            a.join().unwrap()
        });
        assert!(released);
    }

    #[test]
    fn jobs_write_disjoint_chunks_of_a_stack_vec() {
        let mut v = vec![0u32; 64];
        scope(|s| {
            for (i, chunk) in v.chunks_mut(16).enumerate() {
                s.spawn(move || chunk.fill(i as u32 + 1));
            }
        });
        let want: Vec<u32> = (1..=4).flat_map(|i| [i; 16]).collect();
        assert_eq!(v, want);
    }

    #[test]
    fn an_unjoined_panic_makes_the_scope_panic() {
        let caught = panic::catch_unwind(|| {
            scope(|s| {
                s.spawn(|| panic!("nobody joins this"));
            });
        });
        assert!(caught.is_err());
    }

    #[test]
    fn is_finished_turns_true_and_join_returns_the_value() {
        scope(|s| {
            let h = s.spawn(|| 7u32);
            while !h.is_finished() {
                thread::yield_now();
            }
            assert_eq!(h.join().unwrap(), 7);
        });
    }
}
