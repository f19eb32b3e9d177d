//! Slab-backed packet buffer pool: the runtime's answer to per-hop
//! `Vec<u8>` traffic on the hot path.
//!
//! A [`BufPool`] owns one contiguous slab carved into fixed-size slots.
//! [`BufPool::alloc`] copies a wire frame into a free slot once, at
//! generation time, and hands back a [`PktBuf`] — a reference-counted
//! handle of `(pool, slot index, length)`, which is exactly the
//! descriptor shape an IRQ core would enqueue for a splitting core.
//! Cloning a handle is a refcount bump, not a byte copy; the final drop
//! pushes the slot back on the free list. The pipeline itself borrows
//! frames for the whole run instead of cloning them (DESIGN.md §14), so
//! refcounts move only where callers keep handles of their own.
//!
//! Ownership rules (DESIGN.md §14):
//!
//! * A slot is written only between free-list pop and first share, while
//!   its refcount is the allocator's exclusive 1. From then on the bytes
//!   are immutable until the count returns to 0.
//! * Clones may happen on any thread; the slot is released to the free
//!   list exactly once, by whichever handle drops the count to zero —
//!   batch copies held for retransmission therefore cannot double-free.
//! * When the pool is exhausted or a frame exceeds the slot size, the
//!   allocation falls back to a heap buffer (counted as a `miss`), so
//!   sizing the pool is a performance decision, never a correctness one.

use std::cell::UnsafeCell;
use std::ops::Deref;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A fixed-capacity slab of packet buffers. Cloning the handle shares
/// the pool (it is internally an `Arc`).
#[derive(Clone)]
pub struct BufPool {
    inner: Arc<PoolInner>,
}

struct PoolInner {
    /// Bytes per slot.
    slot_len: usize,
    /// Slot count.
    slots: usize,
    /// The slab. `UnsafeCell` because slot bytes are written through a
    /// shared reference at acquire time; the refcount protocol above is
    /// what makes that sound.
    storage: Box<[UnsafeCell<u8>]>,
    /// Per-slot reference counts; 0 means the slot is on the free list.
    refs: Box<[AtomicU32]>,
    /// Indices of slots with refcount 0.
    free: Mutex<Vec<u32>>,
    /// Allocations served from the slab.
    hits: AtomicU64,
    /// Allocations that fell back to the heap (pool empty or oversize).
    misses: AtomicU64,
    /// Slots returned to the free list (release events).
    recycled: AtomicU64,
    /// Live heap-fallback buffers.
    heap_live: AtomicU64,
}

// SAFETY: the `UnsafeCell` slab is only written while the writer holds
// the slot exclusively (refcount 0 -> 1 via free-list pop) and only read
// while a handle keeps the refcount >= 1; the free-list mutex and the
// release/acquire refcount edges order those phases.
unsafe impl Send for PoolInner {}
unsafe impl Sync for PoolInner {}

/// A point-in-time counter snapshot of a [`BufPool`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Total slot count.
    pub slots: u64,
    /// Bytes per slot.
    pub slot_len: u64,
    /// Slots currently on the free list.
    pub free: u64,
    /// Allocations served from the slab.
    pub hits: u64,
    /// Heap-fallback allocations (pool empty or frame oversize).
    pub misses: u64,
    /// Slot release events (returns to the free list).
    pub recycled: u64,
    /// Heap-fallback buffers still alive.
    pub heap_live: u64,
}

impl PoolStats {
    /// Fraction of allocations served from the slab; 1.0 for an
    /// untouched pool.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl BufPool {
    /// A pool of `slots` buffers of `slot_len` bytes each.
    pub fn new(slots: usize, slot_len: usize) -> Self {
        assert!(slots >= 1, "pool needs at least one slot");
        assert!(slot_len >= 1, "slots need at least one byte");
        let storage: Box<[UnsafeCell<u8>]> =
            (0..slots * slot_len).map(|_| UnsafeCell::new(0)).collect();
        let refs: Box<[AtomicU32]> = (0..slots).map(|_| AtomicU32::new(0)).collect();
        // LIFO free list: hand the most recently released (cache-warm)
        // slot out first.
        let free = (0..slots as u32).rev().collect();
        Self {
            inner: Arc::new(PoolInner {
                slot_len,
                slots,
                storage,
                refs,
                free: Mutex::new(free),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                recycled: AtomicU64::new(0),
                heap_live: AtomicU64::new(0),
            }),
        }
    }

    /// Pool sized to hold `n` frames of up to `frame_len` bytes.
    pub fn for_frames(n: usize, frame_len: usize) -> Self {
        Self::new(n.max(1), frame_len.max(1))
    }

    /// Copies `bytes` into a free slot and returns the handle; falls
    /// back to a heap buffer (a `miss`) when the pool is empty or the
    /// frame does not fit a slot.
    pub fn alloc(&self, bytes: &[u8]) -> PktBuf {
        let inner = &self.inner;
        if bytes.len() <= inner.slot_len {
            let slot = lock(&inner.free).pop();
            if let Some(idx) = slot {
                let prev = inner.refs[idx as usize].swap(1, Ordering::Acquire);
                debug_assert_eq!(prev, 0, "free-listed slot had live references");
                // SAFETY: the slot came off the free list with refcount
                // 0, so this thread holds it exclusively; the region is
                // in bounds by construction (idx < slots, len <= slot_len).
                unsafe {
                    let base = (inner.storage.as_ptr() as *mut u8)
                        .add(idx as usize * inner.slot_len);
                    std::ptr::copy_nonoverlapping(bytes.as_ptr(), base, bytes.len());
                }
                inner.hits.fetch_add(1, Ordering::Relaxed);
                return PktBuf(Repr::Pooled {
                    pool: Arc::clone(inner),
                    idx,
                    len: bytes.len() as u32,
                });
            }
        }
        inner.misses.fetch_add(1, Ordering::Relaxed);
        inner.heap_live.fetch_add(1, Ordering::Relaxed);
        PktBuf(Repr::Heap(Arc::new(HeapBuf {
            bytes: bytes.to_vec().into_boxed_slice(),
            pool: Some(Arc::clone(inner)),
        })))
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        let inner = &self.inner;
        PoolStats {
            slots: inner.slots as u64,
            slot_len: inner.slot_len as u64,
            free: lock(&inner.free).len() as u64,
            hits: inner.hits.load(Ordering::Relaxed),
            misses: inner.misses.load(Ordering::Relaxed),
            recycled: inner.recycled.load(Ordering::Relaxed),
            heap_live: inner.heap_live.load(Ordering::Relaxed),
        }
    }

    /// Buffers currently held by live handles: slab slots off the free
    /// list plus live heap fallbacks. Zero once every [`PktBuf`] from
    /// this pool has been dropped — the conservation invariant the
    /// chaos suite asserts.
    pub fn in_flight(&self) -> u64 {
        let s = self.stats();
        (s.slots - s.free) + s.heap_live
    }

    fn ptr_eq(&self, other: &Arc<PoolInner>) -> bool {
        Arc::ptr_eq(&self.inner, other)
    }
}

impl std::fmt::Debug for BufPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("BufPool")
            .field("slots", &s.slots)
            .field("slot_len", &s.slot_len)
            .field("free", &s.free)
            .finish()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A panicking worker can poison the free list mid-push; the list
    // itself is always structurally valid, so poisoning is ignorable.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A reference-counted handle to one packet's wire bytes: a slot in a
/// [`BufPool`] (the common case) or a heap fallback. Dereferences to
/// `&[u8]`. Clone is a refcount bump; the last drop recycles the slot.
pub struct PktBuf(Repr);

enum Repr {
    Pooled {
        pool: Arc<PoolInner>,
        idx: u32,
        len: u32,
    },
    Heap(Arc<HeapBuf>),
}

struct HeapBuf {
    bytes: Box<[u8]>,
    /// The pool whose `heap_live` gauge tracks this buffer; `None` for
    /// buffers created without a pool ([`PktBuf::from_vec`]).
    pool: Option<Arc<PoolInner>>,
}

impl Drop for HeapBuf {
    fn drop(&mut self) {
        if let Some(pool) = &self.pool {
            pool.heap_live.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl PktBuf {
    /// Wraps an owned byte vector without a pool — for tests and
    /// ad-hoc frames; counted by no pool gauge.
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        PktBuf(Repr::Heap(Arc::new(HeapBuf {
            bytes: bytes.into_boxed_slice(),
            pool: None,
        })))
    }

    /// The wire bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Pooled { pool, idx, len } => {
                // SAFETY: this handle keeps the slot's refcount >= 1, so
                // no writer can touch the region; bounds as in `alloc`.
                unsafe {
                    std::slice::from_raw_parts(
                        (pool.storage.as_ptr() as *const u8)
                            .add(*idx as usize * pool.slot_len),
                        *len as usize,
                    )
                }
            }
            Repr::Heap(buf) => &buf.bytes,
        }
    }

    /// The owning pool, when this handle is pooled or a pool-tracked
    /// heap fallback.
    pub fn pool(&self) -> Option<BufPool> {
        match &self.0 {
            Repr::Pooled { pool, .. } => Some(BufPool {
                inner: Arc::clone(pool),
            }),
            Repr::Heap(buf) => buf.pool.as_ref().map(|p| BufPool {
                inner: Arc::clone(p),
            }),
        }
    }

    /// The slot index — the "pool index" half of the packet-request
    /// descriptor; `None` for heap fallbacks.
    pub fn slot(&self) -> Option<u32> {
        match &self.0 {
            Repr::Pooled { idx, .. } => Some(*idx),
            Repr::Heap(_) => None,
        }
    }

    /// True when this handle belongs to `pool`'s slab or heap gauge.
    pub fn belongs_to(&self, pool: &BufPool) -> bool {
        match &self.0 {
            Repr::Pooled { pool: p, .. } => pool.ptr_eq(p),
            Repr::Heap(buf) => buf.pool.as_ref().is_some_and(|p| pool.ptr_eq(p)),
        }
    }
}

impl Clone for PktBuf {
    fn clone(&self) -> Self {
        match &self.0 {
            Repr::Pooled { pool, idx, len } => {
                pool.refs[*idx as usize].fetch_add(1, Ordering::Relaxed);
                PktBuf(Repr::Pooled {
                    pool: Arc::clone(pool),
                    idx: *idx,
                    len: *len,
                })
            }
            Repr::Heap(buf) => PktBuf(Repr::Heap(Arc::clone(buf))),
        }
    }
}

impl Drop for PktBuf {
    fn drop(&mut self) {
        if let Repr::Pooled { pool, idx, .. } = &self.0 {
            let prev = pool.refs[*idx as usize].fetch_sub(1, Ordering::Release);
            assert!(prev >= 1, "PktBuf slot {idx} released below zero");
            if prev == 1 {
                // Synchronize with every reader that just released, so
                // the next writer of this slot sees their reads retired.
                fence(Ordering::Acquire);
                lock(&pool.free).push(*idx);
                pool.recycled.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl Deref for PktBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for PktBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Repr::Pooled { idx, len, .. } => {
                write!(f, "PktBuf(slot {idx}, {len} bytes)")
            }
            Repr::Heap(buf) => write!(f, "PktBuf(heap, {} bytes)", buf.bytes.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_roundtrips_bytes() {
        let pool = BufPool::new(4, 64);
        let buf = pool.alloc(b"hello pool");
        assert_eq!(&*buf, b"hello pool");
        assert_eq!(buf.slot(), Some(0));
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn last_drop_recycles_the_slot() {
        let pool = BufPool::new(1, 16);
        let a = pool.alloc(b"one");
        assert_eq!(pool.in_flight(), 1);
        let b = a.clone();
        drop(a);
        assert_eq!(pool.in_flight(), 1, "clone still holds the slot");
        drop(b);
        assert_eq!(pool.in_flight(), 0);
        assert_eq!(pool.stats().recycled, 1);
        // The recycled slot serves the next alloc.
        let c = pool.alloc(b"two");
        assert_eq!(&*c, b"two");
        assert_eq!(pool.stats().hits, 2);
        assert_eq!(pool.stats().misses, 0);
    }

    #[test]
    fn exhaustion_and_oversize_fall_back_to_heap() {
        let pool = BufPool::new(1, 8);
        let held = pool.alloc(b"resident");
        let spill = pool.alloc(b"spill");
        assert_eq!(&*spill, b"spill");
        assert_eq!(spill.slot(), None);
        let big = pool.alloc(&[7u8; 64]);
        assert_eq!(big.len(), 64);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.heap_live), (1, 2, 2));
        assert_eq!(pool.in_flight(), 3);
        drop((held, spill, big));
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn clones_share_bytes_without_copying() {
        let pool = BufPool::new(2, 32);
        let a = pool.alloc(b"shared");
        let b = a.clone();
        assert_eq!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
    }

    #[test]
    fn cross_thread_release_is_conserved() {
        let pool = BufPool::new(64, 32);
        let bufs: Vec<PktBuf> = (0..64u8).map(|i| pool.alloc(&[i; 32])).collect();
        let clones: Vec<PktBuf> = bufs.iter().map(PktBuf::clone).collect();
        let t = std::thread::spawn(move || drop(clones));
        drop(bufs);
        t.join().unwrap();
        assert_eq!(pool.in_flight(), 0);
        assert_eq!(pool.stats().free, 64);
    }

    #[test]
    fn hit_rate_reflects_misses() {
        let pool = BufPool::new(1, 8);
        let _a = pool.alloc(b"a");
        let _b = pool.alloc(b"b");
        assert!((pool.stats().hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn from_vec_is_untracked() {
        let buf = PktBuf::from_vec(vec![1, 2, 3]);
        assert_eq!(&*buf, &[1, 2, 3]);
        assert!(buf.pool().is_none());
        assert_eq!(buf.slot(), None);
    }
}
