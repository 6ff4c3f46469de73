//! Cooperative threads for multithreaded OSIRIS servers.
//!
//! The paper's VFS is multithreaded "to prevent slow disk operations from
//! effectively blocking the system" (§V), using a *cooperative* thread
//! library whose state is managed by the server itself so that recovery can
//! restore it (§IV-E):
//!
//! * the recovery window is open while a thread is *active* (processing a
//!   message) and **forcibly closed when the thread yields**;
//! * restoring a crashed server's state also restores the inactive threads;
//! * the *active* (crashed) thread needs special handling: after a rollback
//!   the thread library still believes the crashed thread is running, so a
//!   fixup routine clears the current-thread variable and returns the thread
//!   to the pool ([`CoPool::fix_after_restore`]).
//!
//! Threads here are continuations: a blocked thread is its saved
//! continuation value of type `C`, stored in the server's checkpointed heap
//! so that rollback and restart see a consistent thread table.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use osiris_checkpoint::{Heap, HeapValue, PCell, PMap};

/// Identifier of a cooperative thread within one server.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u32);

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cothread-{}", self.0)
    }
}

/// Lifecycle state of one cooperative thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoState {
    /// Free: available to pick up a new request.
    Idle,
    /// Currently executing (at most one thread per pool).
    Active,
    /// Yielded while waiting for an asynchronous event; its continuation is
    /// saved.
    Blocked,
}

#[derive(Clone, Debug)]
struct Slot<C> {
    state: CoState,
    continuation: Option<C>,
}

/// A fixed-capacity pool of cooperative threads whose bookkeeping lives in
/// the owning server's checkpointed [`Heap`].
///
/// `C` is the server-defined continuation type saved when a thread yields.
///
/// ```
/// # use osiris_checkpoint::Heap;
/// # use osiris_cothread::CoPool;
/// let mut heap = Heap::new("vfs");
/// let pool: CoPool<String> = CoPool::new(&mut heap, 4);
/// let tid = pool.activate(&mut heap).expect("a thread is free");
/// pool.yield_blocked(&mut heap, tid, "waiting for disk".into());
/// assert_eq!(pool.resume(&mut heap, tid), Some("waiting for disk".into()));
/// pool.finish(&mut heap, tid);
/// ```
#[derive(Debug)]
pub struct CoPool<C> {
    slots: PMap<u32, Slot<C>>,
    current: PCell<Option<u32>>,
    capacity: u32,
}

// Handles are plain data regardless of the continuation type.
impl<C> Clone for CoPool<C> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<C> Copy for CoPool<C> {}

impl<C: HeapValue> CoPool<C> {
    /// Creates a pool of `capacity` idle threads, allocating its bookkeeping
    /// in `heap`.
    pub fn new(heap: &mut Heap, capacity: u32) -> Self {
        let slots = heap.alloc_map::<u32, Slot<C>>("cothread.slots");
        for id in 0..capacity {
            slots.insert(
                heap,
                id,
                Slot {
                    state: CoState::Idle,
                    continuation: None,
                },
            );
        }
        let current = heap.alloc_cell("cothread.current", None);
        CoPool {
            slots,
            current,
            capacity,
        }
    }

    /// Pool capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// The currently active thread, if any.
    pub fn current(&self, heap: &Heap) -> Option<ThreadId> {
        self.current.get(heap).map(ThreadId)
    }

    /// Number of threads in the given state.
    pub fn count(&self, heap: &Heap, state: CoState) -> usize {
        let mut n = 0;
        self.slots.for_each(heap, |_, s| {
            if s.state == state {
                n += 1;
            }
        });
        n
    }

    /// Picks an idle thread and marks it active for a new request.
    /// Returns `None` if all threads are busy (the caller queues the
    /// request) or if another thread is already active (cooperative pools
    /// run one thread at a time).
    pub fn activate(&self, heap: &mut Heap) -> Option<ThreadId> {
        if self.current.get(heap).is_some() {
            return None;
        }
        let id = self.slots.find_key(heap, |_, s| s.state == CoState::Idle)?;
        self.slots.update(heap, &id, |s| s.state = CoState::Active);
        self.current.set(heap, Some(id));
        Some(ThreadId(id))
    }

    /// Marks a blocked thread active again (e.g. its disk reply arrived) and
    /// takes its saved continuation.
    ///
    /// Returns `None` if the thread is not blocked (it may have been cleaned
    /// up by recovery) or another thread is active.
    pub fn resume(&self, heap: &mut Heap, tid: ThreadId) -> Option<C> {
        if self.current.get(heap).is_some() {
            return None;
        }
        let is_blocked = self
            .slots
            .with(heap, &tid.0, |s| s.state == CoState::Blocked)
            .unwrap_or(false);
        if !is_blocked {
            return None;
        }
        let cont = self
            .slots
            .update(heap, &tid.0, |s| {
                s.state = CoState::Active;
                s.continuation.take()
            })
            .flatten();
        self.current.set(heap, Some(tid.0));
        cont
    }

    /// Yields the active thread, saving `continuation` until it is resumed.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is not the active thread — yielding someone else's
    /// context is a server bug.
    pub fn yield_blocked(&self, heap: &mut Heap, tid: ThreadId, continuation: C) {
        assert_eq!(
            self.current.get(heap),
            Some(tid.0),
            "only the active thread may yield"
        );
        self.slots.update(heap, &tid.0, |s| {
            s.state = CoState::Blocked;
            s.continuation = Some(continuation);
        });
        self.current.set(heap, None);
    }

    /// Finishes the active thread's request, returning it to the idle pool.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is not the active thread.
    pub fn finish(&self, heap: &mut Heap, tid: ThreadId) {
        assert_eq!(
            self.current.get(heap),
            Some(tid.0),
            "only the active thread may finish"
        );
        self.slots.update(heap, &tid.0, |s| {
            s.state = CoState::Idle;
            s.continuation = None;
        });
        self.current.set(heap, None);
    }

    /// Post-recovery fixup (paper §IV-E): after a rollback or restart the
    /// restored state may still name a current thread that crashed. Clears
    /// the current-thread variable and returns that thread to the idle pool
    /// so the library is consistent again. Returns the thread that was
    /// fixed, if any.
    pub fn fix_after_restore(&self, heap: &mut Heap) -> Option<ThreadId> {
        let cur = self.current.get(heap)?;
        self.slots.update(heap, &cur, |s| {
            s.state = CoState::Idle;
            s.continuation = None;
        });
        self.current.set(heap, None);
        Some(ThreadId(cur))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(cap: u32) -> (Heap, CoPool<u32>) {
        let mut heap = Heap::new("t");
        let p = CoPool::new(&mut heap, cap);
        (heap, p)
    }

    #[test]
    fn activate_yield_resume_finish() {
        let (mut h, p) = pool(2);
        let t = p.activate(&mut h).unwrap();
        assert_eq!(p.current(&h), Some(t));
        p.yield_blocked(&mut h, t, 42);
        assert_eq!(p.current(&h), None);
        assert_eq!(p.count(&h, CoState::Blocked), 1);
        let t2 = p.activate(&mut h).unwrap();
        assert_ne!(t, t2);
        p.finish(&mut h, t2);
        assert_eq!(p.resume(&mut h, t), Some(42));
        p.finish(&mut h, t);
        assert_eq!(p.count(&h, CoState::Idle), 2);
    }

    #[test]
    fn only_one_active_thread() {
        let (mut h, p) = pool(2);
        let _t = p.activate(&mut h).unwrap();
        assert_eq!(p.activate(&mut h), None);
    }

    #[test]
    fn exhausted_pool_returns_none() {
        let (mut h, p) = pool(1);
        let t = p.activate(&mut h).unwrap();
        p.yield_blocked(&mut h, t, 1);
        assert_eq!(p.activate(&mut h), None, "no idle threads left");
    }

    #[test]
    fn resume_nonblocked_thread_is_rejected() {
        let (mut h, p) = pool(2);
        assert_eq!(p.resume(&mut h, ThreadId(0)), None);
        let t = p.activate(&mut h).unwrap();
        assert_eq!(p.resume(&mut h, t), None, "active thread cannot be resumed");
    }

    #[test]
    fn fix_after_restore_clears_current() {
        let (mut h, p) = pool(2);
        let t = p.activate(&mut h).unwrap();
        // Simulate a crash + state restore: current still points at t.
        assert_eq!(p.fix_after_restore(&mut h), Some(t));
        assert_eq!(p.current(&h), None);
        assert_eq!(p.count(&h, CoState::Idle), 2);
        assert_eq!(p.fix_after_restore(&mut h), None);
    }

    #[test]
    fn rollback_restores_thread_table() {
        let (mut h, p) = pool(2);
        let t0 = p.activate(&mut h).unwrap();
        p.yield_blocked(&mut h, t0, 7);
        h.set_logging(true);
        let m = h.mark();
        let t1 = p.activate(&mut h).unwrap();
        p.yield_blocked(&mut h, t1, 8);
        h.rollback_to(m);
        assert_eq!(p.count(&h, CoState::Blocked), 1);
        assert_eq!(p.resume(&mut h, t0), Some(7));
    }

    #[test]
    #[should_panic(expected = "only the active thread")]
    fn yield_by_wrong_thread_panics() {
        let (mut h, p) = pool(2);
        let _t = p.activate(&mut h).unwrap();
        p.yield_blocked(&mut h, ThreadId(99), 0);
    }
}
