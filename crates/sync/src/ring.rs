//! Lock-free bounded message rings (beyond the paper).
//!
//! The paper's port message queues live under the port's simple lock;
//! E2 shows why that ceiling matters: serializing independent work
//! through one lock is the master-funnel shape the paper spends §2
//! arguing against. [`MpscRing<T>`] removes the lock from the queue
//! itself: a fixed ring of slots, each carrying its own sequence word,
//! with producers claiming slots by compare-exchange on a monotone
//! enqueue position (the bounded-queue design popularized by Vyukov).
//!
//! Properties the IPC engine builds on:
//!
//! * **Multi-producer** — any number of senders push concurrently;
//!   admission order is the order of their position claims (global
//!   FIFO by claim).
//! * **Consumer-safe under concurrency** — pops are also
//!   compare-exchange claims, so the "single consumer" of MPSC is a
//!   *usage* pattern (one logical receiver per port), not a safety
//!   requirement; a port's `destroy` path and a late receiver may
//!   drain concurrently without corruption.
//! * **Bounded with an exact logical limit** — the ring's physical
//!   capacity is the limit rounded up to a power of two, but admission
//!   is gated on the *logical* limit, so `create_with_limit(3)` still
//!   admits exactly 3 messages before reporting full.
//! * **Batched dequeue** — [`MpscRing::pop_batch`] claims up to `max`
//!   items in one sweep so a dispatch loop amortizes its wakeups.
//! * **Host-aware** — every retry spin goes through
//!   [`host::spin_hint`], so a ring inside a `machk-sim` run is
//!   scheduled (and replayed) deterministically like every other wait
//!   in the stack.
//!
//! Blocking is deliberately *not* provided here: the port layer keeps
//! the §6 split-wait protocol (`assert_wait` / `thread_block` /
//! `thread_wakeup`) on top, so Appendix-A semantics are unchanged —
//! the ring only replaces the queue's mutual exclusion, not its event
//! protocol.

use core::cell::UnsafeCell;
use core::mem::MaybeUninit;
use core::sync::atomic::{AtomicUsize, Ordering};

use crate::host::{self, SpinSite};
use crate::probe;

/// One ring slot: a sequence word (the slot's reuse generation) plus
/// the payload cell it guards.
struct Slot<T> {
    /// Sequence protocol (Vyukov): `seq == pos` ⇒ empty and claimable
    /// by the producer whose enqueue position is `pos`; `seq == pos+1`
    /// ⇒ full and claimable by the consumer whose dequeue position is
    /// `pos`; anything else ⇒ another lap owns the slot.
    seq: AtomicUsize,
    val: UnsafeCell<MaybeUninit<T>>,
}

/// A bounded, lock-free, multi-producer message ring.
///
/// See the module docs for the design; see `machk-ipc` for the
/// production consumer (per-port message queues and the RPC engine's
/// transfer channel).
///
/// # Examples
///
/// ```
/// use machk_sync::ring::MpscRing;
///
/// let ring: MpscRing<u32> = MpscRing::with_limit(3);
/// assert!(ring.push(1).is_ok());
/// assert!(ring.push(2).is_ok());
/// assert!(ring.push(3).is_ok());
/// assert_eq!(ring.push(4), Err(4), "logical limit, not pow2 capacity");
/// let mut batch = Vec::new();
/// ring.pop_batch(&mut batch, 8);
/// assert_eq!(batch, vec![1, 2, 3]);
/// ```
pub struct MpscRing<T> {
    buf: Box<[Slot<T>]>,
    /// `capacity - 1`; capacity is a power of two.
    mask: usize,
    /// The logical bound: pushes are refused once `limit` messages are
    /// in flight, independent of the (≥ limit) physical capacity.
    limit: usize,
    enqueue_pos: AtomicUsize,
    dequeue_pos: AtomicUsize,
    /// Trace identity ("" = anonymous, untraced).
    tag: probe::Tag,
}

// Safety: slots are transferred between threads with release/acquire
// sequence handoffs; a slot's payload is touched only by the thread
// that claimed its position by CAS.
unsafe impl<T: Send> Send for MpscRing<T> {}
unsafe impl<T: Send> Sync for MpscRing<T> {}

impl<T> MpscRing<T> {
    /// A ring admitting at most `limit` (≥ 1) items at a time.
    pub fn with_limit(limit: usize) -> MpscRing<T> {
        Self::with_limit_named(limit, "")
    }

    /// [`MpscRing::with_limit`] with a static trace name. With the
    /// `obs` feature on, named rings emit `RingPush` / `RingPop` /
    /// `RingFull` trace events (per-name aggregation, like every named
    /// lock); anonymous rings stay untraced. Without the feature the
    /// name is discarded at compile time.
    pub fn with_limit_named(limit: usize, name: &'static str) -> MpscRing<T> {
        assert!(limit >= 1, "ring limit must be at least 1");
        let capacity = limit.next_power_of_two();
        let buf: Vec<Slot<T>> = (0..capacity)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                val: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        MpscRing {
            buf: buf.into_boxed_slice(),
            mask: capacity - 1,
            limit,
            enqueue_pos: AtomicUsize::new(0),
            dequeue_pos: AtomicUsize::new(0),
            tag: probe::Tag::new(name),
        }
    }

    /// The logical bound on in-flight items.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Physical slot count (`limit` rounded up to a power of two).
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Items in flight counted from an enqueue position `enq` that was
    /// read *before* the dequeue position. `None` when consumers have
    /// already moved past `enq`: other producers pushed after the
    /// snapshot and their items were popped, so the snapshot is stale
    /// and the plain difference would wrap to a huge count.
    #[inline]
    fn in_flight(&self, enq: usize) -> Option<usize> {
        let n = enq.wrapping_sub(self.dequeue_pos.load(Ordering::Acquire));
        // Positions only grow and never more than a lap apart, so a
        // genuine count is tiny; a "negative" one is the stale case.
        (n as isize >= 0).then_some(n)
    }

    /// Push `v`, or give it back if the ring is at its limit.
    ///
    /// The limit check reads a possibly-stale dequeue position; stale
    /// means *smaller*, so occupancy is only ever over-estimated and
    /// the logical bound is never exceeded. (The cost: a push racing a
    /// pop may report full when one slot just freed — callers that
    /// block re-check after `assert_wait`, exactly the §6 discipline.)
    /// A stale *enqueue* position is reloaded instead, never reported
    /// as full.
    pub fn push(&self, v: T) -> Result<(), T> {
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed); // relaxed: CAS below re-validates the claim
        loop {
            let Some(in_flight) = self.in_flight(pos) else {
                pos = self.enqueue_pos.load(Ordering::Relaxed); // relaxed: CAS re-validates
                continue;
            };
            if in_flight >= self.limit {
                probe::ring_full(&self.tag, self.limit);
                return Err(v);
            }
            let slot = &self.buf[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos as isize;
            if dif == 0 {
                // The slot is empty on our lap: claim the position.
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    // relaxed: the position word carries no payload; the
                    // slot's seq store below is the publishing release.
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // Safety: the CAS gave this thread exclusive
                        // ownership of the slot for this lap.
                        unsafe { (*slot.val.get()).write(v) };
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        probe::ring_push(&self.tag, || self.len());
                        return Ok(());
                    }
                    Err(now) => pos = now,
                }
            } else if dif < 0 {
                // A whole lap behind: physically full.
                probe::ring_full(&self.tag, self.limit);
                return Err(v);
            } else {
                // Another producer advanced the position under us.
                pos = self.enqueue_pos.load(Ordering::Relaxed); // relaxed: CAS re-validates
            }
            // A scheduling point per retry so simulated hosts interleave
            // (and replay) ring races deterministically.
            host::spin_hint(SpinSite::Generic);
        }
    }

    /// Pop the oldest item, if any.
    pub fn pop(&self) -> Option<T> {
        let v = self.pop_inner();
        if v.is_some() {
            probe::ring_pop(&self.tag, 1);
        }
        v
    }

    /// [`MpscRing::pop`] without the trace event — the shared claim
    /// loop; `pop_batch` traces once per sweep instead of per item.
    fn pop_inner(&self) -> Option<T> {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed); // relaxed: CAS below re-validates the claim
        loop {
            let slot = &self.buf[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos.wrapping_add(1) as isize;
            if dif == 0 {
                match self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    // relaxed: the slot seq protocol carries the payload
                    // ordering; the position word is just the claim.
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // Safety: the CAS gave this thread exclusive
                        // ownership of the slot's payload for this lap.
                        let v = unsafe { (*slot.val.get()).assume_init_read() };
                        slot.seq
                            .store(pos.wrapping_add(self.mask).wrapping_add(1), Ordering::Release);
                        return Some(v);
                    }
                    Err(now) => pos = now,
                }
            } else if dif < 0 {
                // The slot has not been published on this lap: empty
                // (or a producer is mid-write, which reads as empty
                // until its release store lands).
                return None;
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed); // relaxed: CAS re-validates
            }
            host::spin_hint(SpinSite::Generic);
        }
    }

    /// Pop up to `max` items into `out` (appending), returning how many
    /// were taken. One sweep, no allocation beyond `out`'s growth — the
    /// batched dequeue a dispatch loop amortizes its wakeups over.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.pop_inner() {
                Some(v) => {
                    out.push(v);
                    n += 1;
                }
                None => break,
            }
        }
        if n > 0 {
            probe::ring_pop(&self.tag, n);
        }
        n
    }

    /// Approximate in-flight count (racy; diagnostics and wakeup
    /// heuristics only). A stale snapshot reads as empty, never as
    /// full.
    pub fn len(&self) -> usize {
        // relaxed: advisory; the result is stale the moment it is
        // computed.
        let enq = self.enqueue_pos.load(Ordering::Relaxed);
        self.in_flight(enq).unwrap_or(0).min(self.limit)
    }

    /// Whether the ring currently looks empty (racy; diagnostics).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for MpscRing<T> {
    fn drop(&mut self) {
        // Owning `&mut self`, no concurrency remains: drain and drop
        // whatever is still in flight (port rights in queued messages
        // release their references here). Untraced: teardown pops are
        // not consumption, and thread-local trace state may already be
        // gone if this runs during process exit.
        while self.pop_inner().is_some() {}
    }
}

impl<T> core::fmt::Debug for MpscRing<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MpscRing")
            .field("len", &self.len())
            .field("limit", &self.limit)
            .field("capacity", &self.capacity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn fifo_order_single_thread() {
        let ring = MpscRing::with_limit(8);
        for i in 0..8 {
            ring.push(i).unwrap();
        }
        for i in 0..8 {
            assert_eq!(ring.pop(), Some(i));
        }
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn logical_limit_enforced_exactly() {
        for limit in 1..=9usize {
            let ring = MpscRing::with_limit(limit);
            for i in 0..limit {
                assert!(ring.push(i).is_ok(), "limit {limit}: push {i}");
            }
            assert_eq!(ring.push(99), Err(99), "limit {limit} must refuse");
            assert_eq!(ring.len(), limit);
            // Free one slot; exactly one more fits.
            assert_eq!(ring.pop(), Some(0));
            assert!(ring.push(100).is_ok());
            assert_eq!(ring.push(101), Err(101));
        }
    }

    #[test]
    fn wraps_many_laps() {
        let ring = MpscRing::with_limit(3);
        for lap in 0..1000u64 {
            ring.push(lap).unwrap();
            assert_eq!(ring.pop(), Some(lap));
        }
        assert!(ring.is_empty());
    }

    #[test]
    fn pop_batch_takes_up_to_max() {
        let ring = MpscRing::with_limit(16);
        for i in 0..10 {
            ring.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(ring.pop_batch(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(ring.pop_batch(&mut out, 100), 6);
        assert_eq!(out.len(), 10);
        assert_eq!(ring.pop_batch(&mut out, 1), 0);
    }

    #[test]
    fn drop_releases_in_flight_items() {
        let live = Arc::new(AtomicUsize::new(0));
        struct Tracked(Arc<AtomicUsize>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let ring = MpscRing::with_limit(8);
        for _ in 0..5 {
            live.fetch_add(1, Ordering::SeqCst);
            assert!(ring.push(Tracked(Arc::clone(&live))).is_ok());
        }
        drop(ring);
        assert_eq!(live.load(Ordering::SeqCst), 0, "drop drains the ring");
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        const PRODUCERS: usize = 4;
        const PER: usize = 5_000;
        let ring = Arc::new(MpscRing::with_limit(64));
        let seen = Arc::new(AtomicUsize::new(0));
        let sum = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let ring = Arc::clone(&ring);
                s.spawn(move || {
                    for i in 0..PER {
                        let v = p * PER + i;
                        loop {
                            match ring.push(v) {
                                Ok(()) => break,
                                Err(_) => std::thread::yield_now(),
                            }
                        }
                    }
                });
            }
            let ring = Arc::clone(&ring);
            let seen = Arc::clone(&seen);
            let sum = Arc::clone(&sum);
            s.spawn(move || {
                let mut batch = Vec::with_capacity(32);
                while seen.load(Ordering::Relaxed) < PRODUCERS * PER {
                    batch.clear();
                    let n = ring.pop_batch(&mut batch, 32);
                    if n == 0 {
                        std::thread::yield_now();
                        continue;
                    }
                    for v in &batch {
                        sum.fetch_add(*v, Ordering::Relaxed);
                    }
                    seen.fetch_add(n, Ordering::Relaxed);
                }
            });
        });
        let n = PRODUCERS * PER;
        assert_eq!(seen.load(Ordering::SeqCst), n);
        assert_eq!(sum.load(Ordering::SeqCst), n * (n - 1) / 2);
    }

    #[test]
    fn concurrent_producers_and_drainers() {
        // Pops are CAS claims too, so destroy-vs-receive races cannot
        // duplicate or corrupt; here several threads drain at once.
        const PRODUCERS: usize = 3;
        const DRAINERS: usize = 2;
        const PER: usize = 4_000;
        let ring = Arc::new(MpscRing::with_limit(32));
        let got = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..PRODUCERS {
                let ring = Arc::clone(&ring);
                s.spawn(move || {
                    for i in 0..PER {
                        while ring.push(i).is_err() {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            for _ in 0..DRAINERS {
                let ring = Arc::clone(&ring);
                let got = Arc::clone(&got);
                s.spawn(move || {
                    while got.load(Ordering::Relaxed) < PRODUCERS * PER {
                        if ring.pop().is_some() {
                            got.fetch_add(1, Ordering::Relaxed);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        assert_eq!(got.load(Ordering::SeqCst), PRODUCERS * PER);
        assert!(ring.pop().is_none());
    }

    #[test]
    fn stale_positions_never_read_as_full() {
        // Two producers and a consumer keep a handful of items in flight,
        // far below the limit, so every refused push and every `len()`
        // at the limit is spurious. A producer's (or reader's) enqueue
        // snapshot goes stale when the other producer pushes and the
        // consumer pops in between; the unchecked position difference
        // then wrapped around and read as full.
        const PRODUCERS: usize = 2;
        const PER: usize = 100_000;
        const LIMIT: usize = 64;
        const WINDOW: usize = 4;
        let ring = MpscRing::with_limit(LIMIT);
        let pushed = AtomicUsize::new(0);
        let popped = AtomicUsize::new(0);
        let refused = AtomicUsize::new(0);
        let len_at_limit = AtomicUsize::new(0);
        let total = PRODUCERS * PER;
        let in_flight = || pushed.load(Ordering::SeqCst).saturating_sub(popped.load(Ordering::SeqCst));
        std::thread::scope(|s| {
            for _ in 0..PRODUCERS {
                s.spawn(|| {
                    for i in 0..PER {
                        while in_flight() >= WINDOW {
                            std::hint::spin_loop();
                        }
                        while ring.push(i).is_err() {
                            refused.fetch_add(1, Ordering::Relaxed);
                        }
                        pushed.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
            s.spawn(|| {
                while popped.load(Ordering::SeqCst) < total {
                    if ring.pop().is_some() {
                        popped.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
            s.spawn(|| {
                while popped.load(Ordering::SeqCst) < total {
                    if ring.len() >= LIMIT {
                        len_at_limit.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        });
        assert_eq!(refused.load(Ordering::Relaxed), 0, "spurious full pushes");
        assert_eq!(len_at_limit.load(Ordering::Relaxed), 0, "spurious full len()");
    }
}
