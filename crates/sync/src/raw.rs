//! The core simple-lock type.
//!
//! [`RawSimpleLock`] is the Rust equivalent of Mach's
//! `struct slock { int lock_data; }`: a lock with no associated data,
//! protecting whatever the surrounding protocol says it protects. The paper
//! stresses that Mach's locking subsystem "implements lock manipulation
//! routines ... but does not control allocation of lock data structures";
//! this type preserves that property — embed it wherever a lock is needed.

use core::fmt;
use core::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::Duration;

use crate::deadline::{JitterBackoff, LockError, LockTimeout, Poisoned};
use crate::held;
use crate::host;
use crate::policy::{self, AdaptiveSpin, Backoff, SpinPolicy};
use crate::probe;
use crate::queued::QueuedState;

/// A Mach simple lock: a spinning, non-blocking mutual exclusion lock.
///
/// The lock word is a single `AtomicU32` (the paper: "a C integer has been
/// sufficient on all architectures we have encountered to date"). The
/// acquisition policy and backoff are per-lock configuration so that
/// experiment E1 can compare them; production users should take the
/// defaults via [`RawSimpleLock::new`].
///
/// # Usage rules (from the paper, Appendix A)
///
/// * Simple locks may not be held during blocking operations or context
///   switches. Debug builds count held simple locks per thread and the
///   event-wait layer asserts the count is zero before blocking.
/// * A holder must not re-acquire a lock it already holds (immediate
///   self-deadlock). Debug builds detect this and panic with a clear
///   message instead of hanging.
///
/// # Examples
///
/// ```
/// use machk_sync::RawSimpleLock;
///
/// let lock = RawSimpleLock::new();
/// {
///     let _guard = lock.lock();
///     // critical section
/// } // released here
/// assert!(!lock.is_locked());
/// ```
pub struct RawSimpleLock {
    /// Locked/unlocked state. Authoritative for the word-spinning
    /// policies; a mirror maintained by the holder for the queued ones,
    /// so [`is_locked`] and the debug holder checks are policy-agnostic.
    ///
    /// [`is_locked`]: RawSimpleLock::is_locked
    word: AtomicU32,
    policy: SpinPolicy,
    backoff: Backoff,
    adaptive: AdaptiveSpin,
    /// Ticket/MCS queue state; quiescent for word-spinning policies.
    queued: QueuedState,
    /// Set when a guard is dropped during a panic: the protected
    /// invariant may be torn. Checked (and reported as a typed
    /// [`Poisoned`]) by [`lock_checked`]; the unconditional forms
    /// deliberately ignore it, matching the C interface.
    ///
    /// [`lock_checked`]: RawSimpleLock::lock_checked
    poisoned: AtomicBool,
    /// Debug-only: `ThreadId` hash of the holder, to catch self-deadlock.
    #[cfg(debug_assertions)]
    holder: AtomicU32,
    /// Lockstat registration and hold-time state (see [`probe`]).
    tag: probe::Tag,
}

impl RawSimpleLock {
    /// Create an unlocked simple lock with the default policy
    /// (TAS-then-TTAS, no backoff) — Mach's refined acquisition sequence.
    pub const fn new() -> Self {
        Self::with_policy(SpinPolicy::TasThenTtas, Backoff::NONE)
    }

    /// Create an unlocked simple lock with an explicit spin policy.
    pub const fn with_policy(policy: SpinPolicy, backoff: Backoff) -> Self {
        Self::with_adaptive(policy, backoff, AdaptiveSpin::DEFAULT)
    }

    /// Create an unlocked simple lock with explicit spin policy and
    /// spin-then-yield escalation thresholds.
    pub const fn with_adaptive(policy: SpinPolicy, backoff: Backoff, adaptive: AdaptiveSpin) -> Self {
        Self::named_with_adaptive("", policy, backoff, adaptive)
    }

    /// Create an unlocked, *named* simple lock with the default policy.
    ///
    /// The name identifies the lock in `machk-obs` lockstat reports
    /// (`"vm_object.lock"` rather than an address); without the `obs`
    /// feature it is accepted and ignored, so declarations need no
    /// `cfg`. Anonymous locks ([`RawSimpleLock::new`]) are never traced.
    pub const fn named(name: &'static str) -> Self {
        Self::named_with_policy(name, SpinPolicy::TasThenTtas, Backoff::NONE)
    }

    /// Create an unlocked, named simple lock with an explicit policy
    /// (see [`RawSimpleLock::named`] for what the name does).
    pub const fn named_with_policy(name: &'static str, policy: SpinPolicy, backoff: Backoff) -> Self {
        Self::named_with_adaptive(name, policy, backoff, AdaptiveSpin::DEFAULT)
    }

    /// Fully explicit named constructor; every other constructor
    /// funnels here.
    pub const fn named_with_adaptive(
        name: &'static str,
        policy: SpinPolicy,
        backoff: Backoff,
        adaptive: AdaptiveSpin,
    ) -> Self {
        RawSimpleLock {
            word: AtomicU32::new(policy::UNLOCKED),
            policy,
            backoff,
            adaptive,
            queued: QueuedState::new(),
            poisoned: AtomicBool::new(false),
            #[cfg(debug_assertions)]
            holder: AtomicU32::new(0),
            tag: probe::Tag::new(name),
        }
    }

    /// Re-initialize to the unlocked state.
    ///
    /// Mirrors `simple_lock_init`; the paper notes it "is used only for
    /// initialization, not for unlocking a locked lock", so debug builds
    /// panic if the lock is currently held.
    pub fn init(&self) {
        #[cfg(debug_assertions)]
        {
            assert!(
                !self.is_locked(),
                "simple_lock_init on a held lock (init is not unlock)"
            );
        }
        self.queued.reset();
        self.poisoned.store(false, Ordering::Relaxed); // relaxed: advisory flag, see `is_poisoned`
        policy::release(&self.word);
    }

    /// Spin until the lock is acquired; returns a guard that releases it
    /// on drop.
    #[inline]
    pub fn lock(&self) -> SimpleGuard<'_> {
        self.lock_raw();
        SimpleGuard {
            lock: self,
            _not_send: core::marker::PhantomData,
        }
    }

    /// Spin until the lock is acquired, without a guard.
    ///
    /// The caller takes responsibility for calling [`unlock_raw`]
    /// (this mirrors the C interface; the RAII [`lock`] form is preferred).
    ///
    /// [`unlock_raw`]: RawSimpleLock::unlock_raw
    /// [`lock`]: RawSimpleLock::lock
    #[inline]
    pub fn lock_raw(&self) {
        self.debug_check_not_holder();
        let t0 = probe::simple_acquire_begin(&self.tag, self.policy);
        let failures = self.acquire_dispatch();
        probe::simple_acquired(&self.tag, t0, failures);
        self.debug_set_holder();
        held::on_acquire();
    }

    /// Acquire with a deadline: spin with decorrelated-jitter backoff
    /// (see [`crate::deadline`]) until the lock is obtained or `limit`
    /// elapses, reporting [`LockTimeout`] instead of hanging.
    ///
    /// This is the recovery-hardened acquisition form: where
    /// `simple_lock` trusts the holder to release promptly, this bounds
    /// that trust and lets the caller back out, retry, or escalate to
    /// the `machk-intr` watchdog. The backoff desynchronizes waiters so
    /// a storm of bounded acquirers does not reconverge on the lock
    /// word in phase.
    pub fn lock_with_deadline(&self, limit: Duration) -> Result<SimpleGuard<'_>, LockTimeout> {
        if self.try_lock_raw() {
            return Ok(self.guard_for_held());
        }
        // Host time, not `Instant`: under `machk-sim` the deadline is
        // measured on the virtual clock, so timeout behaviour is part of
        // the deterministic schedule rather than wall-clock flakiness.
        let start = host::now();
        let mut backoff = JitterBackoff::new();
        loop {
            backoff.pause();
            if self.try_lock_raw() {
                return Ok(self.guard_for_held());
            }
            let waited = Duration::from_nanos(host::now().saturating_sub(start));
            if waited >= limit {
                return Err(LockTimeout { waited });
            }
        }
    }

    /// Checked, bounded acquisition: like [`lock_with_deadline`], but a
    /// poisoned lock is reported as [`LockError::Poisoned`] *before any
    /// spinning* — the caller must not burn the deadline waiting for an
    /// invariant that is already known to need repair.
    ///
    /// The poison flag is also re-checked after a successful
    /// acquisition: a holder may die (poisoning on its panicking drop)
    /// while we wait, and handing out a clean guard over torn state
    /// would defeat the diagnosis. On the post-acquire hit the lock is
    /// released before the error is returned, so the caller can run the
    /// repair protocol: [`clear_poison`], re-acquire, validate/repair
    /// the protected state under the new guard.
    ///
    /// [`lock_with_deadline`]: RawSimpleLock::lock_with_deadline
    /// [`clear_poison`]: RawSimpleLock::clear_poison
    pub fn lock_checked(&self, limit: Duration) -> Result<SimpleGuard<'_>, LockError> {
        if self.is_poisoned() {
            return Err(LockError::Poisoned(Poisoned));
        }
        let guard = self.lock_with_deadline(limit)?;
        if self.is_poisoned() {
            drop(guard);
            return Err(LockError::Poisoned(Poisoned));
        }
        Ok(guard)
    }

    /// Whether a previous holder's guard was dropped during a panic.
    #[inline]
    pub fn is_poisoned(&self) -> bool {
        // relaxed: the flag is advisory until re-checked under the lock
        // (`lock_checked` does exactly that after acquiring).
        self.poisoned.load(Ordering::Relaxed)
    }

    /// Acknowledge poison after validating/repairing the protected
    /// state. Idempotent; racing repairers both proceed to re-acquire
    /// and validate under the guard, which is the safe order.
    #[inline]
    pub fn clear_poison(&self) {
        // relaxed: see `is_poisoned`; clearing is an advisory ack.
        self.poisoned.store(false, Ordering::Relaxed);
    }

    /// Stamp the poison diagnosis explicitly (the guard does this
    /// automatically on a panicking drop; exposed for wrappers that
    /// manage the lock word themselves).
    #[inline]
    pub fn poison(&self) {
        // relaxed: see `is_poisoned`.
        self.poisoned.store(true, Ordering::Relaxed);
    }

    /// Policy dispatch for a blocking acquisition; returns the failed /
    /// waited round count (non-zero = contended).
    #[inline]
    fn acquire_dispatch(&self) -> u64 {
        match self.policy {
            SpinPolicy::Ticket => self.queued.ticket_acquire(&self.word, self.adaptive),
            SpinPolicy::Mcs => self.queued.mcs_acquire(&self.word, self.adaptive),
            _ => policy::acquire(&self.word, self.policy, self.backoff, self.adaptive),
        }
    }

    /// Release the lock without a guard. Pairs with [`RawSimpleLock::lock_raw`].
    ///
    /// Debug builds panic if the calling thread is not the holder.
    #[inline]
    pub fn unlock_raw(&self) {
        // Fault hook: stretch the hold window by a jittered spin before
        // the word is actually cleared (the lock is still ours here).
        probe::inject_simple_release_delay();
        self.debug_clear_holder();
        held::on_release();
        // Hold time must be read while the lock is still held, before
        // the word release lets the next owner restamp it.
        probe::simple_release(&self.tag);
        match self.policy {
            SpinPolicy::Ticket => self.queued.ticket_release(&self.word),
            SpinPolicy::Mcs => self.queued.mcs_release(&self.word),
            _ => policy::release(&self.word),
        }
    }

    /// Make a single attempt to acquire the lock.
    ///
    /// Returns a guard on success, `None` on failure. This is the
    /// `simple_lock_try` of Appendix A: "useful for attempting to acquire a
    /// lock in situations where the unconditional acquisition of the lock
    /// could cause deadlock" (see the backout protocol in the pmap module
    /// of `machk-vm`).
    #[inline]
    pub fn try_lock(&self) -> Option<SimpleGuard<'_>> {
        if self.try_lock_raw() {
            Some(SimpleGuard {
                lock: self,
                _not_send: core::marker::PhantomData,
            })
        } else {
            None
        }
    }

    /// Guard-free form of [`RawSimpleLock::try_lock`].
    #[inline]
    pub fn try_lock_raw(&self) -> bool {
        // Fault hook: force the attempt to fail without touching the
        // word (models a lost CAS / stale view); takes the ordinary
        // failure path below so obs accounting stays truthful.
        let acquired = !probe::inject_simple_try_fail()
            && match self.policy {
                SpinPolicy::Ticket => self.queued.ticket_try(&self.word),
                SpinPolicy::Mcs => self.queued.mcs_try(&self.word),
                _ => policy::try_acquire(&self.word),
            };
        if acquired {
            let t0 = probe::simple_acquire_begin(&self.tag, self.policy);
            probe::simple_acquired(&self.tag, t0, 0);
            self.debug_set_holder();
            held::on_acquire();
            true
        } else {
            probe::simple_try_failed(&self.tag, self.policy);
            false
        }
    }

    /// Whether the lock is currently held (by anyone).
    ///
    /// Inherently racy; useful for assertions and statistics only.
    #[inline]
    pub fn is_locked(&self) -> bool {
        // relaxed: advisory snapshot; callers must not infer ownership.
        self.word.load(Ordering::Relaxed) == policy::LOCKED
    }

    /// The acquisition policy this lock was created with.
    pub fn policy(&self) -> SpinPolicy {
        self.policy
    }

    /// Number of threads currently registered on a contended wait path.
    ///
    /// Only the queued policies register waiters (the word-spinning
    /// policies leave no per-waiter trace, and their fast path must stay
    /// a single atomic). Observing `waiters() == n` guarantees the first
    /// `n` registrants' admission order is already fixed, which is what
    /// the FIFO fairness tests key on. Racy otherwise; for tests and
    /// statistics only.
    pub fn waiters(&self) -> u32 {
        self.queued.waiters()
    }

    /// Construct a guard for a lock the caller has already acquired.
    fn guard_for_held(&self) -> SimpleGuard<'_> {
        SimpleGuard {
            lock: self,
            _not_send: core::marker::PhantomData,
        }
    }

    #[cfg(debug_assertions)]
    #[inline]
    fn debug_check_not_holder(&self) {
        // relaxed: best-effort debug heuristic; a stale read only
        // weakens the self-deadlock diagnostic, never correctness.
        if self.is_locked() && self.holder.load(Ordering::Relaxed) == held::thread_tag() {
            panic!(
                "simple lock self-deadlock: thread already holds this lock \
                 (simple locks are not recursive)"
            );
        }
    }

    #[cfg(not(debug_assertions))]
    #[inline]
    fn debug_check_not_holder(&self) {}

    #[cfg(debug_assertions)]
    #[inline]
    fn debug_set_holder(&self) {
        // relaxed: written under the lock; ordered by the acquire.
        self.holder.store(held::thread_tag(), Ordering::Relaxed);
    }

    #[cfg(not(debug_assertions))]
    #[inline]
    fn debug_set_holder(&self) {}

    #[cfg(debug_assertions)]
    #[inline]
    fn debug_clear_holder(&self) {
        let me = held::thread_tag();
        // relaxed: cleared under the lock before the releasing store.
        let holder = self.holder.swap(0, Ordering::Relaxed);
        assert!(
            holder == me,
            "simple_unlock by a thread that does not hold the lock"
        );
    }

    #[cfg(not(debug_assertions))]
    #[inline]
    fn debug_clear_holder(&self) {}
}

impl Default for RawSimpleLock {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for RawSimpleLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RawSimpleLock")
            .field("locked", &self.is_locked())
            .field("policy", &self.policy)
            .finish()
    }
}

/// RAII guard for a [`RawSimpleLock`]; releases the lock on drop.
///
/// Deliberately `!Send`: holding a spin lock is a property of the acquiring
/// thread in Mach ("holding of a lock is always associated with a thread").
pub struct SimpleGuard<'a> {
    lock: &'a RawSimpleLock,
    /// Keeps the guard on the acquiring thread (`*mut ()` is `!Send`).
    _not_send: core::marker::PhantomData<*mut ()>,
}

impl SimpleGuard<'_> {
    /// Release explicitly (equivalent to dropping the guard); useful when
    /// the release point matters for reading the code against the paper's
    /// protocols.
    pub fn unlock(self) {
        drop(self);
    }
}

impl Drop for SimpleGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        // Poison-then-release, not hold-forever: a dead holder that kept
        // the word set would convert one thread's panic into every other
        // thread's spin-hang (the limit case of the paper's "delayed
        // holder"). Releasing with the typed stamp lets the next
        // acquirer diagnose and repair instead.
        if std::thread::panicking() {
            self.lock.poison();
        }
        self.lock.unlock_raw();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn guard_releases_on_drop() {
        let lock = RawSimpleLock::new();
        {
            let g = lock.lock();
            assert!(lock.is_locked());
            drop(g);
        }
        assert!(!lock.is_locked());
    }

    #[test]
    fn try_lock_contended() {
        let lock = RawSimpleLock::new();
        let g = lock.lock();
        assert!(lock.try_lock().is_none());
        g.unlock();
        assert!(lock.try_lock().is_some());
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        const THREADS: usize = 8;
        const ITERS: usize = 10_000;
        let lock = RawSimpleLock::new();
        let mut shared = 0usize; // protected by `lock`
        let shared_ptr = &mut shared as *mut usize as usize;
        let in_cs = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..ITERS {
                        let _g = lock.lock();
                        assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0);
                        // Non-atomic increment: torn updates would show up
                        // as a wrong final count.
                        unsafe {
                            let p = shared_ptr as *mut usize;
                            p.write(p.read() + 1);
                        }
                        in_cs.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(shared, THREADS * ITERS);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "self-deadlock")]
    fn recursive_acquire_panics_in_debug() {
        let lock = RawSimpleLock::new();
        let _g = lock.lock();
        let _g2 = lock.lock();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "init is not unlock")]
    fn init_on_held_lock_panics_in_debug() {
        let lock = RawSimpleLock::new();
        let _g = lock.lock();
        lock.init();
    }

    #[test]
    fn init_resets_unlocked_lock() {
        let lock = RawSimpleLock::new();
        lock.init();
        assert!(!lock.is_locked());
    }

    #[test]
    fn deadline_times_out_on_held_lock_and_acquires_free_one() {
        let lock = RawSimpleLock::new();
        let g = lock.lock();
        let err = lock
            .lock_with_deadline(std::time::Duration::from_millis(10))
            .err()
            .expect("held lock must time out");
        assert!(err.waited >= std::time::Duration::from_millis(10));
        g.unlock();
        let g2 = lock
            .lock_with_deadline(std::time::Duration::from_millis(10))
            .expect("free lock must acquire");
        assert!(lock.is_locked());
        drop(g2);
        assert!(!lock.is_locked());
    }

    #[test]
    fn deadline_succeeds_once_holder_releases() {
        let lock = RawSimpleLock::new();
        std::thread::scope(|s| {
            let g = lock.lock();
            s.spawn(|| {
                let g2 = lock
                    .lock_with_deadline(std::time::Duration::from_secs(5))
                    .expect("release within deadline must succeed");
                drop(g2);
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(g);
        });
        assert!(!lock.is_locked());
    }

    #[test]
    fn panicking_holder_poisons_but_releases() {
        let lock = RawSimpleLock::new();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = lock.lock();
            panic!("holder dies mid-hold");
        }));
        assert!(res.is_err());
        // Released (no spin-hang for the next acquirer) *and* stamped.
        assert!(!lock.is_locked());
        assert!(lock.is_poisoned());
    }

    #[test]
    fn checked_acquire_reports_poison_without_spinning() {
        let lock = RawSimpleLock::new();
        lock.poison();
        // Even with the lock *held* and a long deadline, the typed
        // diagnosis must come back immediately — the poison pre-check
        // runs before any backoff spinning.
        let _g = lock.lock();
        let t0 = std::time::Instant::now();
        let err = lock
            .lock_checked(std::time::Duration::from_secs(5))
            .map(|_guard| ())
            .expect_err("poisoned lock must report, not spin");
        assert_eq!(err, LockError::Poisoned(Poisoned));
        assert!(t0.elapsed() < std::time::Duration::from_secs(1));
    }

    #[test]
    fn clear_poison_restores_checked_acquisition() {
        let lock = RawSimpleLock::new();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = lock.lock();
            panic!("die");
        }));
        assert!(lock.is_poisoned());
        lock.clear_poison();
        let g = lock
            .lock_checked(std::time::Duration::from_secs(5))
            .expect("cleared lock must acquire");
        drop(g);
        assert!(!lock.is_locked());
    }

    #[test]
    fn ordinary_drop_does_not_poison() {
        let lock = RawSimpleLock::new();
        drop(lock.lock());
        assert!(!lock.is_poisoned());
        let g = lock
            .lock_checked(std::time::Duration::from_secs(5))
            .expect("clean lock must acquire");
        drop(g);
    }

    #[test]
    fn all_policies_provide_exclusion() {
        for policy in SpinPolicy::ALL {
            let lock = RawSimpleLock::with_policy(policy, Backoff::DEFAULT);
            let counter = AtomicUsize::new(0);
            let mut value = 0u64;
            let vp = &mut value as *mut u64 as usize;
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        for _ in 0..5_000 {
                            let _g = lock.lock();
                            unsafe {
                                let p = vp as *mut u64;
                                p.write(p.read() + 1);
                            }
                            counter.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
            assert_eq!(value, 20_000, "policy {policy:?} lost updates");
        }
    }
}
