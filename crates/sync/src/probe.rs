//! The probe seam: the one place where the opt-in `obs` and `fault`
//! layers meet the kernel code.
//!
//! Appendix A keeps the simple lock inside a structure "to allow the
//! simple addition of debugging and statistics information". This
//! module is that addition for the whole stack. Lock, reference-count,
//! ring, event, spl and engine code call the functions below at every
//! lifecycle event and fault-injection site, unconditionally:
//!
//! * a **lifecycle probe** (`simple_acquired`, `ref_taken`,
//!   `ring_push`, …) reports the event to `machk-obs` when this crate's
//!   `obs` feature is on: lockstat registry, trace rings, order graph;
//! * a **fault probe** (`inject_*`) asks `machk-fault` whether the
//!   seeded plan fires at that site when the `fault` feature is on.
//!
//! With a feature off its probes are empty `#[inline(always)]`
//! functions (the watchdog's lockstat dump prints a hint instead),
//! argument closures are never called, and the default build neither
//! runs probe code nor links either crate. Every other
//! crate's `obs`/`fault` feature only forwards to this crate's, so no
//! other source file names the features or the two crates.
//!
//! Per-object state is one [`Tag`]. Wait and hold times are read from
//! [`crate::host::now`], so under a simulator they are virtual.
//!
//! Anonymous objects (name `""`) are never registered or traced.

// Probe arguments are read only by the builds that switch the probe on.
#![cfg_attr(not(all(feature = "obs", feature = "fault")), allow(unused_variables))]

#[cfg(feature = "fault")]
use machk_fault::{fire, FaultSite as Site};
#[cfg(feature = "obs")]
use machk_obs::{emit, emit_flags, EventKind as Ev, LockClass, FLAG_CONTENDED};

use crate::policy::SpinPolicy;

/// `obs!(on)` runs `on` in `obs` builds; `obs!(on, else off)`
/// evaluates to `on` there and to `off` otherwise. Tokens of the
/// discarded arm are never compiled.
#[cfg(feature = "obs")]
macro_rules! obs {
    ($on:expr) => { $on };
    ($on:expr, else $off:expr) => { $on };
}
#[cfg(not(feature = "obs"))]
macro_rules! obs {
    ($on:expr) => { () };
    ($on:expr, else $off:expr) => { $off };
}

/// The `fault` twin of `obs!`.
#[cfg(feature = "fault")]
macro_rules! fault {
    ($on:expr, else $off:expr) => { $on };
}
#[cfg(not(feature = "fault"))]
macro_rules! fault {
    ($on:expr, else $off:expr) => { $off };
}

/// Per-object probe state: the name, the lazily assigned registry id
/// and the timestamp of the current acquisition (for hold times). A
/// zero-sized type without `obs`.
pub struct Tag {
    #[cfg(feature = "obs")]
    on: Named,
}

#[cfg(feature = "obs")]
struct Named {
    name: &'static str,
    id: machk_obs::LockTag,
    acquired_at: core::sync::atomic::AtomicU64,
}

impl Tag {
    /// A tag for an object called `name` (`""` = anonymous, untraced).
    pub const fn new(name: &'static str) -> Tag {
        Tag {
            #[cfg(feature = "obs")]
            on: Named {
                name,
                id: machk_obs::LockTag::new(),
                acquired_at: core::sync::atomic::AtomicU64::new(0),
            },
        }
    }
}

#[cfg(feature = "obs")]
impl Tag {
    /// Registry id, registering on first use; 0 for anonymous objects.
    #[inline]
    fn id(&self, class: LockClass, label: &'static str) -> u32 {
        if self.on.name.is_empty() {
            0
        } else {
            self.on.id.ensure(self.on.name, class, label)
        }
    }

    /// Emit `kind` for a named object.
    #[inline]
    fn emit(&self, class: LockClass, label: &'static str, kind: Ev, arg: u64) {
        let id = self.id(class, label);
        if id != 0 {
            emit(kind, id, arg);
        }
    }

    /// Stamp the acquisition time and emit the acquire event, whose
    /// argument is the wait since `t0`.
    #[inline]
    fn acquired(&self, id: u32, kind: Ev, t0: u64, contended: bool) {
        let now = crate::host::now();
        let wait = now.saturating_sub(t0);
        // relaxed: read back only by the holder at release.
        self.on.acquired_at.store(now, core::sync::atomic::Ordering::Relaxed);
        if contended && kind == Ev::SimpleAcquire {
            emit(Ev::SimpleContended, id, wait);
        }
        emit_flags(kind, id, wait, if contended { FLAG_CONTENDED } else { 0 });
    }

    /// Emit a release event carrying the hold time. Must run while the
    /// lock is still held, before the next owner restamps.
    #[inline]
    fn released(&self, kind: Ev) {
        if let Some(id) = self.on.id.get() {
            // relaxed: written by this same holder at acquisition.
            let at = self.on.acquired_at.load(core::sync::atomic::Ordering::Relaxed);
            emit(kind, id, crate::host::now().saturating_sub(at));
        }
    }
}

/// The probe clock: host time in `obs` builds, 0 otherwise.
#[inline(always)]
pub fn now() -> u64 {
    obs!(crate::host::now(), else 0)
}

// ----- simple locks -----

/// A blocking simple-lock acquisition starts: registers a named lock
/// and returns the wait-start time for [`simple_acquired`] (0 for an
/// untraced lock).
#[inline(always)]
pub fn simple_acquire_begin(tag: &Tag, policy: SpinPolicy) -> u64 {
    obs!(match tag.id(LockClass::Simple, policy.name()) {
        0 => 0,
        _ => crate::host::now(),
    }, else 0)
}

/// A simple lock was acquired after `failures` failed attempts.
#[inline(always)]
pub fn simple_acquired(tag: &Tag, t0: u64, failures: u64) {
    obs!(if let Some(id) = tag.on.id.get() {
        tag.acquired(id, Ev::SimpleAcquire, t0, failures > 0);
    })
}

/// A `simple_lock_try` failed.
#[inline(always)]
pub fn simple_try_failed(tag: &Tag, policy: SpinPolicy) {
    obs!(tag.emit(LockClass::Simple, policy.name(), Ev::SimpleTryFail, 0))
}

/// A simple lock is about to be released.
#[inline(always)]
pub fn simple_release(tag: &Tag) {
    obs!(tag.released(Ev::SimpleRelease))
}

// ----- complex locks -----

/// A complex lock was acquired for reading; `waited` if it blocked.
#[inline(always)]
pub fn complex_read_acquired(tag: &Tag, t0: u64, waited: bool) {
    obs!(match tag.id(LockClass::Complex, "rw") {
        0 => {}
        id => tag.acquired(id, Ev::ComplexRead, t0, waited),
    })
}

/// A complex lock was acquired for writing; `waited` if it blocked.
#[inline(always)]
pub fn complex_write_acquired(tag: &Tag, t0: u64, waited: bool) {
    obs!(match tag.id(LockClass::Complex, "rw") {
        0 => {}
        id => tag.acquired(id, Ev::ComplexWrite, t0, waited),
    })
}

/// A read → write upgrade succeeded.
#[inline(always)]
pub fn complex_upgraded(tag: &Tag) {
    obs!(tag.emit(LockClass::Complex, "rw", Ev::ComplexUpgradeOk, 0))
}

/// A read → write upgrade failed; the read hold is gone (§7.1).
#[inline(always)]
pub fn complex_upgrade_failed(tag: &Tag) {
    obs!(tag.emit(LockClass::Complex, "rw", Ev::ComplexUpgradeFail, 0))
}

/// A write hold was downgraded to a read hold.
#[inline(always)]
pub fn complex_downgraded(tag: &Tag) {
    obs!(tag.emit(LockClass::Complex, "rw", Ev::ComplexDowngrade, 0))
}

/// A complex-lock try operation failed.
#[inline(always)]
pub fn complex_try_failed(tag: &Tag) {
    obs!(tag.emit(LockClass::Complex, "rw", Ev::ComplexTryFail, 0))
}

/// A complex lock was released (`lock_done`).
#[inline(always)]
pub fn complex_release(tag: &Tag) {
    obs!(tag.released(Ev::ComplexRelease))
}

// ----- reference counts -----

/// A reference was taken, on the serialized slow path if `slow`.
#[inline(always)]
pub fn ref_taken(tag: &Tag, slow: bool) {
    obs!(tag.emit(LockClass::RefCount, "sharded", Ev::RefTake, u64::from(slow)))
}

/// A reference was released; `last` if it was the final one.
#[inline(always)]
pub fn ref_released(tag: &Tag, last: bool) {
    obs!(tag.emit(
        LockClass::RefCount,
        "sharded",
        if last { Ev::RefFinal } else { Ev::RefRelease },
        0
    ))
}

/// A drain folded `outstanding` shard contributions into the exact
/// remainder.
#[inline(always)]
pub fn ref_drained(tag: &Tag, outstanding: u64) {
    obs!(tag.emit(LockClass::RefCount, "sharded", Ev::RefDrain, outstanding))
}

/// An object was deactivated (§10 shutdown step 1); `count` is its
/// sharded count, if it has one.
#[inline(always)]
pub fn deactivated(count: Option<&Tag>) {
    obs!(emit(
        Ev::Deactivate,
        count.map_or(0, |t| t.id(LockClass::RefCount, "sharded")),
        0
    ))
}

// ----- message rings -----

/// A push succeeded; `len` is the occupancy after it (called lazily).
#[inline(always)]
pub fn ring_push(tag: &Tag, len: impl FnOnce() -> usize) {
    obs!(match tag.id(LockClass::Other, "ring") {
        0 => {}
        id => emit(Ev::RingPush, id, len() as u64),
    })
}

/// `n` items were popped in one sweep.
#[inline(always)]
pub fn ring_pop(tag: &Tag, n: usize) {
    obs!(tag.emit(LockClass::Other, "ring", Ev::RingPop, n as u64))
}

/// A push was refused at `limit`.
#[inline(always)]
pub fn ring_full(tag: &Tag, limit: usize) {
    obs!(tag.emit(LockClass::Other, "ring", Ev::RingFull, limit as u64))
}

// ----- events, spl, engine, watchdog -----

/// A thread declared a wait on `event` (`assert_wait`).
#[inline(always)]
pub fn event_wait(event: usize) {
    obs!(emit(Ev::EventWait, 0, event as u64))
}

/// `event` was declared to have occurred (`thread_wakeup`).
#[inline(always)]
pub fn event_wakeup(event: usize) {
    obs!(emit(Ev::EventWakeup, 0, event as u64))
}

/// The interrupt priority level is raised to `level`.
#[inline(always)]
pub fn spl_raise(level: u64) {
    obs!(emit(Ev::SplRaise, 0, level))
}

/// The interrupt priority level is restored to `level`.
#[inline(always)]
pub fn spl_restore(level: u64) {
    obs!(emit(Ev::SplRestore, 0, level))
}

/// An engine worker dispatched `ops` operations since its previous
/// drain point. Every worker reports under one name; the per-thread
/// tag on each event tells them apart.
#[inline(always)]
pub fn engine_batch(ops: u64) {
    obs!({
        static TAG: Tag = Tag::new("ipc.engine.loop");
        emit(Ev::EngineBatch, TAG.id(LockClass::Other, "engine"), ops)
    })
}

/// Append the lockstat view at the moment a watchdog fired: order
/// cycles first, then the top contended locks.
pub fn lockstat_dump(report: &mut String) {
    obs!({
        let stat = machk_obs::Lockstat::collect();
        if stat.cycles.is_empty() {
            report.push_str("no lock-order cycles on record; lockstat at detection:\n");
        } else {
            report.push_str("lock-order cycles on record (likely culprit first):\n");
            for c in &stat.cycles {
                report.push_str(&machk_obs::order::render_cycle(c));
                report.push('\n');
            }
        }
        report.push_str(&stat.render_text(5, false));
    }, else report.push_str("(build with the `obs` feature for a lockstat dump at detection)\n"))
}

// ----- fault sites -----

/// Force a `simple_lock_try` to fail without touching the lock word.
#[inline(always)]
pub fn inject_simple_try_fail() -> bool {
    fault!(fire(Site::SimpleTryFail), else false)
}

/// Stretch a hold window by a jittered spin before the release.
#[inline(always)]
pub fn inject_simple_release_delay() {
    fault!(if let Some(spins) = machk_fault::fire_jitter(Site::SimpleReleaseDelay, 4096) {
        crate::host::spin_batch(spins);
    }, else ())
}

/// Lose a read → write upgrade race with no competitor.
#[inline(always)]
pub fn inject_complex_upgrade_fail() -> bool {
    fault!(fire(Site::ComplexUpgradeFail), else false)
}

/// Divert a reference take to the serialized slow path.
#[inline(always)]
pub fn inject_ref_take_slow() -> bool {
    fault!(fire(Site::RefTakeSlow), else false)
}

/// Divert a reference release to the drain-to-exact slow path.
#[inline(always)]
pub fn inject_ref_release_slow() -> bool {
    fault!(fire(Site::RefReleaseSlow), else false)
}

/// Drop a wakeup: the §6 lost-wakeup failure.
#[inline(always)]
pub fn inject_event_drop_wakeup() -> bool {
    fault!(fire(Site::EventDropWakeup), else false)
}

/// End a wait spuriously, before its event occurs.
#[inline(always)]
pub fn inject_event_spurious_wake() -> bool {
    fault!(fire(Site::EventSpuriousWake), else false)
}

/// Report an spl-lock acquisition at the wrong interrupt level.
#[inline(always)]
pub fn inject_spl_wrong_level() -> bool {
    fault!(fire(Site::SplWrongLevel), else false)
}

/// Let a port die between the caller's send and the translation.
#[inline(always)]
pub fn inject_rpc_dead_port() -> bool {
    fault!(fire(Site::RpcDeadPort), else false)
}

/// Lose an RPC reply after the operation executed.
#[inline(always)]
pub fn inject_rpc_drop_reply() -> bool {
    fault!(fire(Site::RpcDropReply), else false)
}

/// Kill an engine worker at an operation boundary.
#[inline(always)]
pub fn inject_worker_crash() -> bool {
    fault!(fire(Site::WorkerCrash), else false)
}

/// Kill an engine worker while it holds its scratch lock.
#[inline(always)]
pub fn inject_worker_crash_holding() -> bool {
    fault!(fire(Site::WorkerCrashHolding), else false)
}

/// Declare the calling thread's fault role (its decision stream).
#[inline(always)]
pub fn set_fault_role(role: u32) {
    fault!(machk_fault::set_role(role), else ())
}

/// Whether the installed fault plan can kill a worker at either crash
/// site.
#[inline(always)]
pub fn crash_sites_armed() -> bool {
    fault!(
        machk_fault::site_enabled(Site::WorkerCrash)
            || machk_fault::site_enabled(Site::WorkerCrashHolding),
        else false
    )
}
