//! Pluggable execution host: real OS threads or a deterministic simulator.
//!
//! Every blocking, spinning, or time-reading operation in the sync stack
//! (`machk-sync`, `machk-lock`, `machk-event`, `machk-intr`, `machk-fault`)
//! funnels through this module. By default nothing is registered and each
//! function falls straight through to `std` (OS threads, `Instant` time,
//! real `park`/`unpark`) — the exact behaviour the stack had before this
//! module existed, with one thread-local `Option` check added only on
//! already-slow paths (spins, yields, sleeps, parks; never the uncontended
//! lock fast path).
//!
//! A simulator such as `machk-sim` registers a [`Host`] on each thread it
//! manages via [`set_thread_host`]. From then on, every call becomes a
//! *yield point*: the simulator's scheduler decides who runs next, its
//! virtual clock answers [`now`], and its seeded PRNG answers
//! [`thread_seed`]. Because the registration is per-thread, simulated and
//! real threads coexist in one process (e.g. the test harness thread keeps
//! real time while the threads inside a simulation run on virtual time).
//!
//! The paper's locking protocols are all *time-and-order* protocols: spin
//! until a holder releases, block until a wakeup, give up at a deadline.
//! Virtualizing exactly {spin, yield, sleep, park/unpark, now, spawn} is
//! therefore sufficient to run the whole stack, unchanged, under a
//! deterministic scheduler — see `machk-sim` for the other half.

use std::cell::RefCell;
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use crate::held;

/// Where a spin is pointed, so a simulated host can model cache-coherence
/// cost (paper §2: TAS spinning invalidates the lock line in every
/// waiter's cache; MCS spins stay in a waiter-local line).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpinSite {
    /// Spinning on a line shared by every waiter (TAS/TTAS word, ticket
    /// counter). The value identifies the line (its address) so a host
    /// can count concurrent spinners per line.
    SharedLine(usize),
    /// Spinning on a waiter-local line (an MCS queue node).
    LocalLine,
    /// A spin with no modelled location (seqlock retries, generic waits).
    Generic,
}

/// An execution host: supplies threads, time, and blocking primitives.
///
/// Implementations must be fully deterministic given their own seed if
/// they want replayable schedules; the OS fallback (no host registered)
/// makes no such promise.
pub trait Host: Send + Sync + 'static {
    /// Monotonic time in nanoseconds since the host's epoch.
    fn now(&self) -> u64;
    /// The simulated CPU the calling thread currently runs on.
    fn cpu_id(&self) -> usize;
    /// Number of simulated CPUs on this host.
    fn cores(&self) -> usize;
    /// Stable identifier of the calling thread within this host.
    fn current_id(&self) -> u64;
    /// Deterministic per-thread seed for decorrelation jitter.
    fn thread_seed(&self) -> u64;
    /// One spin-wait hint at `site`; a scheduling point.
    fn spin_hint(&self, site: SpinSite);
    /// `hints` consecutive spin hints, charged as one scheduling point
    /// (backoff pauses).
    fn spin_batch(&self, hints: u32);
    /// Voluntarily reschedule.
    fn yield_now(&self);
    /// Sleep for a duration of host time.
    fn sleep(&self, d: Duration);
    /// Charge `work_ns` of CPU work to the calling thread without an
    /// observable side effect — lets workloads model critical-section
    /// lengths in virtual time. (No-op on the OS host.)
    fn advance(&self, work_ns: u64);
    /// Block until [`Host::unpark`] targets this thread (or a stored
    /// permit is consumed). Spurious returns are allowed.
    fn park(&self);
    /// [`Host::park`] with a timeout.
    fn park_timeout(&self, d: Duration);
    /// Wake thread `id` (or store a permit if it is not parked).
    fn unpark(&self, id: u64);
    /// Start a new host thread running `body`; returns its id.
    fn spawn(&self, body: Box<dyn FnOnce() + Send>) -> u64;
    /// Block until host thread `id` finishes.
    fn join(&self, id: u64);
    /// A contended lock acquisition completed at `site` after spinning
    /// (cost-model hook; no-op on the OS host).
    fn lock_acquired(&self, site: SpinSite);
    /// One-line description (seed, cores, schedule position) embedded in
    /// watchdog escalation reports so a hang is replayable from the
    /// report alone. Multi-line output is indented by the reporter.
    fn describe(&self) -> String;
}

thread_local! {
    static HOST: RefCell<Option<Arc<dyn Host>>> = const { RefCell::new(None) };
}

/// Register (or clear) the host governing the calling thread.
///
/// Simulators call this first thing on every thread they spawn. Passing
/// `None` restores direct OS behaviour.
pub fn set_thread_host(host: Option<Arc<dyn Host>>) {
    HOST.with(|h| *h.borrow_mut() = host);
}

/// The host governing the calling thread, if any.
pub fn current_host() -> Option<Arc<dyn Host>> {
    HOST.with(|h| h.borrow().clone())
}

#[inline]
fn with_host<R>(f: impl FnOnce(&Arc<dyn Host>) -> R) -> Option<R> {
    HOST.with(|h| h.borrow().as_ref().map(f))
}

fn os_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the host epoch (virtual under a simulator, a
/// process-wide `Instant` epoch on the OS).
#[inline]
pub fn now() -> u64 {
    with_host(|h| h.now()).unwrap_or_else(|| os_epoch().elapsed().as_nanos() as u64)
}

/// The host time `d` from now: a deadline for timed waits, compared
/// against [`now`] and turned back into a wait with [`until`].
#[inline]
pub fn deadline_after(d: Duration) -> u64 {
    now().saturating_add(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
}

/// Host time left until `deadline` (zero once it has passed).
#[inline]
pub fn until(deadline: u64) -> Duration {
    Duration::from_nanos(deadline.saturating_sub(now()))
}

/// One spin-wait hint at `site` (a scheduling point under a simulator).
#[inline]
pub fn spin_hint(site: SpinSite) {
    if with_host(|h| h.spin_hint(site)).is_none() {
        core::hint::spin_loop();
    }
}

/// `hints` consecutive spin hints, batched into one scheduling point.
#[inline]
pub fn spin_batch(hints: u32) {
    if with_host(|h| h.spin_batch(hints)).is_none() {
        for _ in 0..hints {
            core::hint::spin_loop();
        }
    }
}

/// Voluntarily reschedule.
#[inline]
pub fn yield_now() {
    if with_host(|h| h.yield_now()).is_none() {
        std::thread::yield_now();
    }
}

/// Sleep for `d` of host time.
#[inline]
pub fn sleep(d: Duration) {
    if with_host(|h| h.sleep(d)).is_none() {
        std::thread::sleep(d);
    }
}

/// Charge `work_ns` of modelled CPU work (no-op on the OS host).
#[inline]
pub fn advance(work_ns: u64) {
    with_host(|h| h.advance(work_ns));
}

/// The simulated CPU id of the calling thread (0 on the OS host).
#[inline]
pub fn cpu_id() -> usize {
    with_host(|h| h.cpu_id()).unwrap_or(0)
}

/// Deterministic per-thread jitter seed (hashed thread id on the OS).
#[inline]
pub fn thread_seed() -> u64 {
    let s = with_host(|h| h.thread_seed())
        .unwrap_or_else(|| (u64::from(held::thread_tag()) << 1) | 0xA5A5_0001);
    if s == 0 { 0xA5A5_0001 } else { s }
}

/// Park the calling thread until unparked (spurious returns allowed).
#[inline]
pub fn park() {
    if with_host(|h| h.park()).is_none() {
        std::thread::park();
    }
}

/// Park with a timeout.
#[inline]
pub fn park_timeout(d: Duration) {
    if with_host(|h| h.park_timeout(d)).is_none() {
        std::thread::park_timeout(d);
    }
}

/// A contended acquisition completed at `site` (cost-model hook).
#[inline]
pub fn lock_acquired(site: SpinSite) {
    with_host(|h| h.lock_acquired(site));
}

/// Description of the calling thread's host, if one is registered —
/// embedded in watchdog escalation reports.
pub fn describe() -> Option<String> {
    with_host(|h| h.describe())
}

/// A wakeup target: identifies a thread to [`Host::unpark`] on whatever host
/// it belongs to. Captured at wait-record creation time by `machk-event`.
#[derive(Clone, Debug)]
pub struct ThreadToken {
    os: std::thread::Thread,
    hosted: Option<(Weak<dyn Host>, u64)>,
}

impl ThreadToken {
    /// Token for the calling thread.
    pub fn current() -> ThreadToken {
        ThreadToken {
            os: std::thread::current(),
            hosted: with_host(|h| (Arc::downgrade(h), h.current_id())),
        }
    }

    /// Wake the thread this token names (or store its permit).
    pub fn unpark(&self) {
        if let Some((host, id)) = &self.hosted {
            if let Some(host) = host.upgrade() {
                host.unpark(*id);
                return;
            }
        }
        self.os.unpark();
    }
}

/// Handle to a spawned host thread; see [`spawn`] / [`join`].
pub struct JoinToken {
    inner: JoinInner,
}

enum JoinInner {
    Os(std::thread::JoinHandle<()>),
    Hosted(Arc<dyn Host>, u64),
}

/// Spawn `body` on the calling thread's host (an OS thread when no host
/// is registered). Host threads inherit the spawner's host registration.
pub fn spawn(body: impl FnOnce() + Send + 'static) -> JoinToken {
    match current_host() {
        Some(h) => {
            let id = h.spawn(Box::new(body));
            JoinToken {
                inner: JoinInner::Hosted(h, id),
            }
        }
        None => JoinToken {
            inner: JoinInner::Os(std::thread::spawn(body)),
        },
    }
}

/// Wait for a spawned host thread to finish. Dropping the token without
/// joining detaches the thread instead.
pub fn join(token: JoinToken) {
    match token.inner {
        JoinInner::Os(handle) => {
            // Propagate panics like scope-join would; the watchdog path
            // never joins a panicked thread (it times out first).
            if handle.join().is_err() {
                panic!("host thread panicked");
            }
        }
        JoinInner::Hosted(host, id) => host.join(id),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn os_now_is_monotonic() {
        let a = now();
        let b = now();
        assert!(b >= a);
    }

    #[test]
    fn os_fallbacks_do_not_panic() {
        spin_hint(SpinSite::Generic);
        spin_hint(SpinSite::SharedLine(0x40));
        spin_batch(8);
        yield_now();
        sleep(Duration::from_micros(1));
        advance(1_000);
        assert_eq!(cpu_id(), 0);
        assert!(thread_seed() != 0);
        assert!(describe().is_none());
        lock_acquired(SpinSite::LocalLine);
    }

    #[test]
    fn token_unpark_wakes_os_park() {
        let token = std::sync::Arc::new(std::sync::Mutex::new(None::<ThreadToken>));
        let token2 = token.clone();
        let woke = std::sync::Arc::new(AtomicU64::new(0));
        let woke2 = woke.clone();
        let t = std::thread::spawn(move || {
            *token2.lock().unwrap() = Some(ThreadToken::current());
            while woke2.load(Ordering::Acquire) == 0 {
                park_timeout(Duration::from_millis(1));
            }
        });
        loop {
            if let Some(tok) = token.lock().unwrap().clone() {
                woke.store(1, Ordering::Release);
                tok.unpark();
                break;
            }
            std::thread::yield_now();
        }
        t.join().unwrap();
    }

    #[test]
    fn spawn_join_roundtrip() {
        let hit = std::sync::Arc::new(AtomicU64::new(0));
        let hit2 = hit.clone();
        let t = spawn(move || {
            hit2.store(7, Ordering::Release);
        });
        join(t);
        assert_eq!(hit.load(Ordering::Acquire), 7);
    }
}
