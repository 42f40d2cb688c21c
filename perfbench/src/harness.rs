//! The closed-loop runner, set-up timing and the process probes.

use std::time::Instant;

use crate::hist::{Hist, Percentile};
use crate::reference::{Reference, NOMINAL_OP_NS};
use crate::rng::Rng;
use crate::trace::Tracer;

/// Measurement windows per closed-loop phase.
pub const WINDOWS: usize = 640;

/// The gated band of each stretch of a phase's windows, ranked slowest
/// first: from rank `n / BAND.0` up to rank `n / BAND.1` (see
/// `Phase::bands`).
pub const BAND: (usize, usize) = (20, 4);

/// Client threads of the closed-loop workloads. One: on a host of two
/// shared hardware threads, runs of two contending clients drift by a
/// fifth from run to run (see README.md), too much for a gate.
pub const CLIENTS: usize = 1;

/// Set-up builds in one burst. An untraced run times a burst before
/// its measured region, between each two of its [`SEGMENTS`] and after
/// it, and reports the median of all the builds. A build takes a
/// millisecond or two, and the host's speed swings from one second to
/// the next, so builds made at one moment all read alike; bursts spread
/// over the run are what make the median repeat.
pub const SETUP_REPS: usize = 6;

/// Segments an untraced run's measured region is cut into, with a
/// set-up burst between each two.
pub const SEGMENTS: usize = 8;

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed.
    pub seed: u64,
    /// Length of the measured region, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// How one operation went.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// The operation belongs to the workload's write class.
    pub write: bool,
    /// It completed as expected (an expected typed error is success).
    pub ok: bool,
}

/// What is kept of one measurement window: its throughput, its median
/// latency and the host's speed just after it. The window's histogram
/// is folded into these when the window closes and then reused, so the
/// recorder's size does not grow with the number of windows.
#[derive(Debug, Clone, Copy, Default)]
pub struct Window {
    /// Operations completed in the window.
    pub ops: u64,
    /// Time the window covers, ns.
    pub span_ns: u64,
    /// Median operation latency in the window, with the samples it was
    /// read from; `None` when fewer than twenty samples ended in it.
    pub p50: Option<Percentile>,
    /// Wall time of one reference op, timed as the window closed, ns;
    /// 0 for a window that never opened.
    pub ref_op_ns: f64,
}

/// The clock a figure is read on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall-clock time.
    Wall,
    /// Reference time: wall time scaled by the host's speed in the
    /// window, so that one reference second is the time the host takes
    /// for `1e9 / NOMINAL_OP_NS` reference ops (see `reference.rs`).
    Reference,
}

impl Window {
    /// Reference seconds per wall second in the window on `clock`.
    fn scale(&self, clock: Clock) -> f64 {
        match clock {
            Clock::Wall => 1.0,
            Clock::Reference => NOMINAL_OP_NS / self.ref_op_ns,
        }
    }

    /// Operations per second over the window on `clock`.
    pub fn rate(&self, clock: Clock) -> f64 {
        if self.span_ns == 0 {
            0.0
        } else {
            self.ops as f64 * 1e9 / (self.span_ns as f64 * self.scale(clock))
        }
    }

    /// Median operation latency in the window on `clock`, ns.
    fn p50_ns(&self, clock: Clock) -> Option<f64> {
        self.p50.map(|p| p.value as f64 * self.scale(clock))
    }
}

/// One client's latency recorder for one phase: a summary per window,
/// and the whole phase's latency histograms for the tails.
pub struct Recorder {
    win_ns: u64,
    windows: Vec<Window>,
    open: usize,
    current: Hist,
    reference: Reference,
    /// Latency of every operation of the phase.
    pub op: Hist,
    /// Latency of the phase's write-class operations.
    pub write: Hist,
}

impl Recorder {
    /// A recorder of `windows` windows of `win_ns` each, every window
    /// starting with `span_ns` of covered time.
    pub fn new(win_ns: u64, span_ns: u64, windows: usize) -> Recorder {
        Recorder {
            win_ns,
            windows: vec![
                Window {
                    span_ns,
                    ..Window::default()
                };
                windows
            ],
            open: 0,
            current: Hist::new(),
            reference: Reference::new(),
            op: Hist::new(),
            write: Hist::new(),
        }
    }

    fn close_window(&mut self) {
        self.windows[self.open].p50 = self.current.percentile(0.5);
        self.windows[self.open].ref_op_ns = self.reference.op_ns();
        self.current.clear();
    }

    /// Record a sample that ended at `end` ns since the phase's epoch:
    /// `ops` operations of latency `op_ns` (of which `write_ns`, when
    /// given, is the write-class latency), adding `busy_ns` to the
    /// window's covered time.
    #[inline]
    pub fn record(&mut self, end: u64, op_ns: u64, write_ns: Option<u64>, ops: u64, busy_ns: u64) {
        let w = ((end / self.win_ns) as usize).min(self.windows.len() - 1);
        if w != self.open {
            self.close_window();
            self.open = w;
        }
        self.current.record(op_ns);
        self.op.record(op_ns);
        if let Some(d) = write_ns {
            self.write.record(d);
        }
        let win = &mut self.windows[w];
        win.ops += ops;
        win.span_ns += busy_ns;
    }

    /// Close the last window.
    pub fn finish(mut self) -> Recorder {
        self.close_window();
        self
    }
}

/// Everything one measured phase produced.
pub struct Phase {
    /// Per-window figures.
    pub windows: Vec<Window>,
    /// Latency of every operation.
    pub op: Hist,
    /// Latency of write-class operations.
    pub write: Hist,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Span aggregates (empty when untraced).
    pub tracer: Tracer,
}

impl Phase {
    /// A phase of one recorder's windows and histograms.
    pub fn new(rec: Recorder, attempted: u64, failed: u64, tracer: Tracer) -> Phase {
        let rec = rec.finish();
        Phase {
            windows: rec.windows,
            op: rec.op,
            write: rec.write,
            attempted,
            failed,
            tracer,
        }
    }

    /// Append a later phase on the same state: its windows follow this
    /// phase's, and its samples and counts add.
    pub fn append(&mut self, later: Phase) {
        self.windows.extend(later.windows);
        self.op.merge(&later.op);
        self.write.merge(&later.write);
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.tracer.merge(later.tracer);
    }

    /// The bands of the phase on `clock`: its windows cut, in time
    /// order, into [`SEGMENTS`] stretches, and of each stretch the
    /// windows ranked by throughput on `clock`, slowest first, from the
    /// twentieth to the quarter of the way up.
    ///
    /// The host shares its cores with other tenants. Most of the time a
    /// neighbour keeps the core's other hardware thread busy; for
    /// stretches of tens of milliseconds to seconds it does not, and
    /// the program then runs up to half again as fast. How much of a
    /// run falls in such stretches changes from run to run (from none
    /// to most of it), so figures read from the fastest windows, or
    /// from all of them, move with it. A band below the median is read
    /// from the ordinary windows whether or not a run had fast
    /// stretches, and it leaves out the slowest twentieth, where short
    /// stalls of the whole guest land. A stall can also last seconds, a
    /// quarter of a run or more, and would then fill a band taken over
    /// the whole run; so each stretch has its band, and the figures are
    /// medians over the stretches. A slowdown of the program moves
    /// every band as it moves every window; one confined to part of the
    /// run shows in [`Phase::whole_ops_per_s`], which every run prints.
    fn bands(&self, clock: Clock) -> Vec<Vec<&Window>> {
        let per = self.windows.len().div_ceil(SEGMENTS).max(1);
        self.windows
            .chunks(per)
            .map(|stretch| {
                let mut ranked: Vec<&Window> = stretch
                    .iter()
                    .filter(|w| w.ops > 0 && w.ref_op_ns > 0.0)
                    .collect();
                ranked.sort_by(|a, b| a.rate(clock).total_cmp(&b.rate(clock)));
                let n = ranked.len();
                let (from, to) = (n / BAND.0, (n / BAND.1).max(1));
                ranked.truncate(to);
                ranked.drain(..from.min(to.saturating_sub(1)));
                ranked
            })
            .filter(|band| !band.is_empty())
            .collect()
    }

    /// Completed operations per second on `clock`: the median over the
    /// bands of each band's throughput.
    pub fn ops_per_s(&self, clock: Clock) -> f64 {
        median(
            self.bands(clock)
                .iter()
                .map(|band| {
                    let ops: u64 = band.iter().map(|w| w.ops).sum();
                    let span: f64 = band.iter().map(|w| w.span_ns as f64 * w.scale(clock)).sum();
                    if span == 0.0 {
                        0.0
                    } else {
                        ops as f64 * 1e9 / span
                    }
                })
                .collect(),
        )
    }

    /// Completed operations per second of wall time over the whole
    /// phase.
    pub fn whole_ops_per_s(&self) -> f64 {
        let ops: u64 = self.windows.iter().map(|w| w.ops).sum();
        let span: u64 = self.windows.iter().map(|w| w.span_ns).sum();
        if span == 0 {
            0.0
        } else {
            ops as f64 * 1e9 / span as f64
        }
    }

    /// Median operation latency on `clock`: the median over the bands
    /// of each band's median window latency, with the number of samples
    /// behind them; `None` when no window of any band holds enough
    /// samples for a median.
    pub fn op_p50_ns(&self, clock: Clock) -> Option<(f64, u64)> {
        let mut samples = 0;
        let mut medians = Vec::new();
        for band in self.bands(clock) {
            let p50s: Vec<f64> = band.iter().filter_map(|w| w.p50_ns(clock)).collect();
            if p50s.is_empty() {
                continue;
            }
            samples += band
                .iter()
                .filter_map(|w| w.p50)
                .map(|p| p.samples)
                .sum::<u64>();
            medians.push(median(p50s));
        }
        (!medians.is_empty()).then(|| (median(medians), samples))
    }

    /// Median wall time of one reference op over the phase's windows,
    /// ns: the host's speed during the phase.
    pub fn reference_op_ns(&self) -> f64 {
        median(
            self.windows
                .iter()
                .map(|w| w.ref_op_ns)
                .filter(|&t| t > 0.0)
                .collect(),
        )
    }

    /// The `q`-quantile of `pick`'s whole-phase histogram, with its
    /// sample count; `None` when fewer than ten samples lie beyond it.
    pub fn quantile(&self, pick: fn(&Phase) -> &Hist, q: f64) -> Option<(f64, u64)> {
        let p = pick(self).percentile(q)?;
        Some((p.value as f64, p.samples))
    }
}

/// Median of `v` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Window length for a phase of `seconds` cut into `windows`, ns.
pub fn window_ns(seconds: f64, windows: usize) -> u64 {
    ((seconds * 1e9) as u64 / windows as u64).max(1)
}

/// Run a closed loop on the calling thread, the benchmark's one client:
/// it issues its next operation only when the previous one returned,
/// for `seconds` cut into `windows`. It draws its operations from
/// `Rng::stream(seed, 0, phase)`.
pub fn closed_loop<S>(
    state: &mut S,
    seed: u64,
    phase: u64,
    (seconds, windows): (f64, usize),
    traced: bool,
    op: impl Fn(&mut S, &mut Rng, &mut Tracer) -> Outcome,
) -> Phase {
    let win_ns = window_ns(seconds, windows);
    let mut rng = Rng::stream(seed, 0, phase);
    let mut rec = Recorder::new(win_ns, win_ns, windows);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut tracer = Tracer::new(traced, 0, Instant::now());
    let deadline = win_ns * windows as u64;
    let mut t0 = tracer.now();
    loop {
        tracer.begin_op(t0);
        let out = op(state, &mut rng, &mut tracer);
        let t1 = tracer.now();
        tracer.end_op(t1, out.write);
        attempted += 1;
        failed += u64::from(!out.ok);
        let d = t1 - t0;
        rec.record(t1, d, out.write.then_some(d), 1, 0);
        if t1 >= deadline {
            break;
        }
        t0 = tracer.now();
    }
    Phase::new(rec, attempted, failed, tracer)
}

/// Build the workload state `reps` times, timing each build, and keep
/// the last. Returns the state and the build times in seconds. Earlier
/// builds are dropped outside the timed builds.
pub fn timed_setup<T>(reps: usize, build: impl Fn() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps.max(1) {
        drop(kept.take());
        let t = Instant::now();
        let state = build();
        times.push(t.elapsed().as_secs_f64());
        kept = Some(state);
    }
    (kept.expect("at least one build"), times)
}

/// Peak resident set of this process (`VmHWM`), KiB.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Hardware threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
