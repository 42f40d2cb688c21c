//! The workloads and what they share: the untraced/traced phase split
//! and the derivation of the common metrics.

mod engine_storm;
mod rpc_churn;
mod rpc_ping;
mod vm_fault;

use std::sync::atomic::Ordering;

use machk_ipc::RpcStats;

use crate::harness::{
    closed_loop, median, peak_rss_kib, Clock, Outcome, Phase, RunConfig, Window, CLIENTS, SEGMENTS,
    WINDOWS,
};
use crate::reference::NOMINAL_OP_NS;
use crate::report::{ratio, RunResult};
use crate::rng::Rng;
use crate::trace::{Layer, Tracer};

/// Workload names, in the order the documentation lists them.
pub const NAMES: [&str; 4] = ["rpc_ping", "rpc_churn", "vm_fault", "engine_storm"];

/// Run workload `name`; `None` if there is no such workload.
pub fn run(name: &str, cfg: &RunConfig) -> Option<RunResult> {
    Some(match name {
        "rpc_ping" => rpc_ping::run(cfg),
        "rpc_churn" => rpc_churn::run(cfg),
        "vm_fault" => vm_fault::run(cfg),
        "engine_storm" => engine_storm::run(cfg),
        _ => return None,
    })
}

/// The measured phases of one run: the untraced phase, and in a traced
/// run also the traced phase that follows it on the same state.
pub struct Phases {
    /// Untraced: end-to-end figures and the reference throughput.
    pub untraced: Phase,
    /// Traced (traced runs only): per-layer figures.
    pub traced: Option<Phase>,
}

/// Drive `op` on `state` with [`closed_loop`]. An untraced run
/// measures for the whole `cfg.seconds`, cut into [`SEGMENTS`] with a
/// call of `setup_burst` between each two and after the last; a traced
/// run gives half to an untraced phase and half to a traced one, so
/// their throughputs can be compared. `before_traced` sees the client
/// state between the two.
pub fn measure<S>(
    cfg: &RunConfig,
    state: &mut S,
    op: impl Fn(&mut S, &mut Rng, &mut Tracer) -> Outcome,
    before_traced: impl FnOnce(&S),
    mut setup_burst: impl FnMut(),
) -> Phases {
    if !cfg.trace {
        let segment = (cfg.seconds / SEGMENTS as f64, WINDOWS / SEGMENTS);
        let mut untraced = closed_loop(state, cfg.seed, 0, segment, false, &op);
        for s in 1..SEGMENTS {
            setup_burst();
            untraced.append(closed_loop(state, cfg.seed, s as u64, segment, false, &op));
        }
        setup_burst();
        return Phases {
            untraced,
            traced: None,
        };
    }
    let half = (cfg.seconds / 2.0, WINDOWS / 2);
    let untraced = closed_loop(state, cfg.seed, 0, half, false, &op);
    before_traced(state);
    let traced = closed_loop(state, cfg.seed, SEGMENTS as u64, half, true, &op);
    Phases {
        untraced,
        traced: Some(traced),
    }
}

fn write_hist(p: &Phase) -> &crate::hist::Hist {
    &p.write
}

fn op_hist(p: &Phase) -> &crate::hist::Hist {
    &p.op
}

/// Record the attempted/failed counts, the wall-clock figures and the
/// latency tails of the untraced phase into `r` and, in an untraced
/// run, its end-to-end metrics, which are read on the reference clock.
/// `setup_s.wall` is the median of `setup_times`: builds made before
/// the measured region and, so that one moment of host interference
/// cannot decide it, after it; `setup_s` is the same time scaled by the
/// host's median speed over the run, in reference seconds.
pub fn end_to_end(r: &mut RunResult, phases: &Phases, setup_times: Vec<f64>) {
    let untraced = &phases.untraced;
    r.attempted = untraced.attempted;
    r.failed = untraced.failed;
    r.set("ops_per_s", untraced.ops_per_s(Clock::Wall));
    r.set_pct("op_p50_ns", untraced.op_p50_ns(Clock::Wall));
    r.set_pct("op_p99_ns", untraced.quantile(op_hist, 0.99));
    r.set_pct("write_p99_ns", untraced.quantile(write_hist, 0.99));
    r.set("ops_per_s.whole_region", untraced.whole_ops_per_s());
    let reference_op_ns = untraced.reference_op_ns();
    r.set("bench.reference_op_ns", reference_op_ns);
    let setup_ms: Vec<String> = setup_times
        .iter()
        .map(|t| format!("{:.3}", t * 1e3))
        .collect();
    let setup_wall = median(setup_times);
    r.set("setup_s.wall", setup_wall);
    if phases.traced.is_some() {
        // The rest are reported by untraced runs only.
        return;
    }
    r.set("ops_per_ref_s", untraced.ops_per_s(Clock::Reference));
    r.set_pct("op_p50_ref_ns", untraced.op_p50_ns(Clock::Reference));
    let by_window = |name: &str, f: &dyn Fn(&Window) -> String| {
        let v: Vec<String> = untraced.windows.iter().map(f).collect();
        format!("{name} by window: {}", v.join(" "))
    };
    r.notes.push(by_window("ops_per_s", &|w| {
        format!("{:.0}", w.rate(Clock::Wall))
    }));
    r.notes.push(by_window("op_p50_ns", &|w| {
        w.p50.map_or("-".into(), |p| p.value.to_string())
    }));
    r.notes.push(by_window("bench.reference_op_ns", &|w| {
        format!("{:.2}", w.ref_op_ns)
    }));
    match peak_rss_kib() {
        Some(kib) => r.set("peak_rss_kib", kib as f64),
        None => r.checks.check(
            "peak_rss_kib readable",
            false,
            "no VmHWM in /proc/self/status",
        ),
    }
    r.notes
        .push(format!("setup builds, ms: {}", setup_ms.join(" ")));
    if reference_op_ns > 0.0 {
        r.set("setup_s", setup_wall * NOMINAL_OP_NS / reference_op_ns);
    } else {
        r.checks.check(
            "the reference was timed",
            false,
            "no window timed the reference",
        );
    }
    let value = |name: &str| r.values.get(name).copied().unwrap_or(0.0);
    let note = format!(
        "reported by --trace 1: ops_per_s={:.0} op_p50_ns={} ops_per_s.whole_region={:.0} op_p99_ns={} write_p99_ns={} bench.reference_op_ns={:.2} setup_s.wall={:.9}",
        value("ops_per_s"),
        value("op_p50_ns"),
        value("ops_per_s.whole_region"),
        value("op_p99_ns"),
        value("write_p99_ns"),
        value("bench.reference_op_ns"),
        value("setup_s.wall")
    );
    r.notes.push(note);
}

/// Record the span-derived metrics of the traced phase into `r`: per
/// layer `.p50_ns`, `.p99_ns` (when at least ten calls lie beyond it)
/// and `.share` of operation time, the unattributed share and the trace
/// overhead.
pub fn per_layer(r: &mut RunResult, phases: &Phases) {
    let Some(traced) = &phases.traced else {
        return;
    };
    let t = &traced.tracer;
    for layer in Layer::ALL {
        let calls = t.layer_calls(layer);
        if calls == 0 {
            continue;
        }
        let hist = &t.layers[layer as usize];
        for (suffix, q) in [("p50_ns", 0.50), ("p99_ns", 0.99)] {
            if let Some(p) = hist.percentile(q) {
                let name = format!("{}.{suffix}", layer.name());
                r.set(&name, p.value as f64);
                r.samples.insert(name, p.samples);
            }
        }
        r.set(
            &format!("{}.share", layer.name()),
            ratio(t.layer_ns(layer) as f64, t.op_ns as f64),
        );
    }
    r.set(
        "bench.unattributed.share",
        ratio(t.self_ns as f64, t.op_ns as f64),
    );
    r.set(
        "bench.trace_overhead_ratio",
        ratio(
            phases.untraced.ops_per_s(Clock::Reference),
            traced.ops_per_s(Clock::Reference),
        ),
    );
}

/// Record `ipc.rpc.failures_per_translation` from the public
/// [`RpcStats`] fields (traced runs only).
pub fn rpc_failures(r: &mut RunResult, phases: &Phases, stats: &RpcStats) {
    if phases.traced.is_none() {
        return;
    }
    // relaxed: counters read at quiescence, after the measured phases.
    let failures = stats.failures.load(Ordering::Relaxed);
    let translations = stats.translations.load(Ordering::Relaxed); // relaxed: as above
    r.set(
        "ipc.rpc.failures_per_translation",
        ratio(failures as f64, translations as f64),
    );
}

/// Write the traced phase's kept spans next to the benchmark, under
/// `traces/<workload>-seed<seed>.tsv`, and note where in `r`.
pub fn write_spans(r: &mut RunResult, workload: &str, cfg: &RunConfig, phases: &Phases) {
    let Some(traced) = &phases.traced else {
        return;
    };
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{workload}-seed{}.tsv", cfg.seed));
    let header = format!(
        "workload={workload} seed={} clients={CLIENTS} ops_traced={}",
        cfg.seed, traced.tracer.ops
    );
    r.notes
        .push(match traced.tracer.write_kept(&path, &header) {
            Ok(()) => format!("spans written to {}", path.display()),
            Err(e) => format!("spans not written to {}: {e}", path.display()),
        });
}
