//! `engine_storm`: the `ipc.engine` module itself — its op loop,
//! supervision checks, shedding test, batch drains, teardown and audit.
//! The client builds an `Engine` (set-up, outside the timed region) and
//! runs one storm with the default mix and a seed drawn from the
//! workload seed; then the next, until the time is up.
//!
//! The measured storms have one worker, which `Engine::run` runs inline
//! on the calling thread: the op loop, the shedding test, batch drains,
//! the supervision loop, teardown and audit all run, but no worker
//! thread is spawned and nothing contends. With `nproc` workers on a
//! host of two shared hardware threads, the storms' throughput spread by
//! 0.27–0.34 (IQR over median) over five runs, more than any gate
//! allows. The traced run therefore adds a third phase of storms with
//! `nproc` worker threads and reports them as per-layer figures, which
//! carry no bound: `ipc.engine.nproc_workers.ns_per_rpc` and
//! `ipc.engine.nproc_workers.shed_ratio`.
//!
//! `Engine::run` exposes no per-RPC timing, so the client times each
//! storm and derives per-RPC figures from it:
//!
//! * `ops_per_s` — RPCs completed per second of `Engine::run` time
//!   (`ops_per_ref_s` on the reference clock);
//! * `op_p50_ns` / `op_p99_ns` — median (over the bands of windows, as
//!   on every workload; `op_p50_ref_ns` on the reference clock) / p99
//!   over storms of the mean closed-loop RPC latency inside a storm
//!   (storm time × workers ÷ RPCs);
//! * `write_p99_ns` — p99 over storms of storm time × workers ÷
//!   write-class operations (creates, terminates and transfers), the
//!   cost a storm's writes carry;
//! * `setup_s` — median `Engine::new` time.

use machk_ipc::{Engine, EngineConfig, EngineReport};

use super::{end_to_end, per_layer, write_spans, Phases};
use crate::harness::{nproc, window_ns, Phase, Recorder, RunConfig, WINDOWS};
use crate::report::{ratio, RunResult};
use crate::rng::Rng;
use crate::trace::{Layer, Tracer};

/// Operations in one storm, shared among its workers. Large enough that
/// a storm's fixed costs (64 stable ports built, drained and torn down)
/// do not dominate it: with 500 the storms measured mostly allocation
/// and teardown, and their throughput swung by a third from run to run.
const OPS_PER_STORM: usize = 5_000;

/// Length of a measurement window, ms. A storm takes 1–3 ms on the
/// host the benchmark was tuned on, so a window holds the twenty storms
/// or more its median latency needs even in the slow windows the gated
/// bands are read from; with the 47 ms windows of the closed-loop
/// workloads a third of a slow run's windows held fewer.
const WINDOW_MS: f64 = 100.0;

#[derive(Default)]
struct Totals {
    storms: u64,
    rpcs: u64,
    shed: u64,
    retry_exhausted: u64,
    lock_timeouts: u64,
    transfers: u64,
    transfer_full: u64,
    retries: u64,
    bad_reports: Vec<String>,
}

impl Totals {
    fn add(&mut self, rep: &EngineReport) {
        self.storms += 1;
        self.rpcs += rep.rpcs;
        self.shed += rep.shed;
        self.retry_exhausted += rep.retry_exhausted;
        self.lock_timeouts += rep.lock_timeouts;
        self.transfers += rep.transfers;
        self.transfer_full += rep.transfer_full;
        self.retries += rep.retries;
        let sound = rep.rpc_balanced
            && rep.ledger_total == 1
            && rep.creates == rep.terminates
            && rep.crashes == 0;
        if !sound && self.bad_reports.len() < 4 {
            self.bad_reports.push(format!(
                "storm {}: rpc_balanced={} ledger_total={} creates={} terminates={} crashes={}",
                self.storms,
                rep.rpc_balanced,
                rep.ledger_total,
                rep.creates,
                rep.terminates,
                rep.crashes
            ));
        }
    }
}

/// One phase of back-to-back storms of `workers` workers each.
fn storms(
    cfg: &RunConfig,
    phase: u64,
    seconds: f64,
    workers: usize,
    traced: bool,
    totals: &mut Totals,
    setup_times: &mut Vec<f64>,
) -> Phase {
    let windows = ((seconds * 1e3 / WINDOW_MS) as usize).clamp(1, WINDOWS);
    let win_ns = window_ns(seconds, windows);
    let mut rec = Recorder::new(win_ns, 0, windows);
    let mut rng = Rng::stream(cfg.seed, 0, phase);
    let epoch = std::time::Instant::now();
    let mut tr = Tracer::new(traced, 0, epoch);
    let (mut attempted, mut failed) = (0u64, 0u64);
    loop {
        let t0 = tr.now();
        tr.begin_op(t0);
        let config = EngineConfig {
            workers,
            ops_per_worker: OPS_PER_STORM / workers,
            seed: rng.next_u64(),
            ..EngineConfig::default()
        };
        let engine = tr.call(Layer::EngineNew, || Engine::new(config));
        let t1 = tr.now();
        let rep = tr.call(Layer::EngineRun, || engine.run());
        let t2 = tr.now();
        totals.add(&rep);
        tr.end_op(t2, true);
        setup_times.push((t1 - t0) as f64 / 1e9);
        attempted += rep.rpcs;
        failed += rep.shed + rep.retry_exhausted + rep.lock_timeouts;

        let run_ns = t2 - t1;
        let writes = rep.creates + rep.terminates + rep.transfers;
        rec.record(
            t2,
            run_ns * workers as u64 / rep.rpcs.max(1),
            Some(run_ns * workers as u64 / writes.max(1)),
            rep.rpcs,
            run_ns,
        );
        if t2 >= win_ns * windows as u64 {
            break;
        }
    }
    Phase::new(rec, attempted, failed, tr)
}

/// Run `engine_storm`.
pub fn run(cfg: &RunConfig) -> RunResult {
    let mut totals = Totals::default();
    let mut traced_totals = Totals::default();
    let mut nproc_totals = Totals::default();
    let mut setup_times = Vec::new();
    let seconds = if cfg.trace {
        cfg.seconds / 3.0
    } else {
        cfg.seconds
    };
    let untraced = storms(cfg, 0, seconds, 1, false, &mut totals, &mut setup_times);
    let traced = cfg.trace.then(|| {
        storms(
            cfg,
            1,
            seconds,
            1,
            true,
            &mut traced_totals,
            &mut Vec::new(),
        )
    });
    let threaded = cfg.trace.then(|| {
        let workers = nproc();
        storms(
            cfg,
            2,
            seconds,
            workers,
            false,
            &mut nproc_totals,
            &mut Vec::new(),
        )
    });
    let phases = Phases { untraced, traced };

    let mut r = RunResult::default();
    end_to_end(&mut r, &phases, setup_times);
    per_layer(&mut r, &phases);
    write_spans(&mut r, "engine_storm", cfg, &phases);
    if let Some(traced) = &phases.traced {
        let t = &traced_totals;
        let rpcs = t.rpcs as f64;
        let run_ns = traced.tracer.layer_ns(Layer::EngineRun) as f64;
        r.set("ipc.engine.run.ns_per_rpc", ratio(run_ns, rpcs));
        r.set("ipc.engine.shed_ratio", ratio(t.shed as f64, rpcs));
        r.set(
            "ipc.engine.transfer_full_ratio",
            ratio(
                t.transfer_full as f64,
                (t.transfers + t.transfer_full) as f64,
            ),
        );
        r.set("ipc.engine.retries_per_rpc", ratio(t.retries as f64, rpcs));
    }
    if let Some(threaded) = &threaded {
        let t = &nproc_totals;
        r.set(
            "ipc.engine.nproc_workers.ns_per_rpc",
            ratio(1e9, threaded.whole_ops_per_s()),
        );
        r.set(
            "ipc.engine.nproc_workers.shed_ratio",
            ratio(t.shed as f64, t.rpcs as f64),
        );
        r.notes.push(format!(
            "engine failures ({} storms of {} workers): shed={} retry_exhausted={} lock_timeouts={}",
            t.storms,
            nproc(),
            t.shed,
            t.retry_exhausted,
            t.lock_timeouts
        ));
    }
    r.notes.push(format!(
        "engine failures (untraced storms): shed={} retry_exhausted={} lock_timeouts={}",
        totals.shed, totals.retry_exhausted, totals.lock_timeouts
    ));
    let all = [&totals, &traced_totals, &nproc_totals];
    let bad: Vec<&str> = all
        .iter()
        .flat_map(|t| t.bad_reports.iter().map(String::as_str))
        .collect();
    let storms: u64 = all.iter().map(|t| t.storms).sum();
    r.checks.check(
        "every storm: rpc_balanced, ledger_total == 1, creates == terminates, no crash",
        bad.is_empty(),
        if bad.is_empty() {
            format!("{storms} storms")
        } else {
            bad.join("; ")
        },
    );
    r
}
