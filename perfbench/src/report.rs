//! Metric names, correctness checks, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload from its untraced
/// run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("ops_per_ref_s", "1/ref-s"),
    ("op_p50_ref_ns", "ref-ns"),
    ("setup_s", "s"),
    ("peak_rss_kib", "KiB"),
];

/// Per-layer metrics, reported by every workload from its traced run:
/// `(name, unit)`. A workload that never calls a layer reports 0 for
/// it. The first five are end-to-end figures read on the wall clock
/// from the traced run's untraced half, whose run-to-run spread on a
/// shared host is wider than any bound a gate could use (see
/// README.md): the throughput and median latency of the bands, the
/// whole-region throughput, and the tails; then the host's speed and
/// the set-up time on the wall clock.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("ops_per_s", "1/s"),
    ("op_p50_ns", "ns"),
    ("ops_per_s.whole_region", "1/s"),
    ("op_p99_ns", "ns"),
    ("write_p99_ns", "ns"),
    ("bench.reference_op_ns", "ns"),
    ("setup_s.wall", "s"),
    ("ipc.namespace.translate.p50_ns", "ns"),
    ("ipc.namespace.translate.p99_ns", "ns"),
    ("ipc.namespace.translate.share", "ratio"),
    ("ipc.namespace.insert.p50_ns", "ns"),
    ("ipc.namespace.remove.p50_ns", "ns"),
    ("ipc.rpc.msg_rpc.p50_ns", "ns"),
    ("ipc.rpc.msg_rpc.p99_ns", "ns"),
    ("ipc.rpc.msg_rpc.share", "ratio"),
    ("ipc.rpc.failures_per_translation", "ratio"),
    ("ipc.port.try_send.p50_ns", "ns"),
    ("ipc.port.receive_batch.ns_per_msg", "ns"),
    ("ipc.port.full_ratio", "ratio"),
    ("ipc.port.destroy.p50_ns", "ns"),
    ("kernel.create_task_with_port.p50_ns", "ns"),
    ("refcount.ledger.take.p50_ns", "ns"),
    ("refcount.ledger.release.p50_ns", "ns"),
    ("refcount.objref.release.p50_ns", "ns"),
    ("refcount.final_drop.p50_ns", "ns"),
    ("vm.map.fault.p50_ns", "ns"),
    ("vm.map.fault.p99_ns", "ns"),
    ("vm.map.fault.share", "ratio"),
    ("vm.map.fault.hit_ratio", "ratio"),
    ("vm.map.reclaim.p50_ns", "ns"),
    ("vm.map.protect.p50_ns", "ns"),
    ("vm.map.reclaim.pages_per_call", "count"),
    ("ipc.engine.run.ns_per_rpc", "ns"),
    ("ipc.engine.shed_ratio", "ratio"),
    ("ipc.engine.transfer_full_ratio", "ratio"),
    ("ipc.engine.retries_per_rpc", "ratio"),
    ("ipc.engine.nproc_workers.ns_per_rpc", "ns"),
    ("ipc.engine.nproc_workers.shed_ratio", "ratio"),
    ("bench.unattributed.share", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// Correctness ledger of one run.
#[derive(Debug, Default)]
pub struct Checks {
    results: Vec<(String, bool, String)>,
}

impl Checks {
    /// Record check `name` with its outcome and a detail for the log.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.results.push((name.to_string(), ok, detail.into()));
    }

    /// Whether every check passed.
    pub fn all_ok(&self) -> bool {
        self.results.iter().all(|(_, ok, _)| *ok)
    }

    /// One log line per check.
    pub fn lines(&self) -> Vec<String> {
        self.results
            .iter()
            .map(|(name, ok, detail)| {
                let verdict = if *ok { "ok" } else { "FAILED" };
                format!("check {name}: {verdict} ({detail})")
            })
            .collect()
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted in the reported (untraced) region.
    pub attempted: u64,
    /// Operations that failed, were refused or were shed.
    pub failed: u64,
    /// Metric values by name; what is reported is selected by
    /// [`END_TO_END`] or [`PER_LAYER`].
    pub values: BTreeMap<String, f64>,
    /// Sample counts behind percentile metrics, for the log.
    pub samples: BTreeMap<String, u64>,
    /// Correctness checks.
    pub checks: Checks,
    /// Extra log lines (where spans were written, failure breakdowns).
    pub notes: Vec<String>,
}

impl RunResult {
    /// Set a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Set a percentile metric with its sample count.
    pub fn set_pct(&mut self, name: &str, pct: Option<(f64, u64)>) {
        match pct {
            Some((v, n)) => {
                self.set(name, v);
                self.samples.insert(name.to_string(), n);
            }
            None => self.checks.check(
                &format!("{name} has enough samples"),
                false,
                "fewer than ten samples beyond the percentile",
            ),
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.all_ok() && self.attempted > 0
    }

    /// Failed operations over attempted ones; a run whose checks fail
    /// counts every operation as failed.
    pub fn failed_ratio(&self) -> f64 {
        failed_ratio(self.failed_counted(), self.attempted)
    }

    /// Failed operations as reported: all of them when a check failed.
    pub fn failed_counted(&self) -> u64 {
        if self.checks.all_ok() {
            self.failed
        } else {
            self.attempted
        }
    }
}

/// `failed / attempted`, 0 when nothing was attempted.
pub fn failed_ratio(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The human-readable lines and the final JSON line for `result`,
/// reporting the metrics of `list`.
pub fn render(result: &RunResult, list: &[(&str, &str)]) -> (Vec<String>, String) {
    let mut lines = Vec::new();
    let mut fields = Vec::new();
    for (name, unit) in list {
        let value = result.values.get(*name).copied();
        let shown = value.unwrap_or(0.0);
        let note = match (value, result.samples.get(*name)) {
            (None, _) => "  (not measured: this workload does not call the layer)".to_string(),
            (Some(_), Some(n)) => format!("  (samples={n})"),
            _ => String::new(),
        };
        lines.push(format!("  {name:<40} {shown:>16.4} {unit}{note}"));
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(shown)
        ));
    }
    lines.push(format!(
        "  {:<40} {:>16.6} ratio  (failed={} attempted={})",
        "failed_ratio",
        result.failed_ratio(),
        result.failed_counted(),
        result.attempted
    ));
    lines.extend(result.notes.iter().cloned());
    lines.extend(result.checks.lines());
    let json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct(),
        result.attempted.max(1),
        result.failed_counted(),
        fields.join(", ")
    );
    (lines, json)
}
