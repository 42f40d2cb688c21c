//! The benchmark's own recorder and failure accounting.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::time::Instant;

use machk_perfbench::harness::{Clock, Phase, Recorder, BAND, SEGMENTS, WINDOWS};
use machk_perfbench::hist::{Hist, SUB};
use machk_perfbench::reference::NOMINAL_OP_NS;
use machk_perfbench::report::{failed_ratio, render, RunResult, END_TO_END};
use machk_perfbench::rng::Rng;

/// The value at rank `ceil(q * n)` of the sorted samples.
fn reference(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

fn check_against_sorted(samples: Vec<u64>) {
    let mut h = Hist::new();
    for &s in &samples {
        h.record(s);
    }
    let mut sorted = samples;
    sorted.sort_unstable();
    for q in [0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 0.999] {
        let want = reference(&sorted, q);
        let rank = (q * sorted.len() as f64).ceil() as usize;
        let Some(got) = h.percentile(q) else {
            assert!(
                sorted.len() - rank < 10,
                "q={q} refused with enough samples"
            );
            continue;
        };
        assert!(
            sorted.len() - rank >= 10,
            "q={q} read with under ten beyond"
        );
        assert_eq!(got.samples, sorted.len() as u64);
        let err = got.value.abs_diff(want) as f64 / want.max(1) as f64;
        assert!(
            err <= 1.0 / SUB as f64,
            "q={q}: histogram read {} for sorted value {want} (relative error {err})",
            got.value
        );
    }
}

#[test]
fn percentiles_match_a_sorted_reference() {
    let mut rng = Rng::stream(7, 0, 0);
    // Latency-shaped: a body near 1 µs with a long tail up to ~10 ms.
    let body: Vec<u64> = (0..100_000)
        .map(|_| {
            let base = 500 + rng.below(1_000) as u64;
            if rng.below(100) == 0 {
                base * (1 + rng.below(10_000) as u64)
            } else {
                base
            }
        })
        .collect();
    check_against_sorted(body);
    // Small exact values and wide uniform values.
    check_against_sorted((0..5_000).map(|i| i % 97).collect());
    check_against_sorted((0..50_000).map(|_| rng.next_u64() >> 30).collect());
}

#[test]
fn percentiles_need_ten_samples_beyond_them() {
    let mut h = Hist::new();
    for v in 0..1_009u64 {
        h.record(v);
    }
    // Rank ceil(0.99 * 1009) = 999 leaves exactly ten samples beyond.
    assert!(h.percentile(0.99).is_some());
    let mut small = Hist::new();
    for v in 0..999u64 {
        small.record(v);
    }
    // Rank ceil(0.99 * 999) = 990 leaves only nine.
    assert!(small.percentile(0.99).is_none());
    assert!(Hist::new().percentile(0.5).is_none());
}

#[test]
fn merge_is_the_union_of_samples() {
    let (mut a, mut b, mut both) = (Hist::new(), Hist::new(), Hist::new());
    for v in 0..10_000u64 {
        let x = v * 37 % 12_345;
        if v % 3 == 0 { &mut a } else { &mut b }.record(x);
        both.record(x);
    }
    a.merge(&b);
    assert_eq!(a.count(), both.count());
    assert_eq!(a.sum(), both.sum());
    for q in [0.5, 0.9, 0.99] {
        assert_eq!(a.percentile(q), both.percentile(q));
    }
}

#[test]
fn gated_figures_come_from_the_bands_of_the_stretches() {
    // Windows of 1 µs, cut into SEGMENTS stretches. In each stretch the
    // slowest twentieth stall (10 operations of 100 ns each), the
    // windows from there to the quarter mark are the gated band (50 of
    // 20 ns), and the rest run fast (100 of 10 ns); except that one
    // stretch stalls throughout.
    let win_ns = 1_000;
    let n = WINDOWS as u64;
    let per = n / SEGMENTS as u64;
    let (stalled, band_end) = (per / BAND.0 as u64, per / BAND.1 as u64);
    let mut rec = Recorder::new(win_ns, win_ns, WINDOWS);
    let mut total_ops = 0;
    for w in 0..n {
        let (stretch, rank) = (w / per, w % per);
        let (ops, latency) = if stretch == 3 || rank < stalled {
            (10, 100)
        } else if rank < band_end {
            (50, 20)
        } else {
            (100, 10)
        };
        for i in 0..ops {
            let end = w * win_ns + i * (win_ns / ops);
            rec.record(end, latency, (i % 10 == 0).then_some(latency), 1, 0);
        }
        total_ops += ops;
    }
    let tracer = machk_perfbench::trace::Tracer::new(false, 0, Instant::now());
    let mut phase = Phase::new(rec, total_ops, 0, tracer);
    assert_eq!(phase.ops_per_s(Clock::Wall), 5e7);
    // Ten operations a window leave no median in the stalled stretch.
    let band_samples = (SEGMENTS as u64 - 1) * (band_end - stalled) * 50;
    assert_eq!(phase.op_p50_ns(Clock::Wall), Some((20.0, band_samples)));
    // Every window that closed timed the reference.
    assert!(phase.windows.iter().all(|w| w.ref_op_ns > 0.0));
    assert!(phase.reference_op_ns() > 0.0);
    // On a host that runs the reference at half its nominal speed, a
    // wall second is half a reference second.
    for w in &mut phase.windows {
        w.ref_op_ns = 2.0 * NOMINAL_OP_NS;
    }
    assert_eq!(phase.ops_per_s(Clock::Reference), 1e8);
    assert_eq!(
        phase.op_p50_ns(Clock::Reference),
        Some((10.0, band_samples))
    );
    assert_eq!(phase.reference_op_ns(), 2.0 * NOMINAL_OP_NS);
    // The whole region also counts the stalled and the fast windows.
    let whole = total_ops as f64 * 1e9 / (n * win_ns) as f64;
    assert_eq!(phase.whole_ops_per_s(), whole);
    // The tails are read from the whole region's histograms.
    assert_eq!(phase.op.count(), total_ops);
    assert_eq!(phase.write.count(), total_ops / 10);
}

#[test]
fn failed_ratio_counts_failures_over_attempts() {
    assert_eq!(failed_ratio(0, 1_000), 0.0);
    assert_eq!(failed_ratio(3, 1_000), 0.003);
    assert_eq!(failed_ratio(0, 0), 0.0);

    let mut r = RunResult {
        attempted: 1_000,
        failed: 3,
        ..RunResult::default()
    };
    r.checks.check("ledger", true, "balanced");
    assert!(r.correct());
    assert_eq!(r.failed_counted(), 3);
    assert_eq!(r.failed_ratio(), 0.003);
    let (_, json) = render(&r, &END_TO_END);
    assert!(json.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 3,"));

    // A broken ledger fails the run and counts every operation failed.
    r.checks
        .check("ledger after teardown", false, "one reference leaked");
    assert!(!r.correct());
    assert_eq!(r.failed_counted(), 1_000);
    assert_eq!(r.failed_ratio(), 1.0);
    let (_, json) = render(&r, &END_TO_END);
    assert!(json.starts_with("{\"correct\": false, \"attempted\": 1000, \"failed\": 1000,"));
}

#[test]
fn result_line_reports_every_listed_metric() {
    let mut r = RunResult {
        attempted: 1,
        ..RunResult::default()
    };
    r.set("ops_per_ref_s", 12.5);
    let (lines, json) = render(&r, &END_TO_END);
    for (name, unit) in END_TO_END {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing"
        );
        assert!(json.contains(&format!("\"unit\": \"{unit}\"")));
    }
    assert!(json.contains("\"ops_per_ref_s\": {\"value\": 12.5, \"unit\": \"1/ref-s\"}"));
    assert!(lines.iter().any(|l| l.contains("failed_ratio")));
}
