//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a header recording the host and build, one line per metric
//! and per correctness check, and as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when a
//! correctness check failed, 2 on bad arguments or a refused build.

use std::process::ExitCode;

use machk_perfbench::harness::{nproc, peak_rss_kib, RunConfig, CLIENTS};
use machk_perfbench::report::{render, END_TO_END, PER_LAYER};
use machk_perfbench::{guard, workloads};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let profile = match guard::build_profile() {
        Ok(p) => p,
        Err(why) => {
            eprintln!("perfbench: refusing to measure a misbuilt binary: {why}");
            return ExitCode::from(2);
        }
    };
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} clients={CLIENTS} profile={profile} rss_before_setup_kib={}",
        args.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        nproc(),
        peak_rss_kib().unwrap_or(0)
    );
    let Some(result) = workloads::run(&args.workload, &cfg) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let list: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let (lines, json) = render(&result, list);
    for l in lines {
        println!("{l}");
    }
    println!("{json}");
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
