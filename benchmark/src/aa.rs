//! `--aa N`: run each workload N times on this build with the same
//! seed, each run a process of its own (peak RSS is per process), and
//! print per metric the median, the quartiles, their distance as a
//! share of the median, and the gap between the medians of the first
//! and the second half. Every run must report the same `inputs_digest`.

use crate::stats;
use crate::Args;
use sqlshare_common::json::{self, Json};
use std::collections::BTreeMap;

/// What one run printed.
struct Run {
    /// Value and unit by metric name.
    metrics: BTreeMap<String, (f64, String)>,
    inputs_digest: String,
}

fn run_once(args: &Args, workload: &str) -> Option<Run> {
    let seed = args.seed;
    let mut command = std::process::Command::new(std::env::current_exe().expect("own executable"));
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.quick {
        command.arg("--quick");
    }
    let output = command.output().ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let doc = json::parse(stdout.lines().last()?).ok()?;
    let clean = matches!(doc.get("correct"), Some(Json::Bool(true)))
        && doc.get("failed").and_then(Json::as_f64) == Some(0.0);
    if !output.status.success() || !clean {
        eprintln!("{workload} seed {seed}: not a clean run\n{stdout}");
        return None;
    }
    let mut metrics: BTreeMap<String, (f64, String)> = doc
        .get("metrics")?
        .as_object()?
        .iter()
        .filter_map(|(name, m)| {
            let unit = m.get("unit")?.as_str()?.to_string();
            Some((name.to_string(), (m.get("value")?.as_f64()?, unit)))
        })
        .collect();
    // The host-speed probe of a timed run, as a row of its own: a set of
    // runs whose probe moved was not measured on a steady machine.
    let probe = stdout.lines().find_map(|l| {
        l.strip_prefix("proc.calib_ms ")?
            .split_whitespace()
            .next()?
            .parse()
            .ok()
    });
    if let Some(ms) = probe {
        metrics.insert("(proc.calib_ms)".into(), (ms, "ms".into()));
    }
    let line: Vec<String> = metrics
        .iter()
        .map(|(name, (v, _))| format!("{name} {v:.4}"))
        .collect();
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("inputs_digest "))
        .unwrap_or("?")
        .to_string();
    eprintln!(
        "{workload} seed {seed} inputs_digest {digest}: {}",
        line.join("  ")
    );
    Some(Run {
        metrics,
        inputs_digest: digest,
    })
}

pub fn run(args: &Args, runs: usize) -> bool {
    let names: Vec<&str> = if args.workload.is_empty() {
        crate::workloads::NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut clean = true;
    for workload in names {
        let mut series: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
        let mut digests: Vec<String> = Vec::new();
        for i in 0..runs {
            match run_once(args, workload) {
                Some(run) => {
                    for (name, (value, unit)) in run.metrics {
                        let slot = series.entry(name).or_insert_with(|| (Vec::new(), unit));
                        slot.0.push(value);
                    }
                    digests.push(run.inputs_digest);
                }
                None => clean = false,
            }
            eprintln!("{workload}: run {} of {runs} done", i + 1);
        }
        digests.dedup();
        if digests.len() != 1 {
            eprintln!("{workload}: runs of one seed differ in their inputs: {digests:?}");
            clean = false;
        }
        println!(
            "A/A {workload}: {runs} runs, seed {}, inputs_digest {}, --seconds {}, --trace {}",
            args.seed,
            digests.join(" != "),
            args.seconds,
            args.trace as u8
        );
        println!(
            "| {:<40} | {:>12} | {:>12} | {:>12} | {:>9} | {:>9} |",
            "metric", "median", "q1", "q3", "iqr/med", "half gap"
        );
        for (name, (values, unit)) in &series {
            let [q1, q2, q3] = stats::quartiles(values);
            let half = values.len() / 2;
            let (first, second) = (
                stats::median(&values[..half]),
                stats::median(&values[half..]),
            );
            let gap = if first == 0.0 {
                0.0
            } else {
                (second - first).abs() / first.abs()
            };
            let spread = if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2.abs() };
            println!(
                "| {:<40} | {q2:>12.4} | {q1:>12.4} | {q3:>12.4} | {:>8.2}% | {:>8.2}% |",
                format!("{name} ({unit})"),
                spread * 100.0,
                gap * 100.0
            );
        }
    }
    clean
}
