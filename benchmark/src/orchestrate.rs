//! The one-command modes: every workload in a process of its own (peak
//! memory is per process), the agreement check between two sets of runs of
//! the same build, and the across-seed spread as the driver measures it.

use std::process::{Command, Stdio};

use crate::report::RunResult;
use crate::spec::{END_TO_END, HELD_OUT_SEED, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::stats::{median, quartiles};

fn run_child(workload: &str, seed: u64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("the run printed no result")?;
    RunResult::from_json(line)
}

/// One run; a missing result, a missed check or a failed op clears `ok`.
fn checked_run(workload: &str, seed: u64, trace: bool, ok: &mut bool) -> Option<RunResult> {
    match run_child(workload, seed, trace) {
        Ok(result) => {
            *ok &= result.correct && result.failed == 0;
            Some(result)
        }
        Err(why) => {
            println!("{workload}: no result ({why})");
            *ok = false;
            None
        }
    }
}

fn values(runs: &[RunResult], metric: &str) -> Vec<f64> {
    runs.iter().filter_map(|r| r.get(metric)).collect()
}

/// Runs every workload once and prints every metric by name with its unit.
/// True when every output check held and no op failed.
pub fn all(seed: u64, trace: bool) -> bool {
    let mut ok = true;
    println!(
        "seed {seed}, {RUN_SECONDS} s per workload, tracing {}",
        if trace { "on" } else { "off" }
    );
    for (workload, _) in WORKLOADS {
        eprintln!("{workload}:");
        let Some(result) = checked_run(workload, seed, trace, &mut ok) else {
            continue;
        };
        println!(
            "{workload}: correct {} attempted {} failed {} fail_share {}",
            result.correct,
            result.attempted,
            result.failed,
            result.failed as f64 / result.attempted as f64
        );
        for m in &result.metrics {
            let better = END_TO_END
                .iter()
                .map(|(s, _)| s)
                .chain(PER_LAYER.iter())
                .find(|s| s.name == m.name)
                .map_or("", |s| s.better.as_str());
            println!(
                "  {:<36} {:>22} {:<10} ({better} is better)",
                m.name, m.value, m.unit
            );
        }
    }
    if trace {
        println!("traces and layer tables: {}", crate::out_dir().display());
    }
    println!("a claim made on seed {seed} must also hold on the held-out seed {HELD_OUT_SEED}");
    ok
}

/// Ten runs per workload, each on another seed, and for every end-to-end
/// metric the distance between the quartiles of its ten values as a share
/// of their median: the driver's own acceptance test. A spread above a
/// third of the metric's bound is flagged, above the bound fails.
pub fn spread(seed: u64, only: Option<&str>) -> bool {
    let mut ok = true;
    println!(
        "{:<16} {:<16} {:>16} {:>8} {:>7}  verdict",
        "workload", "metric", "median", "spread", "bound"
    );
    for (workload, _) in WORKLOADS
        .iter()
        .filter(|(w, _)| only.is_none_or(|o| o == *w))
    {
        let runs: Vec<RunResult> = (0..10)
            .filter_map(|i| {
                eprintln!("{workload}: seed {}", seed + i);
                checked_run(workload, seed + i, false, &mut ok)
            })
            .collect();
        if runs.len() < 2 {
            continue;
        }
        for (spec, bound) in END_TO_END {
            let values = values(&runs, spec.name);
            let (q1, q3) = quartiles(&values);
            let spread = (q3 - q1) / median(&values).abs().max(f64::MIN_POSITIVE);
            // The driver holds set-up time to its bound between sets only.
            let within = spec.name == "setup_s" || spread <= bound;
            ok &= within;
            println!(
                "{workload:<16} {:<16} {:>16.6} {:>7.2}% {:>6.0}%  {}",
                spec.name,
                median(&values),
                100.0 * spread,
                100.0 * bound,
                if !within {
                    "ABOVE THE BOUND"
                } else if spread * 3.0 > bound {
                    "above a third of the bound"
                } else {
                    "steady"
                }
            );
            eprintln!("  {} per seed: {values:?}", spec.name);
        }
    }
    ok
}

/// Two sets of three untraced runs per workload, compared median against
/// median with each metric's bound; deterministic outputs must repeat
/// exactly, as must the store's counts over two traced `service-mix` runs.
pub fn agree(seed: u64) -> bool {
    const EXACT: [&str; 2] = ["best_objective", "sim_cycles"];
    const STORE_COUNTS: [&str; 4] = [
        "store.puts",
        "store.hits",
        "store.misses",
        "store.quarantined",
    ];
    let mut ok = true;
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "set 1", "set 2", "diff", "bound"
    );
    for (workload, _) in WORKLOADS {
        let mut sets: [Vec<RunResult>; 2] = [Vec::new(), Vec::new()];
        for run in 0..6 {
            eprintln!("{workload}: set {} run {}", run % 2 + 1, run / 2 + 1);
            sets[run % 2].extend(checked_run(workload, seed, false, &mut ok));
        }
        for (spec, bound) in END_TO_END {
            let (a, b) = (values(&sets[0], spec.name), values(&sets[1], spec.name));
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&a), median(&b));
            let diff = (mb - ma).abs() / ma.abs().max(f64::MIN_POSITIVE);
            let exact = EXACT.contains(&spec.name);
            let agrees = if exact {
                a.iter().chain(&b).all(|v| v.to_bits() == a[0].to_bits())
            } else {
                diff <= bound
            };
            ok &= agrees;
            println!(
                "{workload:<16} {:<16} {ma:>14.6} {mb:>14.6} {:>7.2}% {:>6.0}%  {}",
                spec.name,
                100.0 * diff,
                100.0 * bound,
                match (agrees, exact) {
                    (true, true) => "repeats exactly",
                    (true, false) => "agrees",
                    (false, true) => "DOES NOT REPEAT",
                    (false, false) => "DISAGREES",
                }
            );
        }
    }

    eprintln!("service-mix: two traced runs for the store's counts");
    let traced: Vec<RunResult> = (0..2)
        .filter_map(|_| checked_run("service-mix", seed, true, &mut ok))
        .collect();
    let counts = |r: &RunResult| STORE_COUNTS.map(|name| r.get(name));
    let same = traced.len() == 2 && counts(&traced[0]) == counts(&traced[1]);
    ok &= same;
    println!(
        "service-mix store counts {:?}: {}",
        traced.first().map(counts),
        if same {
            "repeat exactly"
        } else {
            "DO NOT REPEAT"
        }
    );
    println!(
        "{}",
        if ok {
            "the two sets agree"
        } else {
            "the two sets DISAGREE"
        }
    );
    ok
}
