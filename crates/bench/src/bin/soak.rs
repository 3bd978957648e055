//! soak — fault-storm soak macrobenchmark for the degradation ladder.
//!
//! Drives every (preset, workload, seed) triple through a seeded
//! multi-fault storm ([`FaultSchedule::storm`]: bursts of correlated
//! arrivals with escalating permanence, port-level and node-level kinds
//! mixed) and the full `detect → rollback → ladder repair → degraded
//! reschedule → resume` pipeline. The contract the binary enforces —
//! exiting nonzero on violation, so CI can gate on it:
//!
//! * **Zero panics, zero aborts.** Every storm terminates in a typed
//!   [`RecoveryOutcome`]; a [`RecoveryError`] is counted and fails the
//!   run (the ladder must always find a rung that serves).
//! * **Monotonic degradation.** For one pair per preset, throughput over
//!   growing storm prefixes never improves beyond jitter tolerance.
//! * **Bit-identical replay.** One pair per preset re-runs and must
//!   reproduce the identical outcome.
//!
//! Reported per triple: storm size, recovery events, max detection
//! latency, MTTR, replay cycles saved by domain-sliced rollback, and the
//! surviving throughput fraction — plus the resolving-rung histogram per
//! triple and for the whole sweep (how often each ladder rung, including
//! the new partial-replace rung and the last-resort full reschedule,
//! actually resolved a fault) and recovery counts per afflicted domain.
//! A machine-readable copy (per-preset MTTR, degraded-throughput ratio,
//! storms survived, rung histogram) is written as JSON (first CLI
//! argument, default `BENCH_soak.json`) for the CI artifact upload.
//!
//! Run with: `cargo run --release -p dsagen-bench --bin soak`

use std::fmt::Write as _;

use dsagen::{compile, recover_with_degradation, CompileOptions};
use dsagen_adg::{presets, Adg};
use dsagen_bench::envelope::Envelope;
use dsagen_bench::rule;
use dsagen_faults::{FaultSchedule, StormConfig};
use dsagen_sim::{simulate, RecoveryPolicy, SimConfig};
use dsagen_telemetry::{log, Level, MetricsRegistry};
use dsagen_workloads::{machsuite, polybench};

/// Storm seeds. `DSAGEN_SOAK_SEED=<u64>` narrows the sweep to a single
/// seed so CI can shard storms across jobs.
fn seeds() -> Vec<u64> {
    match std::env::var("DSAGEN_SOAK_SEED") {
        Ok(s) => match s.trim().parse::<u64>() {
            Ok(v) => vec![v],
            Err(_) => vec![0x50AC, 77],
        },
        Err(_) => vec![0x50AC, 77],
    }
}

/// Throughput over a growing storm prefix may not improve past this
/// tolerance (repair is a stochastic search, so small jitter is fair).
const MONOTONIC_TOLERANCE: f64 = 0.10;

struct Row {
    preset: &'static str,
    kernel: String,
    seed: u64,
    storm_len: usize,
    events: usize,
    max_detect: u64,
    mttr: f64,
    degraded: bool,
    throughput_ratio: f64,
    /// How many recoveries resolved at each ladder rung
    /// (`RecoveryAction::label` keys; `full-reschedule` = degraded rung).
    rungs: std::collections::BTreeMap<&'static str, usize>,
    /// Recovery events per afflicted domain (`"none"` = idle-hardware
    /// victims).
    by_domain: std::collections::BTreeMap<String, usize>,
    /// Cycles domain-sliced rollbacks preserved instead of replaying.
    saved: u64,
}

fn fixtures() -> Vec<(&'static str, Adg)> {
    vec![
        ("softbrain", presets::softbrain()),
        ("spu", presets::spu()),
        ("revel", presets::revel()),
    ]
}

fn workloads() -> Vec<dsagen_dfg::Kernel> {
    vec![
        polybench::mvt(),
        polybench::atax(),
        polybench::bicg(),
        machsuite::mm(),
        machsuite::spmv_crs(),
        // The concurrent two-stage pipeline workload: its live stages
        // partition into separate recovery domains, so domain-sliced
        // rollback engages and `replayed_saved_cycles` is non-zero.
        polybench::pipe_split(),
    ]
}

/// A storm sized to the fault-free run so every burst lands mid-flight.
fn storm_for(seed: u64, horizon: u64) -> FaultSchedule {
    FaultSchedule::storm(
        seed,
        &StormConfig {
            horizon: horizon.max(256),
            ..StormConfig::default()
        },
    )
}

struct PresetStats {
    storms: usize,
    survived: usize,
    degraded: usize,
    mttr_sum: f64,
    ratio_sum: f64,
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_soak.json".to_string());
    let seeds = seeds();
    let policy = RecoveryPolicy::default();
    let cfg = SimConfig::default();
    // Metrics on, sink off: the sweep's recovery counters ride into the
    // artifact envelope without per-event allocation.
    let tel = dsagen_telemetry::Telemetry::disabled().with_metrics(MetricsRegistry::enabled());

    println!("FAULT-STORM SOAK: degradation ladder under seeded multi-fault storms");
    println!(
        "seeds {:?}, storm = {} bursts x {} faults, escalating permanence, port faults on",
        seeds,
        StormConfig::default().bursts,
        StormConfig::default().burst_size,
    );
    rule(108);
    println!(
        "{:>10} {:>10} {:>10} {:>6} {:>7} {:>8} {:>9} {:>7} {:>10} {:>7}",
        "preset", "kernel", "seed", "storm", "events", "max-det", "mttr", "saved", "outcome",
        "ratio"
    );
    rule(108);

    let mut rows: Vec<Row> = Vec::new();
    let mut aborted = 0usize;
    let mut skipped = 0usize;
    let mut replay_divergences = 0usize;
    let mut monotonic_violations = 0usize;

    for (preset, adg) in fixtures() {
        let mut checked_replay = false;
        for kernel in &workloads() {
            let opts = CompileOptions::default();
            let Ok(compiled) = compile(&adg, kernel, &opts) else {
                skipped += 1;
                continue;
            };
            let Ok(plain) = simulate(
                &adg,
                &compiled.version,
                &compiled.schedule,
                &compiled.eval,
                compiled.config_path_len,
                &cfg,
            ) else {
                skipped += 1;
                continue;
            };
            for &seed in &seeds {
                let storm = storm_for(seed, plain.cycles);
                let run = || {
                    recover_with_degradation(&adg, &compiled, &cfg, &storm, &policy, &tel)
                };
                let out = match run() {
                    Ok(out) => out,
                    Err(e) => {
                        log(
                            Level::Error,
                            format!("{preset}/{} seed {seed:#x}: ABORT {e}", kernel.name),
                        );
                        aborted += 1;
                        continue;
                    }
                };
                // Replay gate: one triple per preset re-runs bit-identically.
                if !checked_replay {
                    checked_replay = true;
                    match run() {
                        Ok(second) if second == out => {}
                        _ => {
                            log(
                                Level::Error,
                                format!(
                                    "{preset}/{} seed {seed:#x}: replay diverged",
                                    kernel.name
                                ),
                            );
                            replay_divergences += 1;
                        }
                    }
                }
                let report = out.report();
                let total: u64 = report.report.firings.iter().sum();
                let expected: u64 = plain.firings.iter().sum();
                assert_eq!(
                    total, expected,
                    "{preset}/{} seed {seed:#x}: storm run lost work",
                    kernel.name
                );
                let mut by_domain: std::collections::BTreeMap<String, usize> =
                    std::collections::BTreeMap::new();
                for e in &report.events {
                    let key = e
                        .domain
                        .map_or_else(|| "none".to_string(), |d| d.to_string());
                    *by_domain.entry(key).or_insert(0) += 1;
                }
                let row = Row {
                    preset,
                    kernel: kernel.name.clone(),
                    seed,
                    storm_len: storm.len(),
                    events: report.events.len(),
                    max_detect: report
                        .events
                        .iter()
                        .map(|e| e.detection_latency)
                        .max()
                        .unwrap_or(0),
                    mttr: report.mttr_cycles(),
                    degraded: out.is_degraded(),
                    throughput_ratio: out.throughput_ratio(),
                    rungs: report.rung_histogram(),
                    by_domain,
                    saved: report.replayed_cycles_saved(),
                };
                println!(
                    "{:>10} {:>10} {:>#10x} {:>6} {:>7} {:>8} {:>9.0} {:>7} {:>10} {:>6.1}%",
                    row.preset,
                    row.kernel,
                    row.seed,
                    row.storm_len,
                    row.events,
                    row.max_detect,
                    row.mttr,
                    row.saved,
                    if row.degraded { "degraded" } else { "recovered" },
                    100.0 * row.throughput_ratio,
                );
                rows.push(row);
            }
        }

        // Monotonicity gate: the first mapping workload on this preset,
        // swept over growing prefixes of the first seed's storm.
        if let Some(kernel) = workloads().into_iter().find_map(|k| {
            compile(&adg, &k, &CompileOptions::default()).ok().map(|c| (k, c))
        }) {
            let (k, compiled) = kernel;
            if let Ok(plain) = simulate(
                &adg,
                &compiled.version,
                &compiled.schedule,
                &compiled.eval,
                compiled.config_path_len,
                &cfg,
            ) {
                let storm = storm_for(seeds[0], plain.cycles);
                let mut prev = f64::INFINITY;
                for i in 0..=storm.len() {
                    let prefix = storm.prefix(i);
                    match recover_with_degradation(
                        &adg, &compiled, &cfg, &prefix, &policy, &tel,
                    ) {
                        Ok(out) => {
                            let ratio = out.throughput_ratio();
                            if ratio > prev + MONOTONIC_TOLERANCE {
                                log(
                                    Level::Error,
                                    format!(
                                        "{preset}/{}: prefix {i} ratio {ratio:.3} improved \
past {prev:.3}",
                                        k.name
                                    ),
                                );
                                monotonic_violations += 1;
                            }
                            prev = prev.min(ratio);
                        }
                        Err(e) => {
                            log(
                                Level::Error,
                                format!("{preset}/{} prefix {i}: ABORT {e}", k.name),
                            );
                            aborted += 1;
                        }
                    }
                }
            }
        }
    }
    rule(108);

    let mut stats: Vec<(&'static str, PresetStats)> = Vec::new();
    for r in &rows {
        let entry = match stats.iter_mut().find(|(p, _)| *p == r.preset) {
            Some((_, s)) => s,
            None => {
                stats.push((
                    r.preset,
                    PresetStats {
                        storms: 0,
                        survived: 0,
                        degraded: 0,
                        mttr_sum: 0.0,
                        ratio_sum: 0.0,
                    },
                ));
                &mut stats.last_mut().expect("just pushed").1
            }
        };
        entry.storms += 1;
        entry.survived += 1; // every row terminated typed-Ok
        entry.degraded += usize::from(r.degraded);
        entry.mttr_sum += r.mttr;
        entry.ratio_sum += r.throughput_ratio;
    }
    for (preset, s) in &stats {
        println!(
            "{preset}: {}/{} storms survived, {} degraded, mean MTTR {:.0} cycles, \
mean throughput ratio {:.3}",
            s.survived,
            s.storms,
            s.degraded,
            s.mttr_sum / s.storms.max(1) as f64,
            s.ratio_sum / s.storms.max(1) as f64,
        );
    }
    // Rung histogram across every recovery event in the sweep: the
    // blast-radius headline is how rarely the last-resort whole-kernel
    // reschedule fires.
    let mut rung_histogram: std::collections::BTreeMap<&'static str, usize> =
        std::collections::BTreeMap::new();
    let mut saved_total: u64 = 0;
    for r in &rows {
        for (label, n) in &r.rungs {
            *rung_histogram.entry(label).or_insert(0) += n;
        }
        saved_total += r.saved;
    }
    let full_reschedules = rung_histogram.get("full-reschedule").copied().unwrap_or(0);
    let rung_line = rung_histogram
        .iter()
        .map(|(label, n)| format!("{label}={n}"))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "rungs: {} | {} full-kernel reschedules | {} replay cycles saved by scoped rollback",
        if rung_line.is_empty() { "none" } else { &rung_line },
        full_reschedules,
        saved_total,
    );
    println!(
        "{} triples ({} skipped: unmappable) | {} aborts | {} replay divergences | \
{} monotonicity violations",
        rows.len(),
        skipped,
        aborted,
        replay_divergences,
        monotonic_violations,
    );

    // JSON artifact: per-preset MTTR, degraded-throughput ratio, storms
    // survived (the vendored serde is a stub — format by hand).
    let mut json = String::new();
    let _ = write!(json, "{{\n  \"seeds\": [");
    for (i, s) in seeds.iter().enumerate() {
        let _ = write!(json, "{}{}", s, if i + 1 < seeds.len() { ", " } else { "" });
    }
    let _ = write!(
        json,
        "],\n  \"aborts\": {aborted},\n  \"replay_divergences\": {replay_divergences},\n  \
\"monotonicity_violations\": {monotonic_violations},\n  \
\"full_reschedules\": {full_reschedules},\n  \
\"replayed_saved_cycles\": {saved_total},\n  \"rung_histogram\": {{"
    );
    for (i, (label, n)) in rung_histogram.iter().enumerate() {
        let _ = write!(
            json,
            "{}\"{label}\": {n}",
            if i == 0 { "" } else { ", " }
        );
    }
    json.push_str("},\n  \"presets\": [\n");
    for (i, (preset, s)) in stats.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"preset\": {:?}, \"storms\": {}, \"survived\": {}, \"degraded\": {}, \
\"mean_mttr_cycles\": {:.1}, \"mean_throughput_ratio\": {:.4}}}{}",
            preset,
            s.storms,
            s.survived,
            s.degraded,
            s.mttr_sum / s.storms.max(1) as f64,
            s.ratio_sum / s.storms.max(1) as f64,
            if i + 1 < stats.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let rungs = r
            .rungs
            .iter()
            .map(|(label, n)| format!("\"{label}\": {n}"))
            .collect::<Vec<_>>()
            .join(", ");
        let by_domain = r
            .by_domain
            .iter()
            .map(|(d, n)| format!("\"{d}\": {n}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            json,
            "    {{\"preset\": {:?}, \"kernel\": {:?}, \"seed\": {}, \"storm_len\": {}, \
\"events\": {}, \"max_detect_cycles\": {}, \"mttr_cycles\": {:.1}, \"degraded\": {}, \
\"throughput_ratio\": {:.4}, \"replayed_saved_cycles\": {}, \"rungs\": {{{rungs}}}, \
\"events_by_domain\": {{{by_domain}}}}}{}",
            r.preset,
            r.kernel,
            r.seed,
            r.storm_len,
            r.events,
            r.max_detect,
            r.mttr,
            r.degraded,
            r.throughput_ratio,
            r.saved,
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");
    let seed_set = seeds
        .iter()
        .map(|s| format!("{s:#x}"))
        .collect::<Vec<_>>()
        .join(",");
    let artifact = Envelope::new("soak")
        .meta("seed_set", &seed_set)
        .meta_int("triples", rows.len() as u64)
        .metrics(tel.metrics().snapshot())
        .wrap(&json);
    match std::fs::write(&out_path, &artifact) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => log(Level::Error, format!("could not write {out_path}: {e}")),
    }

    assert!(
        rows.len() >= 10,
        "expected at least 10 storm triples to map, got {}",
        rows.len()
    );
    assert_eq!(aborted, 0, "storms must never abort while a rung can serve");
    assert_eq!(replay_divergences, 0, "storm replay must be bit-identical");
    assert_eq!(
        monotonic_violations, 0,
        "degradation must be monotonic over storm prefixes"
    );
}
