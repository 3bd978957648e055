//! bench_compare — regression gate for committed BENCH artifacts.
//!
//! Diffs a freshly generated benchmark JSON against the committed copy and
//! fails (exit 1) when quality regressed by more than 25%:
//!
//! * **soak / recovery** — MTTR grew past 1.25× committed, or a
//!   surviving-throughput fraction fell below 0.75× committed.
//! * **dse_parallel** — the (seed, shards)-deterministic best objective
//!   fell, memoization regressed (more stochastic scheduling passes, or a
//!   lower cache hit rate).
//! * **config_integrity** — the transient-flip recovery probe needs more
//!   programming attempts, or verify throughput fell.
//! * **telemetry_overhead** — the disabled-telemetry overhead exceeds the
//!   artifact's own absolute gate (2%), regardless of the committed value.
//! * **service** — fewer requests completed, the warm-start store-tier hit
//!   rate fell, or the warm phase never hit the artifact store at all.
//!
//! The artifact kind is read from the envelope's `bench` field when
//! present, else sniffed from the document shape, so CI invokes one
//! binary for every gate:
//!
//! ```text
//! cargo run --release -p dsagen-bench --bin bench_compare -- \
//!     BENCH_soak.json /tmp/fresh_soak.json
//! ```
//!
//! Committed artifacts may predate newer emitters, so both sides read
//! through [`dsagen_bench::envelope::payload`] (bare pre-envelope
//! documents pass through) and every field is optional on the committed
//! side: a metric absent from the committed file (e.g. `full_reschedules`
//! from before rung histograms existed) is reported as informational,
//! never a failure. Comparisons with a committed value below 1.0 (cycle
//! metrics) are skipped — a 25% band around ~zero is noise, not a gate.

use std::process::ExitCode;

use dsagen_bench::artifact::load_artifact;
use dsagen_bench::envelope::{bench_name, payload};
use dsagen_bench::json::JsonValue;
use dsagen_telemetry::{log, Level};

/// Regression band: fail when fresh MTTR exceeds 1.25× committed, or a
/// fresh throughput ratio falls below 0.75× committed.
const TOLERANCE: f64 = 0.25;

/// One metric comparison: `worse` is +fraction regressed (0 = identical).
struct Check {
    label: String,
    committed: f64,
    fresh: f64,
    worse: f64,
}

impl Check {
    fn failed(&self) -> bool {
        self.worse > TOLERANCE
    }
}

/// MTTR-style metric: larger is worse.
fn check_larger_is_worse(label: String, committed: f64, fresh: f64) -> Option<Check> {
    if committed < 1.0 {
        return None; // ~zero baseline: a relative band is meaningless
    }
    Some(Check {
        label,
        committed,
        fresh,
        worse: (fresh - committed) / committed,
    })
}

/// Throughput-ratio-style metric: smaller is worse.
fn check_smaller_is_worse(label: String, committed: f64, fresh: f64) -> Option<Check> {
    if committed <= 0.0 {
        return None;
    }
    Some(Check {
        label,
        committed,
        fresh,
        worse: (committed - fresh) / committed,
    })
}

fn num(v: &JsonValue, key: &str) -> Option<f64> {
    v.get(key).and_then(JsonValue::as_f64)
}

fn str_of<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key).and_then(JsonValue::as_str).unwrap_or("?")
}

/// Soak artifact: per-preset storm aggregates keyed by preset name.
fn compare_soak(committed: &JsonValue, fresh: &JsonValue, checks: &mut Vec<Check>) {
    let committed_presets = committed
        .get("presets")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[]);
    let fresh_presets = fresh
        .get("presets")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[]);
    for c in committed_presets {
        let name = str_of(c, "preset");
        let Some(f) = fresh_presets.iter().find(|f| str_of(f, "preset") == name) else {
            println!("note: preset {name} present in committed but not fresh — skipped");
            continue;
        };
        if let (Some(cm), Some(fm)) = (num(c, "mean_mttr_cycles"), num(f, "mean_mttr_cycles")) {
            checks.extend(check_larger_is_worse(
                format!("{name} mean_mttr_cycles"),
                cm,
                fm,
            ));
        }
        if let (Some(cr), Some(fr)) = (
            num(c, "mean_throughput_ratio"),
            num(f, "mean_throughput_ratio"),
        ) {
            checks.extend(check_smaller_is_worse(
                format!("{name} mean_throughput_ratio"),
                cr,
                fr,
            ));
        }
    }
    // Informational only: the committed artifact may predate this counter.
    match (
        num(committed, "full_reschedules"),
        num(fresh, "full_reschedules"),
    ) {
        (Some(c), Some(f)) => println!("info: full_reschedules committed {c:.0} -> fresh {f:.0}"),
        (None, Some(f)) => println!("info: full_reschedules fresh {f:.0} (no committed baseline)"),
        _ => {}
    }
}

/// Recovery artifact: per (preset, kernel) transient MTTR and permanent
/// throughput ratio / MTTR.
fn compare_recovery(committed: &JsonValue, fresh: &JsonValue, checks: &mut Vec<Check>) {
    let committed_rows = committed
        .get("rows")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[]);
    let fresh_rows = fresh
        .get("rows")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[]);
    for c in committed_rows {
        let key = (str_of(c, "preset"), str_of(c, "kernel"));
        let Some(f) = fresh_rows
            .iter()
            .find(|f| (str_of(f, "preset"), str_of(f, "kernel")) == key)
        else {
            println!(
                "note: row {}/{} present in committed but not fresh — skipped",
                key.0, key.1
            );
            continue;
        };
        let tag = format!("{}/{}", key.0, key.1);
        if let (Some(ct), Some(ft)) = (c.get("transient"), f.get("transient")) {
            if let (Some(cm), Some(fm)) = (num(ct, "mttr_cycles"), num(ft, "mttr_cycles")) {
                checks.extend(check_larger_is_worse(
                    format!("{tag} transient mttr"),
                    cm,
                    fm,
                ));
            }
        }
        if let (Some(cp), Some(fp)) = (c.get("permanent"), f.get("permanent")) {
            let both_recovered = cp.get("recovered").and_then(JsonValue::as_bool) == Some(true)
                && fp.get("recovered").and_then(JsonValue::as_bool) == Some(true);
            if both_recovered {
                if let (Some(cr), Some(fr)) =
                    (num(cp, "throughput_ratio"), num(fp, "throughput_ratio"))
                {
                    checks.extend(check_smaller_is_worse(
                        format!("{tag} permanent throughput_ratio"),
                        cr,
                        fr,
                    ));
                }
                if let (Some(cm), Some(fm)) = (num(cp, "mttr_cycles"), num(fp, "mttr_cycles")) {
                    checks.extend(check_larger_is_worse(
                        format!("{tag} permanent mttr"),
                        cm,
                        fm,
                    ));
                }
            } else if cp.get("recovered").and_then(JsonValue::as_bool) == Some(true)
                && fp.get("recovered").and_then(JsonValue::as_bool) == Some(false)
            {
                // A pair that used to recover and no longer does is a hard
                // regression regardless of any ratio band.
                checks.push(Check {
                    label: format!("{tag} permanent recovered -> typed failure"),
                    committed: 1.0,
                    fresh: 0.0,
                    worse: 1.0,
                });
            }
        }
    }
}

/// dse_parallel artifact: per thread count, the deterministic exploration
/// outcome (best objective) and the memoization quality (stochastic
/// scheduling passes, cache hit rate). Wall-clock fields are not gated —
/// CI machine speed is not a code property.
fn compare_dse_parallel(committed: &JsonValue, fresh: &JsonValue, checks: &mut Vec<Check>) {
    let committed_runs = committed
        .get("runs")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[]);
    let fresh_runs = fresh
        .get("runs")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[]);
    for c in committed_runs {
        let Some(threads) = num(c, "threads") else {
            continue;
        };
        let Some(f) = fresh_runs
            .iter()
            .find(|f| num(f, "threads") == Some(threads))
        else {
            println!("note: threads={threads} run present in committed but not fresh — skipped");
            continue;
        };
        let tag = format!("threads={threads}");
        if let (Some(co), Some(fo)) = (num(c, "best_objective"), num(f, "best_objective")) {
            checks.extend(check_smaller_is_worse(
                format!("{tag} best_objective"),
                co,
                fo,
            ));
        }
        if let (Some(cs), Some(fs)) = (num(c, "sched_invocations"), num(f, "sched_invocations")) {
            checks.extend(check_larger_is_worse(
                format!("{tag} sched_invocations"),
                cs,
                fs,
            ));
        }
        if let (Some(ch), Some(fh)) = (
            c.get("cache").and_then(|v| num(v, "hit_rate")),
            f.get("cache").and_then(|v| num(v, "hit_rate")),
        ) {
            checks.extend(check_smaller_is_worse(
                format!("{tag} cache hit_rate"),
                ch,
                fh,
            ));
        }
    }
}

/// config_integrity artifact: per (preset, kernel), the deterministic
/// transient-flip recovery cost and the verify-gate throughput.
fn compare_config_integrity(committed: &JsonValue, fresh: &JsonValue, checks: &mut Vec<Check>) {
    let committed_rows = committed
        .get("rows")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[]);
    let fresh_rows = fresh
        .get("rows")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[]);
    for c in committed_rows {
        let key = (str_of(c, "preset"), str_of(c, "kernel"));
        let Some(f) = fresh_rows
            .iter()
            .find(|f| (str_of(f, "preset"), str_of(f, "kernel")) == key)
        else {
            println!(
                "note: row {}/{} present in committed but not fresh — skipped",
                key.0, key.1
            );
            continue;
        };
        let tag = format!("{}/{}", key.0, key.1);
        if let (Some(ca), Some(fa)) = (num(c, "recovery_attempts"), num(f, "recovery_attempts")) {
            checks.extend(check_larger_is_worse(
                format!("{tag} recovery_attempts"),
                ca,
                fa,
            ));
        }
        if let (Some(cw), Some(fw)) = (
            num(c, "verify_words_per_sec"),
            num(f, "verify_words_per_sec"),
        ) {
            checks.extend(check_smaller_is_worse(
                format!("{tag} verify_words_per_sec"),
                cw,
                fw,
            ));
        }
    }
}

/// telemetry_overhead artifact: the fresh aggregate disabled overhead is
/// gated **absolutely** against the artifact's own `gate_pct` (2%) — a
/// committed-relative band makes no sense around a near-zero baseline.
fn compare_telemetry_overhead(committed: &JsonValue, fresh: &JsonValue, checks: &mut Vec<Check>) {
    let gate = num(fresh, "gate_pct")
        .or_else(|| num(committed, "gate_pct"))
        .unwrap_or(2.0);
    if let Some(fa) = num(fresh, "aggregate_disabled_overhead_pct") {
        checks.push(Check {
            label: format!("aggregate_disabled_overhead_pct (abs gate {gate}%)"),
            committed: num(committed, "aggregate_disabled_overhead_pct").unwrap_or(gate),
            fresh: fa,
            worse: if fa <= gate { 0.0 } else { 1.0 },
        });
    }
    match (
        num(committed, "enabled_events_per_sec"),
        num(fresh, "enabled_events_per_sec"),
    ) {
        (Some(c), Some(f)) => {
            println!("info: enabled_events_per_sec committed {c:.0} -> fresh {f:.0}");
        }
        (None, Some(f)) => {
            println!("info: enabled_events_per_sec fresh {f:.0} (no committed baseline)");
        }
        _ => {}
    }
}

/// service artifact: the deterministic outcome metrics — every admitted
/// request completes, and the warm phase re-runs the same requests against
/// the same on-disk store, so its store-tier hit rate is a code property.
/// Latencies and shed counts are machine/timing-dependent: informational.
fn compare_service(committed: &JsonValue, fresh: &JsonValue, checks: &mut Vec<Check>) {
    if let (Some(cc), Some(fc)) = (num(committed, "completed"), num(fresh, "completed")) {
        checks.extend(check_smaller_is_worse("completed requests".into(), cc, fc));
    }
    if let (Some(ch), Some(fh)) = (
        num(committed, "warm_start_hit_rate"),
        num(fresh, "warm_start_hit_rate"),
    ) {
        checks.extend(check_smaller_is_worse("warm_start_hit_rate".into(), ch, fh));
    }
    // A fresh run whose warm phase never hits the store is a hard failure
    // even if the committed artifact predates the metric.
    if let Some(fh) = num(fresh, "warm_start_hit_rate") {
        if fh <= 0.0 {
            checks.push(Check {
                label: "warm_start_hit_rate > 0".into(),
                committed: num(committed, "warm_start_hit_rate").unwrap_or(1.0),
                fresh: fh,
                worse: 1.0,
            });
        }
    }
    if let (Some(cq), Some(fq)) = (num(committed, "quarantined"), num(fresh, "quarantined")) {
        if fq > cq {
            checks.push(Check {
                label: "store quarantines".into(),
                committed: cq,
                fresh: fq,
                worse: 1.0,
            });
        }
    }
    for key in ["p50_latency_ms", "p99_latency_ms", "shed"] {
        match (
            num(fresh, key).or_else(|| fresh.get("warm").and_then(|w| num(w, key))),
            num(committed, key).or_else(|| committed.get("warm").and_then(|w| num(w, key))),
        ) {
            (Some(f), Some(c)) => println!("info: {key} committed {c:.3} -> fresh {f:.3}"),
            (Some(f), None) => println!("info: {key} fresh {f:.3} (no committed baseline)"),
            _ => {}
        }
    }
}

fn load(path: &str) -> Result<JsonValue, String> {
    // The typed classification (missing / empty / unparseable / partial)
    // renders an actionable message; bench_compare reports it and exits 2.
    load_artifact(path).map_err(|e| e.to_string())
}

/// The artifact kind: the envelope's `bench` field when present, else
/// sniffed from the (unwrapped) document shape so pre-envelope baselines
/// still dispatch correctly.
fn sniff_kind(doc: &JsonValue, body: &JsonValue) -> Option<&'static str> {
    if let Some(name) = bench_name(doc) {
        return match name {
            "soak" => Some("soak"),
            "recovery" => Some("recovery"),
            "dse_parallel" => Some("dse_parallel"),
            "config_integrity" => Some("config_integrity"),
            "telemetry_overhead" => Some("telemetry_overhead"),
            "service" => Some("service"),
            _ => None,
        };
    }
    if body.get("warm_start_hit_rate").is_some() {
        return Some("service");
    }
    if body.get("presets").is_some() {
        Some("soak")
    } else if body.get("runs").is_some() {
        Some("dse_parallel")
    } else if body.get("aggregate_disabled_overhead_pct").is_some() {
        Some("telemetry_overhead")
    } else if body.get("verify_reps").is_some() {
        Some("config_integrity")
    } else if body.get("rows").is_some() {
        Some("recovery")
    } else {
        None
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, committed_path, fresh_path] = &args[..] else {
        log(
            Level::Error,
            "usage: bench_compare <committed.json> <fresh.json>",
        );
        return ExitCode::from(2);
    };
    let (committed_doc, fresh_doc) = match (load(committed_path), load(fresh_path)) {
        (Ok(c), Ok(f)) => (c, f),
        (Err(e), _) | (_, Err(e)) => {
            log(Level::Error, format!("bench_compare: {e}"));
            return ExitCode::from(2);
        }
    };
    // Both sides read through the envelope (bare documents pass through).
    let committed = payload(&committed_doc);
    let fresh = payload(&fresh_doc);

    let Some(kind) =
        sniff_kind(&committed_doc, committed).or_else(|| sniff_kind(&fresh_doc, fresh))
    else {
        log(
            Level::Error,
            format!("bench_compare: unrecognized artifact shape in {committed_path}"),
        );
        return ExitCode::from(2);
    };
    println!("bench_compare: {kind} | committed {committed_path} vs fresh {fresh_path}");

    let mut checks = Vec::new();
    match kind {
        "soak" => compare_soak(committed, fresh, &mut checks),
        "dse_parallel" => compare_dse_parallel(committed, fresh, &mut checks),
        "config_integrity" => compare_config_integrity(committed, fresh, &mut checks),
        "telemetry_overhead" => compare_telemetry_overhead(committed, fresh, &mut checks),
        "service" => compare_service(committed, fresh, &mut checks),
        _ => compare_recovery(committed, fresh, &mut checks),
    }

    if checks.is_empty() {
        log(
            Level::Error,
            "bench_compare: no comparable metrics found — schema mismatch?",
        );
        return ExitCode::from(2);
    }

    let mut failures = 0usize;
    for check in &checks {
        let verdict = if check.failed() { "FAIL" } else { "ok" };
        println!(
            "  {verdict:>4}  {:<44} committed {:>9.3} fresh {:>9.3} ({:+.1}%)",
            check.label,
            check.committed,
            check.fresh,
            100.0 * check.worse,
        );
        failures += usize::from(check.failed());
    }

    if failures > 0 {
        log(
            Level::Error,
            format!(
                "bench_compare: {failures}/{} metrics regressed beyond {:.0}%",
                checks.len(),
                100.0 * TOLERANCE
            ),
        );
        return ExitCode::FAILURE;
    }
    println!(
        "bench_compare: all {} metrics within {:.0}% of committed",
        checks.len(),
        100.0 * TOLERANCE
    );
    ExitCode::SUCCESS
}
