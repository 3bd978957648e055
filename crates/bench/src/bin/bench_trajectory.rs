//! bench_trajectory — cross-PR bench trajectory appender and schema gate.
//!
//! Reads every `BENCH_*.json` artifact (paths from CLI arguments, or the
//! current directory scanned when none are given) and appends one JSONL
//! row per artifact to `results/trajectory.jsonl`: the bench name, the
//! envelope schema version, and a small set of key *deterministic*
//! metrics per artifact kind. Committed alongside the baselines, the file
//! accumulates one generation per PR — the long-run trajectory CI plots
//! and gates against.
//!
//! Two failure modes (exit 1), so the CI trajectory job is a real gate:
//!
//! * **Schema regression** — an artifact's envelope `schema_version` is
//!   lower than the last recorded row for the same bench (a bench that
//!   silently dropped back to a bare pre-envelope document counts as
//!   version 0).
//! * **Unreadable artifact** — a named `BENCH_*.json` that fails to
//!   parse.
//!
//! Run with: `cargo run --release -p dsagen-bench --bin bench_trajectory`
//! `DSAGEN_TRAJECTORY=<path>` overrides the output file.

use std::fmt::Write as _;
use std::process::ExitCode;

use dsagen_bench::envelope::{bench_name, payload};
use dsagen_bench::json::{parse, JsonValue};
use dsagen_telemetry::{escape_json, log, Level};

fn num(v: &JsonValue, key: &str) -> Option<f64> {
    v.get(key).and_then(JsonValue::as_f64)
}

/// Key deterministic metrics per artifact kind, as `"key": value` JSON
/// fragments. Wall-clock metrics are deliberately excluded — the
/// trajectory tracks code properties, not runner speed.
fn key_metrics(kind: &str, body: &JsonValue) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut push = |label: &str, v: Option<f64>| {
        if let Some(v) = v {
            out.push((label.to_string(), v));
        }
    };
    match kind {
        "soak" => {
            push("aborts", num(body, "aborts"));
            push("replay_divergences", num(body, "replay_divergences"));
            push("full_reschedules", num(body, "full_reschedules"));
            push("replayed_saved_cycles", num(body, "replayed_saved_cycles"));
            push(
                "rows",
                body.get("rows")
                    .and_then(JsonValue::as_array)
                    .map(|r| r.len() as f64),
            );
        }
        "recovery" => {
            push(
                "pairs",
                body.get("rows")
                    .and_then(JsonValue::as_array)
                    .map(|r| r.len() as f64),
            );
            let recovered = body.get("rows").and_then(JsonValue::as_array).map(|rows| {
                rows.iter()
                    .filter(|r| {
                        r.get("permanent")
                            .and_then(|p| p.get("recovered"))
                            .and_then(JsonValue::as_bool)
                            == Some(true)
                    })
                    .count() as f64
            });
            push("permanent_recovered", recovered);
        }
        "dse_parallel" => {
            if let Some(runs) = body.get("runs").and_then(JsonValue::as_array) {
                if let Some(base) = runs.first() {
                    push("best_objective", num(base, "best_objective"));
                    push("sched_invocations", num(base, "sched_invocations"));
                    push(
                        "cache_hit_rate",
                        base.get("cache").and_then(|c| num(c, "hit_rate")),
                    );
                }
            }
        }
        "config_integrity" => {
            if let Some(rows) = body.get("rows").and_then(JsonValue::as_array) {
                push("rows", Some(rows.len() as f64));
                let max_attempts = rows
                    .iter()
                    .filter_map(|r| num(r, "recovery_attempts"))
                    .fold(0.0f64, f64::max);
                push("max_recovery_attempts", Some(max_attempts));
            }
        }
        "telemetry_overhead" => {
            push(
                "aggregate_disabled_overhead_pct",
                num(body, "aggregate_disabled_overhead_pct"),
            );
            push("gate_pct", num(body, "gate_pct"));
        }
        "profile" => {
            push("named_coverage_pct", num(body, "named_coverage_pct"));
            push("path_search_pct", num(body, "path_search_pct"));
        }
        "service" => {
            // p99 latency is machine-dependent but its *trajectory* across
            // PRs on the same CI runner class is the latency history the
            // issue asks to track; the hit rate and counts are code
            // properties.
            push("completed", num(body, "completed"));
            push("warm_start_hit_rate", num(body, "warm_start_hit_rate"));
            push(
                "warm_p99_latency_ms",
                body.get("warm").and_then(|w| num(w, "p99_latency_ms")),
            );
            push("shed", num(body, "shed"));
            push("quarantined", num(body, "quarantined"));
        }
        _ => {}
    }
    out
}

/// Infers the bench kind from the artifact path (`BENCH_soak.json` →
/// `soak`) when the envelope carries no name.
fn kind_from_path(path: &str) -> Option<String> {
    let file = std::path::Path::new(path).file_name()?.to_str()?;
    let stem = file.strip_prefix("BENCH_")?.strip_suffix(".json")?;
    Some(stem.to_string())
}

/// Last recorded `schema_version` per bench in the existing trajectory.
fn last_versions(text: &str) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let Ok(doc) = parse(line) else { continue };
        let Some(bench) = doc.get("bench").and_then(JsonValue::as_str) else {
            continue;
        };
        let version = num(&doc, "schema_version").unwrap_or(0.0) as u64;
        match out.iter_mut().find(|(b, _)| b == bench) {
            Some((_, v)) => *v = version,
            None => out.push((bench.to_string(), version)),
        }
    }
    out
}

fn main() -> ExitCode {
    let out_path = std::env::var("DSAGEN_TRAJECTORY")
        .unwrap_or_else(|_| "results/trajectory.jsonl".to_string());
    let mut paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        // No explicit artifacts: scan the working directory.
        if let Ok(dir) = std::fs::read_dir(".") {
            for entry in dir.flatten() {
                let name = entry.file_name().to_string_lossy().to_string();
                if name.starts_with("BENCH_") && name.ends_with(".json") {
                    paths.push(name);
                }
            }
        }
        paths.sort();
    }
    if paths.is_empty() {
        log(
            Level::Error,
            "bench_trajectory: no BENCH_*.json artifacts found",
        );
        return ExitCode::from(2);
    }

    let previous = std::fs::read_to_string(&out_path).unwrap_or_default();
    let floor = last_versions(&previous);

    let mut rows = String::new();
    let mut regressions = 0usize;
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                log(Level::Error, format!("bench_trajectory: {path}: {e}"));
                return ExitCode::FAILURE;
            }
        };
        let doc = match parse(&text) {
            Ok(d) => d,
            Err(e) => {
                log(Level::Error, format!("bench_trajectory: {path}: {e}"));
                return ExitCode::FAILURE;
            }
        };
        let bench = bench_name(&doc)
            .map(str::to_string)
            .or_else(|| kind_from_path(path))
            .unwrap_or_else(|| "unknown".to_string());
        let version = num(&doc, "schema_version").unwrap_or(0.0) as u64;
        if let Some((_, last)) = floor.iter().find(|(b, _)| *b == bench) {
            if version < *last {
                log(
                    Level::Error,
                    format!(
                        "bench_trajectory: {bench} schema regressed {last} -> {version} \
({path} lost its envelope?)"
                    ),
                );
                regressions += 1;
            }
        }
        let body = payload(&doc);
        let mut row = String::new();
        let _ = write!(
            row,
            "{{\"bench\": \"{}\", \"schema_version\": {version}",
            escape_json(&bench)
        );
        for (key, value) in key_metrics(&bench, body) {
            let _ = write!(row, ", \"{}\": {value}", escape_json(&key));
        }
        row.push('}');
        println!("{row}");
        rows.push_str(&row);
        rows.push('\n');
    }

    if regressions > 0 {
        log(
            Level::Error,
            format!("bench_trajectory: {regressions} schema regression(s) — nothing appended"),
        );
        return ExitCode::FAILURE;
    }

    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        if let Err(e) = std::fs::create_dir_all(parent) {
            log(
                Level::Error,
                format!("bench_trajectory: mkdir {}: {e}", parent.display()),
            );
            return ExitCode::FAILURE;
        }
    }
    let mut combined = previous;
    combined.push_str(&rows);
    match std::fs::write(&out_path, &combined) {
        Ok(()) => {
            println!(
                "appended {} row(s) to {out_path} ({} total)",
                paths.len(),
                combined.lines().filter(|l| !l.trim().is_empty()).count()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            log(
                Level::Error,
                format!("bench_trajectory: write {out_path}: {e}"),
            );
            ExitCode::FAILURE
        }
    }
}
