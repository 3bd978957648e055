//! bench_compare — the disabled-telemetry overhead gate.
//!
//! Reads a freshly generated `telemetry_overhead` artifact beside the
//! committed `BENCH_telemetry_overhead.json` and fails (exit 1) when the
//! fresh aggregate disabled-telemetry overhead exceeds the artifact's own
//! absolute gate (`gate_pct`, 2%). The committed value is printed for
//! reference only: a relative band around a near-zero overhead is noise.
//!
//! ```text
//! cargo run --release -p dsagen-bench --bin bench_compare -- \
//!     BENCH_telemetry_overhead.json /tmp/fresh_telemetry_overhead.json
//! ```
//!
//! Both sides read through [`dsagen_bench::envelope::payload`], so a bare
//! pre-envelope document passes through.

use std::process::ExitCode;

use dsagen_bench::artifact::load_artifact;
use dsagen_bench::envelope::{bench_name, payload};
use dsagen_bench::json::JsonValue;
use dsagen_telemetry::{log, Level};

fn num(v: &JsonValue, key: &str) -> Option<f64> {
    v.get(key).and_then(JsonValue::as_f64)
}

fn load(path: &str) -> Result<JsonValue, String> {
    // The typed classification (missing / empty / unparseable / partial)
    // renders an actionable message; bench_compare reports it and exits 2.
    load_artifact(path).map_err(|e| e.to_string())
}

/// Whether `doc` is a telemetry_overhead artifact: by the envelope's
/// `bench` field when present, else by the payload's shape.
fn is_telemetry_overhead(doc: &JsonValue) -> bool {
    match bench_name(doc) {
        Some(name) => name == "telemetry_overhead",
        None => payload(doc)
            .get("aggregate_disabled_overhead_pct")
            .is_some(),
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
    for (path, doc) in [(committed_path, &committed_doc), (fresh_path, &fresh_doc)] {
        if !is_telemetry_overhead(doc) {
            log(
                Level::Error,
                format!("bench_compare: {path} is not a telemetry_overhead artifact"),
            );
            return ExitCode::from(2);
        }
    }
    let committed = payload(&committed_doc);
    let fresh = payload(&fresh_doc);
    let Some(overhead) = num(fresh, "aggregate_disabled_overhead_pct") else {
        log(
            Level::Error,
            format!("bench_compare: {fresh_path} has no aggregate_disabled_overhead_pct"),
        );
        return ExitCode::from(2);
    };
    let gate = num(fresh, "gate_pct")
        .or_else(|| num(committed, "gate_pct"))
        .unwrap_or(2.0);
    let passed = overhead <= gate;
    println!(
        "  {:>4}  aggregate_disabled_overhead_pct (abs gate {gate}%) committed {:>9.3} fresh {overhead:>9.3}",
        if passed { "ok" } else { "FAIL" },
        num(committed, "aggregate_disabled_overhead_pct").unwrap_or(gate),
    );
    if let (Some(c), Some(f)) = (
        num(committed, "enabled_events_per_sec"),
        num(fresh, "enabled_events_per_sec"),
    ) {
        println!("info: enabled_events_per_sec committed {c:.0} -> fresh {f:.0}");
    }
    if !passed {
        log(
            Level::Error,
            format!("bench_compare: disabled-telemetry overhead {overhead:.3}% exceeds {gate}%"),
        );
        return ExitCode::FAILURE;
    }
    println!("bench_compare: disabled-telemetry overhead within the {gate}% gate");
    ExitCode::SUCCESS
}
