//! profile — self-profiling flame report for a representative DSE run.
//!
//! Runs a fixed-seed, single-threaded exploration with the full
//! observability stack on (event sink, metrics registry, flight
//! recorder), then compiles and simulates the best design under the same
//! telemetry handle, and folds the span capture into the wall-time
//! attribution tree ([`dsagen_telemetry::profile`]). The answer to "where
//! does DSE wall time go" is printed as:
//!
//! * the full indented flame tree (also written to
//!   `results/profile_flame.txt` for the CI artifact upload), and
//! * **top-level buckets** of the `phase/dse` span — its direct children
//!   (path search, scoped repair, config verify, model estimate) plus an
//!   explicit `other` bucket for the span's own self time, so the buckets
//!   sum to exactly 100% of the DSE span. The run fails (exit 1) if the
//!   named buckets (`other` excluded) cover less than 95% of the DSE
//!   span, or if no path-search bucket exists — that's the attribution
//!   the ROADMAP's hot-loop rewrite is gated on.
//!
//! A machine-readable copy is written as JSON (first CLI argument,
//! default `BENCH_profile.json`); the flame text path is the second CLI
//! argument (default `results/profile_flame.txt`).
//!
//! Run with: `cargo run --release -p dsagen-bench --bin profile`

use std::fmt::Write as _;

use dsagen::{compile, CompileOptions};
use dsagen_adg::presets;
use dsagen_bench::envelope::Envelope;
use dsagen_bench::rule;
use dsagen_dse::{DseConfig, Explorer};
use dsagen_sim::{simulate_instrumented, SimConfig};
use dsagen_telemetry::{
    log, profile, FlightRecorder, Level, MetricsRegistry, ProfileNode, Telemetry,
};
use dsagen_workloads::{machsuite, polybench};

/// Fixed seed: the profiled run is reproducible.
const SEED: u64 = 0x9806;
/// Exploration shards. Single-threaded execution keeps every span on one
/// thread, so the attribution tree is one coherent stack.
const SHARDS: usize = 2;
/// Exploration steps per shard — enough for every phase to register.
const MAX_ITERS: u32 = 16;
/// Minimum fraction of the DSE span the named top-level buckets must
/// cover (the `other` self-time bucket excluded).
const MIN_NAMED_COVERAGE: f64 = 0.95;

/// One top-level attribution bucket under the DSE span.
struct Bucket {
    name: String,
    total_us: u64,
    pct: f64,
}

fn buckets_of(dse: &ProfileNode) -> Vec<Bucket> {
    let total = dse.total_us.max(1) as f64;
    let mut out: Vec<Bucket> = dse
        .children
        .iter()
        .map(|c| Bucket {
            name: c.key(),
            total_us: c.total_us,
            pct: 100.0 * c.total_us as f64 / total,
        })
        .collect();
    out.push(Bucket {
        name: "other (dse self)".to_string(),
        total_us: dse.self_us,
        pct: 100.0 * dse.self_us as f64 / total,
    });
    out
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_profile.json".to_string());
    let flame_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "results/profile_flame.txt".to_string());

    let kernels = vec![polybench::mvt(), machsuite::mm()];
    let cfg = DseConfig {
        seed: SEED,
        shards: SHARDS,
        threads: 1,
        max_iters: MAX_ITERS,
        patience: MAX_ITERS,
        sched_iters: 60,
        max_unroll: 4,
        ..DseConfig::default()
    };
    println!("SELF-PROFILE: wall-time attribution for a representative DSE run");
    println!(
        "seed {SEED:#x}, {SHARDS} shards x {MAX_ITERS} iters, 1 thread, kernels: {}",
        kernels
            .iter()
            .map(|k| k.name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );

    // The full stack: event sink (spans), metrics registry, flight
    // recorder — the profiled run doubles as an end-to-end smoke test of
    // all three observability pillars.
    let tel = Telemetry::in_memory()
        .with_metrics(MetricsRegistry::enabled())
        .with_recorder(FlightRecorder::enabled());
    let mut ex = Explorer::new(presets::dse_initial(), &kernels, cfg).with_telemetry(tel.clone());
    let result = ex.run();
    println!(
        "explored: best objective {:.4}, {} sched invocations",
        result.best.objective,
        ex.sched_invocations()
    );

    // Simulate the best design under the same handle so the engine's
    // tick-loop span joins the capture next to the DSE span.
    let opts = CompileOptions {
        max_unroll: 4,
        ..CompileOptions::default()
    };
    match compile(&result.best_adg, &kernels[0], &opts) {
        Ok(c) => {
            let sim = simulate_instrumented(
                &result.best_adg,
                &c.version,
                &c.schedule,
                &c.eval,
                c.config_path_len,
                &SimConfig::default(),
                &tel,
            );
            match sim {
                Ok((report, _)) => println!(
                    "simulated best design: {} cycles on {}",
                    report.cycles, kernels[0].name
                ),
                Err(e) => log(Level::Warn, format!("best design did not simulate: {e}")),
            }
        }
        Err(e) => log(Level::Warn, format!("best design did not compile: {e}")),
    }

    let events = tel.events();
    let report = profile(&events);
    rule(84);
    print!("{}", report.flame());
    rule(84);

    let Some(dse) = report.find("dse") else {
        log(Level::Error, "no phase/dse span in the capture");
        std::process::exit(1);
    };
    let buckets = buckets_of(dse);
    let named_pct: f64 = buckets
        .iter()
        .filter(|b| !b.name.starts_with("other"))
        .map(|b| b.pct)
        .sum();
    let path_search_pct: f64 = buckets
        .iter()
        .filter(|b| b.name.contains("path_search"))
        .map(|b| b.pct)
        .sum();
    let engine_us = report.find("tick_loop").map_or(0, |n| n.total_us);

    println!("top-level DSE buckets ({}us total):", dse.total_us);
    for b in &buckets {
        println!("  {:<28} {:>10}us {:>6.1}%", b.name, b.total_us, b.pct);
    }
    println!(
        "named buckets cover {named_pct:.1}% of the DSE span | path search {path_search_pct:.1}% \
| engine tick loop {engine_us}us"
    );

    if let Err(e) = std::fs::create_dir_all(
        std::path::Path::new(&flame_path)
            .parent()
            .unwrap_or_else(|| std::path::Path::new(".")),
    ) {
        log(Level::Warn, format!("could not create flame dir: {e}"));
    }
    match std::fs::write(&flame_path, report.flame()) {
        Ok(()) => println!("wrote {flame_path}"),
        Err(e) => log(Level::Error, format!("could not write {flame_path}: {e}")),
    }

    // Machine-readable copy (the vendored serde is a stub — by hand).
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"wall_us\": {},\n  \"dse_total_us\": {},\n  \
\"named_coverage_pct\": {named_pct:.2},\n  \"path_search_pct\": {path_search_pct:.2},\n  \
\"engine_tick_loop_us\": {engine_us},\n  \"buckets\": [\n",
        report.wall_us, dse.total_us,
    );
    for (i, b) in buckets.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": {:?}, \"total_us\": {}, \"pct\": {:.2}}}{}",
            b.name,
            b.total_us,
            b.pct,
            if i + 1 < buckets.len() { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");
    let artifact = Envelope::new("profile")
        .meta_int("seed", SEED)
        .meta_int("shards", SHARDS as u64)
        .meta_int("max_iters", u64::from(MAX_ITERS))
        .metrics(tel.metrics().snapshot())
        .wrap(&json);
    match std::fs::write(&out_path, &artifact) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => log(Level::Error, format!("could not write {out_path}: {e}")),
    }

    // The gate: the buckets must actually explain the DSE span — a new
    // untracked phase that grows past 5% of the run shows up here first.
    if named_pct < 100.0 * MIN_NAMED_COVERAGE {
        log(
            Level::Error,
            format!(
                "FAIL: named buckets cover only {named_pct:.1}% of the DSE span \
(need {:.0}%) — a phase is missing its span",
                100.0 * MIN_NAMED_COVERAGE
            ),
        );
        std::process::exit(1);
    }
    if path_search_pct <= 0.0 {
        log(
            Level::Error,
            "FAIL: no path-search bucket in the DSE attribution",
        );
        std::process::exit(1);
    }
    println!("gate passed: attribution covers the DSE span");
}
