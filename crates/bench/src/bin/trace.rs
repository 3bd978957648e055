//! trace — one command, one loadable Chrome trace, one attribution table.
//!
//! Runs the full instrumented pipeline — compile → schedule → model →
//! simulate → model-vs-sim attribution — for the paper workloads on the
//! softbrain preset, then:
//!
//! * writes `trace.json`, a Chrome `trace_event` file: open
//!   `chrome://tracing` (or <https://ui.perfetto.dev>) and load it to see
//!   the phase spans on a timeline;
//! * writes `trace.jsonl`, the same events as flat JSONL for scripting;
//! * prints the per-kernel model-vs-sim attribution table (predicted
//!   bottleneck vs measured stall breakdown, relative error per kernel).
//!
//! Output prefix is the first CLI argument (default `trace`, producing
//! `trace.json` / `trace.jsonl`).
//!
//! Run with: `cargo run --release -p dsagen-bench --bin trace`

use dsagen::attribution::{attribute, attribution_table};
use dsagen::{compile_traced, CompileOptions};
use dsagen_adg::presets;
use dsagen_bench::rule;
use dsagen_scheduler::SchedulerConfig;
use dsagen_sim::SimConfig;
use dsagen_telemetry::{chrome_trace, jsonl, log, Level, Telemetry};
use dsagen_workloads::{dsp, machsuite, polybench};

fn main() {
    let prefix = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "trace".to_string());
    let adg = presets::softbrain();
    let kernels = vec![
        polybench::mvt(),
        polybench::atax(),
        machsuite::mm(),
        dsp::fir16(),
    ];
    let opts = CompileOptions {
        max_unroll: 4,
        scheduler: SchedulerConfig {
            max_iters: 200,
            ..SchedulerConfig::default()
        },
        ..CompileOptions::default()
    };

    println!("TRACE: instrumented pipeline on {}", adg.name());
    rule(72);

    let tel = Telemetry::in_memory();
    let mut rows = Vec::new();
    for kernel in &kernels {
        match compile_traced(&adg, kernel, &opts, &tel) {
            Ok(compiled) => {
                match attribute(&adg, &kernel.name, &compiled, &SimConfig::default(), &tel) {
                    Ok(row) => rows.push(row),
                    Err(e) => println!("{}: skipped ({e})", kernel.name),
                }
            }
            Err(e) => println!("{}: skipped ({e})", kernel.name),
        }
    }

    // The Fig 15-bottom validation as text: model vs simulator, per kernel.
    println!("{}", attribution_table(&rows));

    // Per-kernel dominant stalls from the hardware counters.
    for row in &rows {
        let (label, cycles) = row.taxonomy.dominant();
        println!(
            "{:<12} dominant stall: {label} ({cycles} cycles, {} stall cycles total)",
            row.kernel,
            row.taxonomy.total()
        );
    }
    rule(72);

    let events = tel.events();
    let json_path = format!("{prefix}.json");
    let jsonl_path = format!("{prefix}.jsonl");
    if let Err(e) = std::fs::write(&json_path, chrome_trace(&events)) {
        log(Level::Error, format!("could not write {json_path}: {e}"));
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(&jsonl_path, jsonl(&events)) {
        log(Level::Error, format!("could not write {jsonl_path}: {e}"));
        std::process::exit(1);
    }
    println!(
        "{} events -> {json_path} (load in chrome://tracing) and {jsonl_path}",
        events.len()
    );
}
