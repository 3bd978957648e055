//! telemetry_overhead — cost of the telemetry layer, on and off.
//!
//! Three measurements:
//!
//! 1. **Event throughput** — events/sec through `Telemetry::emit` into the
//!    in-memory sink, and the per-call cost of a *disabled* handle (one
//!    `Option` discriminant branch; the closure never runs).
//! 2. **Pipeline overhead, disabled** — wall time of
//!    `simulate_instrumented` with `Telemetry::disabled()` (every pillar
//!    off: sink, metrics registry, flight recorder) versus the plain
//!    `simulate`, min-of-N per kernel. This is the zero-cost contract the
//!    library ships under: **the run fails (exit 1) if the disabled
//!    overhead exceeds 2%.**
//! 3. **Pipeline overhead, enabled** — the same comparison with the event
//!    sink on, the metrics registry on (sink off), and the flight
//!    recorder on (sink off), each reported for information (not gated).
//!
//! A machine-readable copy is written as JSON (first CLI argument,
//! default `BENCH_telemetry_overhead.json`) for the CI artifact upload
//! and the `bench_compare` absolute overhead gate.
//!
//! Run with: `cargo run --release -p dsagen-bench --bin telemetry_overhead`

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use dsagen::{compile, CompileOptions};
use dsagen_adg::{presets, Adg};
use dsagen_bench::envelope::Envelope;
use dsagen_bench::rule;
use dsagen_dfg::Kernel;
use dsagen_scheduler::SchedulerConfig;
use dsagen_sim::{simulate, simulate_instrumented, SimConfig};
use dsagen_telemetry::{log, EventData, FlightRecorder, Level, MetricsRegistry, Telemetry};
use dsagen_workloads::{machsuite, polybench};

/// Interleaved measurement rounds per kernel; each round times every mode
/// once (in a rotating order, so no mode always rides the cache-warm or
/// boost-decayed slot) and per-round paired ratios are medianed, so slow
/// outliers (scheduler preemption, thermal drift) cannot bias one mode.
const REPS: u32 = 33;
/// Events pushed through the emission-throughput probe.
const EMIT_EVENTS: u64 = 200_000;
/// The gate: disabled-telemetry overhead must stay under this.
const MAX_DISABLED_OVERHEAD_PCT: f64 = 2.0;

struct Row {
    kernel: String,
    plain_us: f64,
    disabled_us: f64,
    enabled_us: f64,
    /// Median of per-round `disabled/plain` ratios (paired, so clock
    /// drift across the run cancels).
    disabled_ratio: f64,
    /// Median of per-round `enabled/plain` ratios (event sink on).
    enabled_ratio: f64,
    /// Median of per-round ratios with only the metrics registry on.
    metrics_ratio: f64,
    /// Median of per-round ratios with only the flight recorder on.
    recorder_ratio: f64,
    events: usize,
}

impl Row {
    fn disabled_overhead_pct(&self) -> f64 {
        (self.disabled_ratio - 1.0) * 100.0
    }
    fn enabled_overhead_pct(&self) -> f64 {
        (self.enabled_ratio - 1.0) * 100.0
    }
    fn metrics_overhead_pct(&self) -> f64 {
        (self.metrics_ratio - 1.0) * 100.0
    }
    fn recorder_overhead_pct(&self) -> f64 {
        (self.recorder_ratio - 1.0) * 100.0
    }
}

/// Median of a sample (by value; the vectors here are tiny).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    if xs.is_empty() {
        return f64::NAN;
    }
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

fn fixtures() -> (Adg, Vec<Kernel>) {
    (
        presets::softbrain(),
        vec![polybench::mvt(), machsuite::mm(), polybench::atax()],
    )
}

/// One timed call, in microseconds.
fn time_us<T>(f: impl FnOnce() -> T) -> f64 {
    let started = Instant::now();
    black_box(f());
    started.elapsed().as_secs_f64() * 1e6
}

fn bench_kernel(adg: &Adg, kernel: &Kernel) -> Row {
    let opts = CompileOptions {
        max_unroll: 4,
        scheduler: SchedulerConfig {
            max_iters: 150,
            ..SchedulerConfig::default()
        },
        ..CompileOptions::default()
    };
    let c = compile(adg, kernel, &opts).expect("benchmark kernel must compile");
    let cfg = SimConfig::default();
    let off = Telemetry::disabled();
    let on = Telemetry::in_memory();
    let with_metrics = Telemetry::disabled().with_metrics(MetricsRegistry::enabled());
    let with_recorder = Telemetry::disabled().with_recorder(FlightRecorder::enabled());

    let run_plain = || {
        simulate(
            adg,
            &c.version,
            &c.schedule,
            &c.eval,
            c.config_path_len,
            &cfg,
        )
        .expect("benchmark schedule must simulate")
        .cycles
    };
    let run_with = |tel: &Telemetry| {
        simulate_instrumented(
            adg,
            &c.version,
            &c.schedule,
            &c.eval,
            c.config_path_len,
            &cfg,
            tel,
        )
        .expect("benchmark schedule must simulate")
        .0
        .cycles
    };

    // The five modes, one timing closure each: plain `simulate`, then the
    // instrumented path with every pillar off, the event sink on, only
    // the metrics registry on, and only the flight recorder on.
    let modes: [&dyn Fn() -> f64; 5] = [
        &|| time_us(run_plain),
        &|| time_us(|| run_with(&off)),
        &|| time_us(|| run_with(&on)),
        &|| time_us(|| run_with(&with_metrics)),
        &|| time_us(|| run_with(&with_recorder)),
    ];

    // Warm-up: touch every path once before timing.
    for mode in &modes {
        black_box(mode());
    }

    // Interleaved rounds: each round times the five modes back to back,
    // so the paired within-round ratios are immune to slow clock drift.
    // The starting mode rotates per round so no mode systematically
    // occupies the first (cache-warm) or last (boost-decayed) slot.
    let mut min_us = [f64::INFINITY; 5];
    let mut ratios: [Vec<f64>; 4] = std::array::from_fn(|_| Vec::with_capacity(REPS as usize));
    for round in 0..REPS as usize {
        let mut round_us = [0.0f64; 5];
        for k in 0..modes.len() {
            let mode = (round + k) % modes.len();
            round_us[mode] = modes[mode]();
        }
        let plain = round_us[0].max(1e-9);
        for (mode, &us) in round_us.iter().enumerate() {
            min_us[mode] = min_us[mode].min(us);
            if mode > 0 {
                ratios[mode - 1].push(us / plain);
            }
        }
    }
    let [disabled_ratios, enabled_ratios, metrics_ratios, recorder_ratios] = ratios;

    Row {
        kernel: kernel.name.clone(),
        plain_us: min_us[0],
        disabled_us: min_us[1],
        enabled_us: min_us[2],
        disabled_ratio: median(disabled_ratios),
        enabled_ratio: median(enabled_ratios),
        metrics_ratio: median(metrics_ratios),
        recorder_ratio: median(recorder_ratios),
        events: on.events().len(),
    }
}

/// Raw event-layer throughput: events/sec enabled, ns/call disabled.
fn bench_emission() -> (f64, f64) {
    let on = Telemetry::in_memory();
    let started = Instant::now();
    for i in 0..EMIT_EVENTS {
        on.emit(|| {
            EventData::new("bench", "tick")
                .arg("i", i)
                .arg("phase", "emit")
        });
    }
    let enabled_eps = EMIT_EVENTS as f64 / started.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(on.events().len() as u64, EMIT_EVENTS);

    let off = Telemetry::disabled();
    let started = Instant::now();
    for i in 0..EMIT_EVENTS {
        off.emit(|| {
            EventData::new("bench", "tick")
                .arg("i", i)
                .arg("phase", "emit")
        });
    }
    let disabled_ns_per_call = started.elapsed().as_secs_f64() * 1e9 / EMIT_EVENTS as f64;
    assert!(off.events().is_empty());
    (enabled_eps, disabled_ns_per_call)
}

fn to_json(rows: &[Row], enabled_eps: f64, disabled_ns: f64, aggregate_pct: f64) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"reps\": {REPS},\n  \"emit_events\": {EMIT_EVENTS},\n  \
\"enabled_events_per_sec\": {enabled_eps:.0},\n  \"disabled_ns_per_call\": {disabled_ns:.2},\n  \
\"aggregate_disabled_overhead_pct\": {aggregate_pct:.3},\n  \
\"gate_pct\": {MAX_DISABLED_OVERHEAD_PCT},\n  \"rows\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"kernel\": {:?}, \"plain_us\": {:.1}, \"disabled_us\": {:.1}, \
\"enabled_us\": {:.1}, \"disabled_overhead_pct\": {:.3}, \"enabled_overhead_pct\": {:.3}, \
\"metrics_overhead_pct\": {:.3}, \"recorder_overhead_pct\": {:.3}, \
\"events\": {}}}{}",
            r.kernel,
            r.plain_us,
            r.disabled_us,
            r.enabled_us,
            r.disabled_overhead_pct(),
            r.enabled_overhead_pct(),
            r.metrics_overhead_pct(),
            r.recorder_overhead_pct(),
            r.events,
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_telemetry_overhead.json".to_string());

    println!("TELEMETRY OVERHEAD: event throughput and pipeline cost, on vs off");
    println!(
        "{REPS} reps per mode (min-of-N), gate: disabled overhead < {MAX_DISABLED_OVERHEAD_PCT}%"
    );
    rule(86);

    let (enabled_eps, disabled_ns) = bench_emission();
    println!("event layer: {enabled_eps:.0} events/s enabled, {disabled_ns:.2} ns/call disabled");
    rule(86);
    println!(
        "{:>12} {:>10} {:>10} {:>10} {:>9} {:>8} {:>8} {:>8} {:>7}",
        "kernel",
        "plain-us",
        "off-us",
        "on-us",
        "off-ovh%",
        "on-ovh%",
        "reg-ovh%",
        "rec-ovh%",
        "events"
    );
    rule(86);

    let (adg, kernels) = fixtures();
    let mut rows = Vec::new();
    for kernel in &kernels {
        let r = bench_kernel(&adg, kernel);
        println!(
            "{:>12} {:>10.1} {:>10.1} {:>10.1} {:>9.3} {:>8.3} {:>8.3} {:>8.3} {:>7}",
            r.kernel,
            r.plain_us,
            r.disabled_us,
            r.enabled_us,
            r.disabled_overhead_pct(),
            r.enabled_overhead_pct(),
            r.metrics_overhead_pct(),
            r.recorder_overhead_pct(),
            r.events,
        );
        rows.push(r);
    }
    rule(86);

    // Gate on the runtime-weighted mean of the per-kernel median paired
    // ratios: pairing cancels clock drift, the median rejects preemption
    // outliers, and weighting keeps sub-100us kernels from dominating.
    let weight_total: f64 = rows.iter().map(|r| r.plain_us).sum();
    let aggregate_ratio: f64 = rows
        .iter()
        .map(|r| r.disabled_ratio * r.plain_us)
        .sum::<f64>()
        / weight_total.max(1e-9);
    let aggregate_pct = (aggregate_ratio - 1.0) * 100.0;
    println!("aggregate disabled-telemetry overhead: {aggregate_pct:.3}%");

    let json = to_json(&rows, enabled_eps, disabled_ns, aggregate_pct);
    let artifact = Envelope::new("telemetry_overhead")
        .meta_int("reps", u64::from(REPS))
        .meta_num("gate_pct", MAX_DISABLED_OVERHEAD_PCT)
        .wrap(&json);
    match std::fs::write(&out_path, &artifact) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => log(Level::Error, format!("could not write {out_path}: {e}")),
    }

    if aggregate_pct > MAX_DISABLED_OVERHEAD_PCT {
        log(
            Level::Error,
            format!(
                "FAIL: disabled-telemetry overhead {aggregate_pct:.3}% exceeds the \
{MAX_DISABLED_OVERHEAD_PCT}% gate"
            ),
        );
        std::process::exit(1);
    }
    println!("gate passed: disabled telemetry is free");
}
