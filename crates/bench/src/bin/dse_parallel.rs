//! dse_parallel — sharded-DSE throughput and schedule-memoization benchmark.
//!
//! Runs the same fixed-seed, fixed-shard exploration at several worker
//! thread counts and reports, per run: wall time, exploration iterations
//! per second, the schedule-cache hit rate, stochastic scheduling passes
//! executed, and the speedup over `threads = 1`. Because shard results are
//! deterministic in `(seed, shards)`, every run must select the *same*
//! best objective — the benchmark asserts it — so the table isolates pure
//! executor throughput.
//!
//! A machine-readable copy of the table is written as JSON (first CLI
//! argument, default `BENCH_dse_parallel.json`) for the CI artifact
//! upload and the `bench_compare` determinism gate.
//!
//! Run with: `cargo run --release -p dsagen-bench --bin dse_parallel`

use std::fmt::Write as _;
use std::time::Instant;

use dsagen_adg::presets;
use dsagen_bench::envelope::Envelope;
use dsagen_bench::rule;
use dsagen_dse::{CacheStats, DseConfig, Explorer};
use dsagen_telemetry::{log, Level, MetricsRegistry, Telemetry};
use dsagen_workloads::{suite_kernels, Suite};

/// Independent exploration shards (fixed across all runs).
const SHARDS: usize = 4;
/// Exploration steps per shard.
const MAX_ITERS: u32 = 24;
/// Scheduling iterations per repair/initialization.
const SCHED_ITERS: u32 = 60;
/// Fixed seed: every run explores the identical shard frontiers.
const SEED: u64 = 0xD5E;
/// Executor widths measured (1 is the baseline).
const THREADS: [usize; 3] = [1, 2, 4];

/// One measured run.
struct Run {
    threads: usize,
    seconds: f64,
    iterations: u64,
    best_objective: f64,
    cache: CacheStats,
    sched_invocations: u64,
}

impl Run {
    fn iters_per_sec(&self) -> f64 {
        self.iterations as f64 / self.seconds.max(1e-9)
    }
}

fn bench_kernels() -> Vec<dsagen_dfg::Kernel> {
    let wanted = ["mm", "centro-fir"];
    let mut out = Vec::new();
    for k in suite_kernels(Suite::MachSuite)
        .into_iter()
        .chain(suite_kernels(Suite::Dsp))
    {
        if wanted.contains(&k.name.as_str()) {
            out.push(k);
        }
    }
    assert_eq!(out.len(), wanted.len(), "benchmark kernels missing");
    out
}

fn run_once(kernels: &[dsagen_dfg::Kernel], threads: usize) -> (Run, MetricsRegistry) {
    let cfg = DseConfig {
        seed: SEED,
        shards: SHARDS,
        threads,
        max_iters: MAX_ITERS,
        patience: MAX_ITERS,
        sched_iters: SCHED_ITERS,
        max_unroll: 4,
        ..DseConfig::default()
    };
    // Sink off, metrics on: counters ride into the artifact envelope and
    // let the run double as a registry-determinism probe.
    let reg = MetricsRegistry::enabled();
    let tel = Telemetry::disabled().with_metrics(reg.clone());
    let mut ex = Explorer::new(presets::dse_initial(), kernels, cfg).with_telemetry(tel);
    let started = Instant::now();
    let result = ex.run();
    let seconds = started.elapsed().as_secs_f64();
    let iterations = result
        .shard_traces
        .iter()
        .map(|t| t.len() as u64)
        .sum::<u64>();
    let run = Run {
        threads,
        seconds,
        iterations,
        best_objective: result.best.objective,
        cache: ex.cache_stats(),
        sched_invocations: ex.sched_invocations(),
    };
    (run, reg)
}

/// Minimal JSON emission (the vendored serde is a stub — format by hand).
fn to_json(kernels: &[dsagen_dfg::Kernel], runs: &[Run]) -> String {
    let base = runs[0].iters_per_sec();
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"seed\": {SEED},\n  \"shards\": {SHARDS},\n  \"max_iters\": {MAX_ITERS},\n  \"kernels\": ["
    );
    for (i, k) in kernels.iter().enumerate() {
        let _ = write!(s, "{}{:?}", if i > 0 { ", " } else { "" }, k.name);
    }
    let _ = write!(s, "],\n  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"threads\": {}, \"seconds\": {:.4}, \"iterations\": {}, \"iters_per_sec\": {:.3}, \
\"speedup_vs_1\": {:.3}, \"best_objective\": {:.6}, \"sched_invocations\": {}, \
\"cache\": {{\"exact_hits\": {}, \"footprint_hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}}}}}{}",
            r.threads,
            r.seconds,
            r.iterations,
            r.iters_per_sec(),
            r.iters_per_sec() / base.max(1e-9),
            r.best_objective,
            r.sched_invocations,
            r.cache.exact_hits,
            r.cache.footprint_hits,
            r.cache.misses,
            r.cache.hit_rate(),
            if i + 1 < runs.len() { "," } else { "" },
        );
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_dse_parallel.json".to_string());
    let kernels = bench_kernels();

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!("PARALLEL SHARDED DSE: throughput and schedule memoization");
    println!(
        "{SHARDS} shards x {MAX_ITERS} iters, seed {SEED:#x}, {cores} core(s), kernels: {}",
        kernels
            .iter()
            .map(|k| k.name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    rule(78);
    println!(
        "{:>7} {:>9} {:>7} {:>10} {:>9} {:>10} {:>9} {:>10}",
        "threads", "secs", "iters", "iters/s", "speedup", "hit-rate", "sched", "objective"
    );
    rule(78);

    let mut runs = Vec::new();
    let mut last_registry = MetricsRegistry::disabled();
    for &t in &THREADS {
        let (r, reg) = run_once(&kernels, t);
        runs.push(r);
        last_registry = reg;
    }
    let base = runs[0].iters_per_sec();
    for r in &runs {
        println!(
            "{:>7} {:>9.2} {:>7} {:>10.2} {:>8.2}x {:>9.1}% {:>9} {:>10.4}",
            r.threads,
            r.seconds,
            r.iterations,
            r.iters_per_sec(),
            r.iters_per_sec() / base.max(1e-9),
            100.0 * r.cache.hit_rate(),
            r.sched_invocations,
            r.best_objective,
        );
    }
    rule(78);

    // Determinism contract: same (seed, shards) => same selected best,
    // whatever the executor width.
    for r in &runs[1..] {
        assert_eq!(
            r.best_objective.to_bits(),
            runs[0].best_objective.to_bits(),
            "thread count changed the selected best — determinism broken"
        );
    }
    let hit_ok = runs.iter().all(|r| r.cache.hit_rate() > 0.0);
    let speedup = runs
        .last()
        .map_or(0.0, |r| r.iters_per_sec() / base.max(1e-9));
    println!(
        "determinism: ok | cache hit-rate > 0: {} | threads={} speedup: {:.2}x (target >= 2.0)",
        if hit_ok { "ok" } else { "FAIL" },
        THREADS[THREADS.len() - 1],
        speedup
    );

    let json = to_json(&kernels, &runs);
    let artifact = Envelope::new("dse_parallel")
        .meta_int("seed", SEED)
        .meta_int("shards", SHARDS as u64)
        .meta_int("max_iters", u64::from(MAX_ITERS))
        .metrics(last_registry.snapshot())
        .wrap(&json);
    match std::fs::write(&out_path, &artifact) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => log(Level::Error, format!("could not write {out_path}: {e}")),
    }
}
