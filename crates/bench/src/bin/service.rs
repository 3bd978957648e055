//! service — codesign-service latency, load-shedding, and warm-start
//! benchmark.
//!
//! Drives the admission-controlled [`dsagen_service::Service`] through
//! three phases against one on-disk artifact store:
//!
//! 1. **cold** — a fresh (empty) store: every request runs full
//!    stochastic exploration and persists its verified schedules.
//! 2. **warm** — the store is *reopened* (a new handle over the same
//!    directory, simulating a fresh process) and the identical request
//!    set is replayed: the explorer's store tier must now serve hits, so
//!    `warm_start_hit_rate > 0` is a hard acceptance gate.
//! 3. **overload** — one worker, queue depth 1, a burst of submissions:
//!    admission control must shed the overflow with the typed
//!    [`dsagen_service::Rejected::QueueFull`], never block or panic.
//!
//! The artifact (first CLI argument, default `BENCH_service.json`)
//! reports per-phase p50/p99 latency, the shed rate, and the warm-start
//! store-tier hit rate for the `bench_compare` gate and the
//! `bench_trajectory` history.
//!
//! Run with: `cargo run --release -p dsagen-bench --bin service`

use std::fmt::Write as _;

use dsagen_adg::presets;
use dsagen_bench::envelope::Envelope;
use dsagen_bench::rule;
use dsagen_dse::{CacheStats, DseConfig};
use dsagen_service::{CompileRequest, Rejected, Service, ServiceConfig};
use dsagen_store::{ArtifactStore, StoreConfig};
use dsagen_telemetry::{log, Level, MetricsRegistry, Telemetry};
use dsagen_workloads::{suite_kernels, Suite};

/// Fixed seed: both phases replay the identical request set, which is
/// what makes the warm phase's store-tier hits deterministic.
const SEED: u64 = 0x5E47;
/// Distinct request seeds per kernel (requests = kernels × seeds).
const SEEDS_PER_KERNEL: u64 = 2;
/// Burst size for the overload phase.
const BURST: usize = 6;

/// One phase's aggregate measurements.
struct Phase {
    name: &'static str,
    completed: u64,
    latencies_ms: Vec<f64>,
    cache: CacheStats,
}

impl Phase {
    fn p50(&self) -> f64 {
        percentile(&self.latencies_ms, 0.50)
    }
    fn p99(&self) -> f64 {
        percentile(&self.latencies_ms, 0.99)
    }
}

fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
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

fn request(kernel: &dsagen_dfg::Kernel, seed: u64) -> CompileRequest {
    CompileRequest {
        tenant: format!("{}-{seed:x}", kernel.name),
        adg: presets::dse_initial(),
        kernels: vec![kernel.clone()],
        dse: DseConfig {
            seed,
            max_iters: 3,
            patience: 3,
            sched_iters: 40,
            max_unroll: 1,
            shards: 1,
            threads: 1,
            ..DseConfig::default()
        },
        deadline_ms: None,
        cancel: None,
    }
}

/// Runs one full request set through a fresh service over `store`.
fn run_phase(
    name: &'static str,
    kernels: &[dsagen_dfg::Kernel],
    store: &ArtifactStore,
    tel: &Telemetry,
) -> Phase {
    let svc = Service::start(
        ServiceConfig {
            workers: 2,
            queue_depth: 8,
            default_deadline_ms: None,
        },
        Some(store.clone()),
        tel.clone(),
    );
    let mut tickets = Vec::new();
    for kernel in kernels {
        for s in 0..SEEDS_PER_KERNEL {
            let req = request(kernel, SEED ^ (s << 8));
            tickets.push(svc.submit(req).expect("bench request admitted"));
        }
    }
    let mut latencies_ms = Vec::new();
    let mut cache = CacheStats::default();
    for t in tickets {
        let outcome = t.wait().expect("worker replies");
        assert!(outcome.stopped.is_none(), "no deadline/cancel in bench");
        latencies_ms.push(outcome.latency_ms);
        cache.absorb(&outcome.cache);
    }
    let report = svc.drain();
    Phase {
        name,
        completed: report.completed,
        latencies_ms,
        cache,
    }
}

/// Overload probe: one worker, queue depth 1, a burst of submissions.
/// Returns (admitted, shed) — shed must be typed `QueueFull`, and at
/// least one submission must survive admission.
fn run_overload(
    kernels: &[dsagen_dfg::Kernel],
    store: &ArtifactStore,
    tel: &Telemetry,
) -> (u64, u64) {
    let svc = Service::start(
        ServiceConfig {
            workers: 1,
            queue_depth: 1,
            default_deadline_ms: None,
        },
        Some(store.clone()),
        tel.clone(),
    );
    let mut tickets = Vec::new();
    let mut shed = 0u64;
    for i in 0..BURST {
        match svc.submit(request(&kernels[i % kernels.len()], SEED)) {
            Ok(t) => tickets.push(t),
            Err(Rejected::QueueFull { .. }) => shed += 1,
            Err(other) => panic!("unexpected rejection: {other}"),
        }
    }
    for t in tickets {
        let _ = t.wait().expect("admitted burst request completes");
    }
    let report = svc.drain();
    assert_eq!(report.shed, shed, "service accounting matches caller view");
    (report.admitted, shed)
}

fn to_json(phases: &[Phase], admitted: u64, shed: u64, quarantined: u64) -> String {
    let warm_rate = phases
        .iter()
        .find(|p| p.name == "warm")
        .map_or(0.0, |p| p.cache.store_hit_rate());
    let total: u64 = phases.iter().map(|p| p.completed).sum();
    let burst = admitted + shed;
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"seed\": {SEED},");
    let _ = writeln!(s, "  \"completed\": {total},");
    let _ = writeln!(s, "  \"warm_start_hit_rate\": {warm_rate:.4},");
    let _ = writeln!(s, "  \"quarantined\": {quarantined},");
    let _ = writeln!(
        s,
        "  \"shed\": {shed}, \"burst\": {burst}, \"shed_rate\": {:.4},",
        shed as f64 / (burst as f64).max(1.0)
    );
    for (i, p) in phases.iter().enumerate() {
        let _ = writeln!(
            s,
            "  \"{}\": {{\"completed\": {}, \"p50_latency_ms\": {:.3}, \"p99_latency_ms\": {:.3}, \
\"store_hits\": {}, \"store_hit_rate\": {:.4}, \"lookups\": {}}}{}",
            p.name,
            p.completed,
            p.p50(),
            p.p99(),
            p.cache.store_hits,
            p.cache.store_hit_rate(),
            p.cache.lookups(),
            if i + 1 < phases.len() { "," } else { "" },
        );
    }
    s.push_str("}\n");
    s
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_service.json".to_string());
    let kernels = bench_kernels();

    let dir = std::env::temp_dir().join(format!("dsagen-bench-service-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let reg = MetricsRegistry::enabled();
    let tel = Telemetry::disabled().with_metrics(reg.clone());

    println!("CODESIGN SERVICE: admission control, latency, warm start");
    println!(
        "store {} | kernels: {}",
        dir.display(),
        kernels
            .iter()
            .map(|k| k.name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    rule(78);

    // Phase 1: cold store — full exploration, schedules persisted.
    let store = ArtifactStore::open(&dir, StoreConfig::default(), tel.clone())
        .expect("open artifact store");
    let cold = run_phase("cold", &kernels, &store, &tel);
    let persisted = store.len();

    // Phase 2: fresh handle over the same directory — a new process
    // warm-starting from disk.
    let store = ArtifactStore::open(&dir, StoreConfig::default(), tel.clone())
        .expect("reopen artifact store");
    let warm = run_phase("warm", &kernels, &store, &tel);

    // Phase 3: overload — typed shedding under a burst.
    let (admitted, shed) = run_overload(&kernels, &store, &tel);
    let quarantined = store.stats().quarantined;

    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>11} {:>9}",
        "phase", "completed", "p50 ms", "p99 ms", "store-hits", "hit-rate"
    );
    for p in [&cold, &warm] {
        println!(
            "{:>6} {:>10} {:>12.1} {:>12.1} {:>11} {:>8.1}%",
            p.name,
            p.completed,
            p.p50(),
            p.p99(),
            p.cache.store_hits,
            100.0 * p.cache.store_hit_rate(),
        );
    }
    rule(78);
    println!(
        "persisted {persisted} artifact(s) | overload: {admitted} admitted, {shed} shed \
(typed QueueFull) | quarantined {quarantined}"
    );
    assert!(persisted > 0, "cold phase must persist artifacts");
    assert!(
        warm.cache.store_hits > 0,
        "warm phase must hit the store tier (got 0 of {} lookups)",
        warm.cache.lookups()
    );
    assert!(shed > 0, "overload burst must shed at least one request");

    let json = to_json(&[cold, warm], admitted, shed, quarantined);
    let artifact = Envelope::new("service")
        .meta_int("seed", SEED)
        .meta_int("burst", BURST as u64)
        .metrics(reg.snapshot())
        .wrap(&json);
    match std::fs::write(&out_path, &artifact) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => log(Level::Error, format!("could not write {out_path}: {e}")),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
