//! `service-mix`: the only path through `service` + `store`. Set-up fills
//! an on-disk store by running the "seen" requests cold, drains, and the
//! timed section reopens the store (a fresh handle, as a fresh process
//! would) and serves a seeded stream: 70% seen requests, answered from the
//! store and re-verified, beside 30% unseen ones that explore in full and
//! write. Closed loop: two clients, each blocking on its ticket, because
//! callers of the service hold a ticket and wait. One op is one request,
//! submit → outcome.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use dsagen::adg::presets;
use dsagen::dfg::Kernel;
use dsagen::dse::{DseConfig, Explorer};
use dsagen::service::{CompileOutcome, CompileRequest, Service, ServiceConfig, ServiceReport};
use dsagen::store::{ArtifactStore, StoreConfig};
use dsagen_bench::geomean;

use crate::harness::{dir_bytes_and_files, Ctx, Fixture, Measured};
use crate::inputs::{request_stream, seen_requests, stream_digest, Digest, Request};
use crate::stats::{median, quantile};
use crate::workloads::dse::compile_verify_simulate;

const CLIENTS: usize = 2;
const SEEDS_PER_KERNEL: u64 = 2;
/// Kernels whose first unseen request is replayed outside the service to
/// check its answer and to simulate the design it returned.
const REPLAYED: [&str; 6] = [
    "mm",
    "centro-fir",
    "spmv-crs",
    "nn-classifier",
    "join",
    "poly-atax",
];

/// Every Table-I kernel a three-step exploration from the starting design
/// always hosts. `histogram` never maps there (objective 0) and `nn-conv`
/// misses under about one seed in forty; the store keeps no failed
/// mapping, so such a request is rescheduled in full every time it
/// returns (~700 ms against ~5 ms) and one of them among the seen requests
/// would set the whole run's numbers.
fn kernels() -> Vec<Kernel> {
    dsagen::workloads::all()
        .into_iter()
        .map(|w| w.kernel)
        .filter(|k| !["histogram", "nn-conv"].contains(&k.name.as_str()))
        .collect()
}

fn dse_config(seed: u64) -> DseConfig {
    DseConfig {
        seed,
        max_iters: 3,
        patience: 3,
        sched_iters: 40,
        max_unroll: 1,
        shards: 1,
        threads: 1,
        ..DseConfig::default()
    }
}

fn compile_request(kernels: &[Kernel], req: Request) -> CompileRequest {
    let kernel = &kernels[req.kernel];
    CompileRequest {
        tenant: format!("{}-{:x}", kernel.name, req.dse_seed),
        adg: presets::dse_initial(),
        kernels: vec![kernel.clone()],
        dse: dse_config(req.dse_seed),
        deadline_ms: None,
        cancel: None,
    }
}

struct Served {
    latency_ms: f64,
    submit_us: f64,
    outcome: CompileOutcome,
}

/// Serves `stream` through a fresh service over `store`, closed loop.
/// Returns each request's result in stream order, the drain ledger and the
/// drain time.
fn serve(
    ctx: &Ctx,
    store: &ArtifactStore,
    kernels: &[Kernel],
    stream: &[Request],
    timed: bool,
) -> (Vec<Result<Served, String>>, ServiceReport, f64) {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let service = Service::start(
        ServiceConfig {
            workers: cores.min(2),
            queue_depth: 8,
            default_deadline_ms: None,
        },
        Some(store.clone()),
        ctx.tel.clone(),
    );
    let next = AtomicUsize::new(0);
    let mut served: Vec<(usize, Result<Served, String>)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    // The clients are the timed section's threads; the main
                    // thread only waits for them.
                    let _timed = timed.then(|| ctx.span("timed"));
                    let mut mine = Vec::new();
                    loop {
                        let at = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&req) = stream.get(at) else { break };
                        let request = compile_request(kernels, req);
                        let _span = ctx.span("service.request");
                        let started = Instant::now();
                        let ticket = {
                            let _s = ctx.span("service.submit");
                            service.submit(request)
                        };
                        let submit_us = started.elapsed().as_secs_f64() * 1e6;
                        let result = match ticket {
                            Err(rejected) => Err(rejected.to_string()),
                            Ok(ticket) => match ticket.wait() {
                                Err(lost) => Err(format!("{lost:?}")),
                                Ok(outcome) => Ok(Served {
                                    latency_ms: started.elapsed().as_secs_f64() * 1e3,
                                    submit_us,
                                    outcome,
                                }),
                            },
                        };
                        mine.push((at, result));
                    }
                    mine
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });
    served.sort_by_key(|(at, _)| *at);
    let drain_started = Instant::now();
    let report = service.drain();
    let drain_ms = drain_started.elapsed().as_secs_f64() * 1e3;
    (
        served.into_iter().map(|(_, r)| r).collect(),
        report,
        drain_ms,
    )
}

fn check_ledger(out: &mut Measured, phase: &str, report: &ServiceReport, expected: u64) {
    if report.admitted != report.completed || report.shed != 0 || report.admitted != expected {
        out.miss(format!(
            "{phase}: ledger admitted {} completed {} shed {} for {expected} requests",
            report.admitted, report.completed, report.shed
        ));
    }
}

pub fn run(ctx: &Ctx, requests: u64) -> Measured {
    let mut out = Measured::default();
    let kernels = kernels();
    let seen = seen_requests(ctx.seed, kernels.len(), SEEDS_PER_KERNEL);

    // Set-up: the cold store fill, in a fresh directory each time.
    let ((dir, fill), setup_s) = ctx.setup(|rep| {
        let dir: PathBuf = ctx.scratch.join(format!("store-{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir, StoreConfig::default(), ctx.tel.clone())
            .expect("open the artifact store inside the checkout");
        let fill = serve(ctx, &store, &kernels, &seen, false);
        if rep + 1 < ctx.setup_reps {
            let _ = std::fs::remove_dir_all(&dir);
        }
        (dir, fill)
    });
    out.setup_s = setup_s;
    let (fill_served, fill_report, _) = fill;
    check_ledger(&mut out, "fill", &fill_report, seen.len() as u64);
    let fill_objective: Vec<Option<f64>> = fill_served
        .iter()
        .map(|r| r.as_ref().ok().map(|s| s.outcome.objective))
        .collect();
    if fill_objective.iter().any(Option::is_none) {
        out.miss("fill: a seen request failed".into());
    }

    let stream = request_stream(ctx.seed, requests as usize, &seen, kernels.len());

    // Timed: a fresh handle over the filled directory, then the stream.
    let started = Instant::now();
    let store = {
        let _s = ctx.span("store.open");
        ArtifactStore::open(&dir, StoreConfig::default(), ctx.tel.clone())
            .expect("reopen the store")
    };
    let (served, report, drain_ms) = serve(ctx, &store, &kernels, &stream, true);
    out.timed_s = started.elapsed().as_secs_f64();

    check_ledger(&mut out, "timed", &report, stream.len() as u64);
    let stats = store.stats();
    if stats.quarantined != 0 {
        out.miss(format!(
            "{} store entries were quarantined",
            stats.quarantined
        ));
    }

    let mut digest = Digest::new();
    digest.push(stream_digest(&stream));
    let mut objectives: Vec<Vec<f64>> = vec![Vec::new(); kernels.len()];
    let (mut queue_ms, mut submit_us) = (Vec::new(), Vec::new());
    let (mut warm_ms, mut cold_ms) = (Vec::new(), Vec::new());
    let (mut warm_store_hits, mut warm_lookups) = (0u64, 0u64);
    for (req, result) in stream.iter().zip(&served) {
        out.attempted += 1;
        let served = match result {
            Ok(s) if s.outcome.stopped.is_none() => s,
            Ok(s) => {
                out.fail_op(format!("request stopped early: {:?}", s.outcome.stopped));
                continue;
            }
            Err(why) => {
                out.fail_op(format!("request refused or lost: {why}"));
                continue;
            }
        };
        let objective = served.outcome.objective;
        if objective < 1e-6 {
            out.fail_op(format!(
                "{} was answered with a design that hosts nothing",
                served.outcome.tenant
            ));
            continue;
        }
        if req.seen {
            let at = seen.iter().position(|s| s == req).expect("seen request");
            if fill_objective[at].map(f64::to_bits) != Some(objective.to_bits()) {
                out.miss(format!(
                    "warm {} answered {objective}, the fill run {:?}",
                    served.outcome.tenant, fill_objective[at]
                ));
            }
            warm_ms.push(served.latency_ms);
            warm_store_hits += served.outcome.cache.store_hits;
            warm_lookups += served.outcome.cache.lookups();
        } else {
            cold_ms.push(served.latency_ms);
        }
        out.op_ms.push(served.latency_ms);
        objectives[req.kernel].push(objective);
        queue_ms.push(served.outcome.queued_ms);
        submit_us.push(served.submit_us);
        digest.push_f64(objective);
    }

    // Replay a fixed set of kernels' first unseen request without service
    // or store: the service must have answered the same, and the design it
    // found must host the kernel. Its simulated cycles are `sim_cycles`.
    for name in REPLAYED {
        let found = stream
            .iter()
            .zip(&served)
            .find(|(req, _)| !req.seen && kernels[req.kernel].name == name);
        let Some((req, Ok(served))) = found else {
            continue;
        };
        let kernel = &kernels[req.kernel];
        let result = Explorer::new(
            presets::dse_initial(),
            std::slice::from_ref(kernel),
            dse_config(req.dse_seed),
        )
        .run();
        if result.best.objective.to_bits() != served.outcome.objective.to_bits() {
            out.miss(format!(
                "{name}: service answered {}, a direct exploration {}",
                served.outcome.objective, result.best.objective
            ));
        }
        match compile_verify_simulate(&result.best_adg, kernel, ctx.seed) {
            Ok((compiled, cycles)) => {
                out.sim_cycles += cycles;
                digest.push(cycles);
                if out.fixtures.len() < 3 {
                    out.fixtures.push(Fixture {
                        adg: result.best_adg,
                        kernel: kernel.clone(),
                        compiled,
                    });
                }
            }
            Err(why) => out.miss(format!("{name} on the design the service returned: {why}")),
        }
    }
    // Per kernel first: an exploration now and then finds a design ten times
    // better, and a plain mean over requests would follow those few.
    out.best_objective = geomean(
        &objectives
            .iter()
            .filter(|o| !o.is_empty())
            .map(|o| median(o))
            .collect::<Vec<_>>(),
    );
    out.digest = digest.0;

    let (bytes, entries) = dir_bytes_and_files(store.entries_dir());
    out.layer.insert(
        "store.bytes_per_artifact",
        bytes as f64 / entries.max(1) as f64,
    );
    out.layer.insert("store.puts", stats.puts as f64);
    out.layer.insert("store.hits", stats.hits as f64);
    out.layer.insert("store.misses", stats.misses as f64);
    out.layer
        .insert("store.quarantined", stats.quarantined as f64);
    out.layer.insert("service.queue_ms_p50", median(&queue_ms));
    out.layer
        .insert("service.queue_ms_p95", quantile(&queue_ms, 0.95));
    out.layer.insert("service.warm_ms_p50", median(&warm_ms));
    out.layer.insert("service.cold_ms_p50", median(&cold_ms));
    out.layer.insert(
        "service.warm_share",
        warm_store_hits as f64 / warm_lookups.max(1) as f64,
    );
    out.layer
        .insert("service.submit_us_p50", median(&submit_us));
    out.layer.insert("service.shed", report.shed as f64);
    out.layer.insert("service.drain_ms", drain_ms);
    out
}
