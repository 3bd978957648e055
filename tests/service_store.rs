//! Integration tests for the crash-consistent artifact store and the
//! admission-controlled codesign service (PR 9):
//!
//! * a **crash matrix** killing the record at every structurally distinct
//!   frame boundary and injecting every storage-plane fault kind, proving
//!   zero panics and typed quarantine;
//! * typed admission control (queue-full shedding), per-request
//!   deadlines, and cooperative cancellation, each asserted by type;
//! * `FlightRecorder::dump_on_error` firing on shed storms and store
//!   quarantines (a dump lands in `$DSAGEN_FLIGHT_DIR`);
//! * `store.quarantine.*` metrics snapshots identical at 1 and 4 reader
//!   threads;
//! * a service warm-starting from a reopened store, and shedding a burst.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dsagen::adg::{presets, EdgeId, NodeId};
use dsagen::dfg::Kernel;
use dsagen::dse::{DseConfig, Explorer, RunControl, StopCause};
use dsagen::scheduler::Schedule;
use dsagen::service::{CompileRequest, Rejected, Service, ServiceConfig};
use dsagen::store::{
    artifact, encode, frame_boundaries, open_default, Artifact, ArtifactKey, ArtifactStore,
    StoreConfig,
};
use dsagen::telemetry::{FlightRecorder, MetricsRegistry, Telemetry};
use dsagen::workloads::{suite_kernels, Suite};
use dsagen_faults::{corrupt_record_bytes, kill_points, StorageFaultKind};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dsagen-svcstore-{}-{name}", std::process::id()))
}

/// A small deterministic artifact with a distinct key per (seed, salt).
fn mk_artifact(seed: u64, salt: u64) -> Artifact {
    let placement = (0..5)
        .map(|i| (i != 3).then(|| NodeId::from_index(i + seed as usize % 7)))
        .collect();
    let mut routes = BTreeMap::new();
    routes.insert(0usize, vec![EdgeId::from_index(2), EdgeId::from_index(4)]);
    routes.insert(1usize, vec![EdgeId::from_index(seed as usize % 9)]);
    artifact(
        ArtifactKey {
            adg_fp: 0xF00 ^ seed,
            kernel_hash: 0xBEEF ^ (seed << 4),
            sched_seed: salt,
        },
        Schedule { placement, routes },
        Some(2.5 + seed as f64),
        Some(0xFACE ^ seed),
        (0..8).map(|w| w * 3 + seed).collect(),
    )
}

fn tiny_request(tenant: &str, seed: u64, cancel: Option<Arc<AtomicBool>>) -> CompileRequest {
    tiny_request_iters(tenant, seed, 2, cancel)
}

fn tiny_request_iters(
    tenant: &str,
    seed: u64,
    max_iters: u32,
    cancel: Option<Arc<AtomicBool>>,
) -> CompileRequest {
    let kernels: Vec<Kernel> = suite_kernels(Suite::Dsp)
        .into_iter()
        .filter(|k| k.name == "centro-fir")
        .collect();
    assert!(!kernels.is_empty());
    CompileRequest {
        tenant: tenant.to_string(),
        adg: presets::dse_initial(),
        kernels,
        dse: DseConfig {
            seed,
            max_iters,
            patience: max_iters,
            sched_iters: 30,
            max_unroll: 1,
            shards: 1,
            threads: 1,
            ..DseConfig::default()
        },
        deadline_ms: None,
        cancel,
    }
}

/// The crash matrix: for two seeds, kill a record write at every
/// structurally distinct frame boundary and inject every storage-plane
/// fault kind on committed bytes. Every damaged entry must be handled as
/// a typed quarantine (`get` returns `Ok(None)`, never panics, never
/// `Err`), faults that leave committed bytes untouched must still load,
/// and an undamaged neighbor entry must survive the whole storm.
#[test]
fn crash_matrix_every_frame_boundary_and_fault_kind_is_typed() {
    // CI shards the matrix by seed; locally both run in one invocation.
    let seeds: Vec<u64> = match std::env::var("DSAGEN_STORE_SEED") {
        Ok(s) => vec![s.parse().expect("DSAGEN_STORE_SEED must be a u64")],
        Err(_) => vec![3, 11],
    };
    for &seed in &seeds {
        let root = tmp(&format!("matrix-{seed}"));
        let _ = std::fs::remove_dir_all(&root);
        let store = open_default(&root).expect("open store");

        let template = mk_artifact(seed, 0);
        let bytes = encode(&template);
        let kps = kill_points(bytes.len(), &frame_boundaries(&bytes));
        assert!(kps.len() >= 10, "matrix must cover all frame boundaries");

        // Torn states: the write died at every interesting offset.
        let mut damaged: Vec<ArtifactKey> = Vec::new();
        for (i, &kp) in kps.iter().enumerate() {
            let mut a = template.clone();
            a.key.sched_seed = 1_000 + i as u64;
            let full = encode(&a);
            let cut = kp.min(full.len().saturating_sub(1));
            std::fs::write(store.entries_dir().join(a.key.file_name()), &full[..cut])
                .expect("write torn state");
            damaged.push(a.key);
        }

        // At-rest faults on committed bytes, every kind, two sub-seeds.
        let mut maybe_intact: Vec<(ArtifactKey, Artifact, String)> = Vec::new();
        for (ki, kind) in StorageFaultKind::STORAGE_PLANE.iter().enumerate() {
            for sub in 0..2u64 {
                let mut a = template.clone();
                a.key.sched_seed = 2_000 + (ki as u64) * 10 + sub;
                let mut b = encode(&a);
                let what = corrupt_record_bytes(*kind, seed ^ sub, &mut b);
                std::fs::write(store.entries_dir().join(a.key.file_name()), &b)
                    .expect("write faulted state");
                if matches!(
                    kind,
                    StorageFaultKind::StaleTempFile | StorageFaultKind::TransientIo
                ) {
                    maybe_intact.push((a.key, a, what)); // bytes untouched by design
                } else {
                    damaged.push(a.key);
                }
            }
        }

        // One clean entry committed through the real write path.
        let clean = mk_artifact(seed, 9_999);
        store.put(&clean).expect("clean put");

        for key in &damaged {
            match store.get(*key) {
                Ok(None) => {}
                Ok(Some(a)) => panic!("damaged entry {key} decoded: {a:?}"),
                Err(e) => panic!("damaged entry {key} surfaced an I/O error: {e}"),
            }
        }
        for (key, original, what) in &maybe_intact {
            let got = store
                .get(*key)
                .unwrap_or_else(|e| panic!("{what}: {e}"))
                .unwrap_or_else(|| panic!("{what}: untouched bytes must load"));
            assert_eq!(&got, original, "{what}");
        }

        // The storm quarantined every damaged entry and spared the rest.
        let stats = store.stats();
        assert_eq!(stats.quarantined, damaged.len() as u64, "seed {seed}");
        let survivor = store.get(clean.key).expect("clean get").expect("present");
        assert_eq!(survivor, clean);
        let quarantined_files = std::fs::read_dir(store.quarantine_dir())
            .map(|d| d.count())
            .unwrap_or(0);
        assert_eq!(quarantined_files, damaged.len(), "seed {seed}");

        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Admission control sheds with the typed `QueueFull` (never blocks),
/// and a cancellation token stops the in-flight request cooperatively at
/// an iteration boundary with `StopCause::Cancelled`.
#[test]
fn queue_full_is_typed_and_cancellation_stops_cooperatively() {
    let svc = Service::start_basic(ServiceConfig {
        workers: 1,
        queue_depth: 1,
        default_deadline_ms: None,
    });
    // A long request occupies the single worker...
    let token = Arc::new(AtomicBool::new(false));
    let slow = svc
        .submit(tiny_request_iters("slow", 1, 500, Some(Arc::clone(&token))))
        .expect("first request admitted");
    // ...so a burst must overflow the depth-1 queue with a typed shed.
    let mut sheds = 0;
    for i in 0..4 {
        match svc.submit(tiny_request("burst", 10 + i, None)) {
            Ok(_) => {}
            Err(Rejected::QueueFull { depth }) => {
                assert_eq!(depth, 1);
                sheds += 1;
            }
            Err(other) => panic!("expected QueueFull, got {other}"),
        }
    }
    assert!(sheds > 0, "burst against a full depth-1 queue must shed");

    // Flip the token: the 500-iteration run stops at its next iteration
    // boundary instead of running to convergence.
    token.store(true, Ordering::Release);
    let outcome = slow.wait().expect("worker replies");
    assert_eq!(outcome.stopped, Some(StopCause::Cancelled));

    let report = svc.drain();
    assert_eq!(report.shed, sheds);
    assert!(report.cancelled >= 1);
}

/// Deadlines are measured from submission: a request whose deadline
/// expired while queued is answered immediately with the typed stop
/// cause, and an in-flight deadline stops at an iteration boundary.
#[test]
fn deadline_exceeded_is_typed_from_submission_and_mid_run() {
    // Expired-in-queue path: a 0 ms deadline is over before any worker
    // can pick the job up.
    let svc = Service::start_basic(ServiceConfig {
        workers: 1,
        queue_depth: 4,
        default_deadline_ms: None,
    });
    let mut req = tiny_request("hurried", 5, None);
    req.deadline_ms = Some(0);
    let outcome = svc
        .submit(req)
        .expect("admitted")
        .wait()
        .expect("worker replies");
    assert_eq!(outcome.stopped, Some(StopCause::DeadlineExceeded));
    let report = svc.drain();
    assert_eq!(report.deadline_stopped, 1);

    // Iteration-boundary path, exercised directly on the explorer: a
    // 1 ms budget cannot cover a 500-iteration run, so the result stops
    // with the typed cause but remains a coherent best-so-far.
    let kernels: Vec<Kernel> = suite_kernels(Suite::Dsp)
        .into_iter()
        .filter(|k| k.name == "centro-fir")
        .collect();
    let cfg = DseConfig {
        seed: 7,
        max_iters: 500,
        patience: 500,
        sched_iters: 30,
        max_unroll: 1,
        shards: 1,
        threads: 1,
        ..DseConfig::default()
    };
    let mut ex = Explorer::new(presets::dse_initial(), &kernels, cfg)
        .with_control(RunControl::with_deadline_in(Duration::from_millis(1)));
    let result = ex.run();
    assert_eq!(result.stopped, Some(StopCause::DeadlineExceeded));
    assert!(result.trace.len() < 500, "deadline must cut the run short");
}

/// A request cancelled before a worker dequeues it short-circuits
/// without burning exploration time, and the default deadline from
/// `ServiceConfig` applies when the request carries none.
#[test]
fn precancelled_request_short_circuits() {
    let svc = Service::start_basic(ServiceConfig {
        workers: 2,
        queue_depth: 4,
        default_deadline_ms: None,
    });
    let token = Arc::new(AtomicBool::new(true)); // cancelled at birth
    let outcome = svc
        .submit(tiny_request("stillborn", 21, Some(token)))
        .expect("admitted")
        .wait()
        .expect("worker replies");
    assert_eq!(outcome.stopped, Some(StopCause::Cancelled));
    assert_eq!(outcome.objective, 0.0, "no exploration happened");
    let report = svc.drain();
    assert_eq!(report.cancelled, 1);

    // Config-level default deadline: same typed cause, no per-request one.
    let svc = Service::start_basic(ServiceConfig {
        workers: 1,
        queue_depth: 2,
        default_deadline_ms: Some(0),
    });
    let outcome = svc
        .submit(tiny_request("defaulted", 22, None))
        .expect("admitted")
        .wait()
        .expect("worker replies");
    assert_eq!(outcome.stopped, Some(StopCause::DeadlineExceeded));
    let _ = svc.drain();
}

/// Satellite: error paths dump the flight ring. Both a store quarantine
/// and a service shed storm must leave a `flight_*.jsonl` dump in
/// `$DSAGEN_FLIGHT_DIR`. (One test owns the env var to avoid races.)
#[test]
fn error_paths_dump_flight_recordings() {
    let flight_dir = tmp("flight");
    let _ = std::fs::remove_dir_all(&flight_dir);
    std::fs::create_dir_all(&flight_dir).expect("flight dir");
    std::env::set_var("DSAGEN_FLIGHT_DIR", &flight_dir);

    let dumps = |needle: &str| -> usize {
        std::fs::read_dir(&flight_dir)
            .map(|d| {
                d.flatten()
                    .filter(|e| {
                        let n = e.file_name().to_string_lossy().to_string();
                        n.starts_with("flight_") && n.contains(needle)
                    })
                    .count()
            })
            .unwrap_or(0)
    };

    // Store quarantine path.
    let root = tmp("flight-store");
    let _ = std::fs::remove_dir_all(&root);
    let tel = Telemetry::disabled().with_recorder(FlightRecorder::enabled());
    let store =
        ArtifactStore::open(&root, StoreConfig::default(), tel.clone()).expect("open store");
    let a = mk_artifact(1, 77);
    let mut b = encode(&a);
    corrupt_record_bytes(StorageFaultKind::BitFlippedPayload, 9, &mut b);
    std::fs::write(store.entries_dir().join(a.key.file_name()), &b).expect("write corrupt");
    assert!(store.get(a.key).expect("typed").is_none());
    assert!(
        dumps("store-quarantine") > 0,
        "quarantine must dump the flight ring"
    );

    // Service shed-storm path.
    let svc = Service::start(
        ServiceConfig {
            workers: 1,
            queue_depth: 1,
            default_deadline_ms: None,
        },
        None,
        tel,
    );
    let token = Arc::new(AtomicBool::new(false));
    let slow = svc
        .submit(tiny_request_iters("slow", 2, 500, Some(Arc::clone(&token))))
        .expect("admitted");
    let mut shed = 0;
    for i in 0..4 {
        if svc.submit(tiny_request("storm", 30 + i, None)).is_err() {
            shed += 1;
        }
    }
    assert!(shed > 0);
    assert!(dumps("service-shed") > 0, "shed must dump the flight ring");

    token.store(true, Ordering::Release);
    let _ = slow.wait();
    let _ = svc.drain();
    std::env::remove_var("DSAGEN_FLIGHT_DIR");
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&flight_dir);
}

/// Satellite: quarantine observability is deterministic under
/// concurrency — the `store.*` metrics snapshot after quarantining a
/// fixed entry set is identical whether 1 or 4 threads do the reading.
#[test]
fn quarantine_metrics_snapshot_is_thread_count_independent() {
    const ENTRIES: usize = 8;

    let run = |threads: usize| -> String {
        let root = tmp(&format!("qdet-{threads}"));
        let _ = std::fs::remove_dir_all(&root);
        let reg = MetricsRegistry::enabled();
        let tel = Telemetry::disabled().with_metrics(reg.clone());
        let store = ArtifactStore::open(&root, StoreConfig::default(), tel).expect("open store");
        let mut keys = Vec::new();
        for i in 0..ENTRIES {
            let mut a = mk_artifact(5, 3_000 + i as u64);
            let mut b = encode(&a);
            // Rotate through the at-rest fault kinds for label variety.
            let kind = StorageFaultKind::STORAGE_PLANE[i % 3]; // torn/truncated/bit-flip
            corrupt_record_bytes(kind, i as u64, &mut b);
            a.key.sched_seed = 3_000 + i as u64;
            std::fs::write(store.entries_dir().join(a.key.file_name()), &b)
                .expect("write corrupt entry");
            keys.push(a.key);
        }
        // Disjoint partition: each entry is read by exactly one thread,
        // so the event multiset is identical at any width.
        std::thread::scope(|scope| {
            for t in 0..threads {
                let store = store.clone();
                let mine: Vec<ArtifactKey> = keys
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % threads == t)
                    .map(|(_, k)| *k)
                    .collect();
                scope.spawn(move || {
                    for key in mine {
                        assert!(store.get(key).expect("typed").is_none());
                    }
                });
            }
        });
        let json = reg.snapshot().to_json();
        let _ = std::fs::remove_dir_all(&root);
        json
    };

    let one = run(1);
    let four = run(4);
    assert_eq!(one, four, "metrics must not depend on reader thread count");
    assert!(
        one.contains("store.quarantine.total"),
        "quarantine total must be counted: {one}"
    );
    assert!(
        one.contains(&format!("\"store.quarantine.total\": {ENTRIES}")),
        "every corrupt entry quarantines exactly once: {one}"
    );
}

/// Warm start across processes: a second store handle over the same
/// directory serves the first explorer's persisted schedules, and the
/// cache stats attribute those lookups to the store tier.
#[test]
fn explorer_warm_starts_from_a_reopened_store() {
    let root = tmp("warm");
    let _ = std::fs::remove_dir_all(&root);
    let kernels: Vec<Kernel> = suite_kernels(Suite::Dsp)
        .into_iter()
        .filter(|k| k.name == "centro-fir")
        .collect();
    let cfg = DseConfig {
        seed: 31,
        max_iters: 2,
        patience: 2,
        sched_iters: 30,
        max_unroll: 1,
        shards: 1,
        threads: 1,
        ..DseConfig::default()
    };

    let store = open_default(&root).expect("open store");
    let mut cold = Explorer::new(presets::dse_initial(), &kernels, cfg).with_store(store.clone());
    let cold_result = cold.run();
    assert!(!store.is_empty(), "cold run must persist artifacts");
    assert_eq!(
        cold.cache_stats().store_hits,
        0,
        "nothing to warm-start from"
    );

    // A fresh process: new store handle, new explorer, same inputs.
    let store2 = open_default(&root).expect("reopen store");
    let mut warm = Explorer::new(presets::dse_initial(), &kernels, cfg).with_store(store2);
    let warm_result = warm.run();
    assert!(
        warm.cache_stats().store_hits > 0,
        "warm run must hit the store tier: {:?}",
        warm.cache_stats()
    );
    // Warm start is an accelerator, not a result-changer.
    assert_eq!(
        warm_result.best.objective.to_bits(),
        cold_result.best.objective.to_bits(),
        "store tier must not change the explored outcome"
    );

    let _ = std::fs::remove_dir_all(&root);
}

/// The service end to end: requests served cold persist artifacts, a fresh
/// service over the reopened store serves the same requests from them, and
/// a burst against one worker with a depth-1 queue sheds typed.
#[test]
fn service_warm_starts_from_a_reopened_store_and_sheds_a_burst() {
    let root = tmp("service-warm");
    let _ = std::fs::remove_dir_all(&root);
    let kernels: Vec<Kernel> = suite_kernels(Suite::MachSuite)
        .into_iter()
        .chain(suite_kernels(Suite::Dsp))
        .filter(|k| k.name == "mm" || k.name == "centro-fir")
        .collect();
    let request = |kernel: &Kernel, seed: u64| CompileRequest {
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
    };
    let config = |workers, queue_depth| ServiceConfig {
        workers,
        queue_depth,
        default_deadline_ms: None,
    };

    let mut store_hits = Vec::new();
    for _pass in ["cold", "warm"] {
        let store = open_default(&root).expect("open store");
        let svc = Service::start(config(2, 8), Some(store.clone()), Telemetry::disabled());
        let tickets: Vec<_> = kernels
            .iter()
            .flat_map(|k| [0u64, 1].map(|s| request(k, 0x5E47 ^ (s << 8))))
            .map(|req| svc.submit(req).expect("a depth-8 queue admits 4"))
            .collect();
        let mut hits = 0;
        for t in tickets {
            let outcome = t.wait().expect("worker replies");
            assert!(outcome.stopped.is_none(), "no deadline or cancel set");
            hits += outcome.cache.store_hits;
        }
        assert_eq!(svc.drain().completed, 4);
        assert!(!store.is_empty(), "the cold pass must persist artifacts");
        store_hits.push(hits);
    }
    assert!(
        store_hits[1] > 0,
        "the warm pass must hit the store tier: {store_hits:?}"
    );

    let store = open_default(&root).expect("reopen store");
    let svc = Service::start(config(1, 1), Some(store), Telemetry::disabled());
    let mut tickets = Vec::new();
    let mut shed = 0;
    for i in 0..6 {
        match svc.submit(request(&kernels[i % kernels.len()], 0x5E47)) {
            Ok(t) => tickets.push(t),
            Err(Rejected::QueueFull { .. }) => shed += 1,
            Err(other) => panic!("expected QueueFull, got {other}"),
        }
    }
    for t in tickets {
        t.wait().expect("an admitted request completes");
    }
    assert!(shed > 0, "a burst against a depth-1 queue must shed");
    assert_eq!(svc.drain().shed, shed, "the service counts what it shed");
    let _ = std::fs::remove_dir_all(&root);
}
