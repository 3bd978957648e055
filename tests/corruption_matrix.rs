//! Corruption matrix: every config-plane fault kind crossed with paper
//! workloads and multiple seeds, driven through the CRC-framed
//! programming session.
//!
//! Contract under injection:
//!
//! - **No panics.** Every session runs to a terminal state no matter what
//!   the channel does to the framed words.
//! - **Transient faults recover.** A fault injected only on the first
//!   round is healed by selective retransmission within the retry budget
//!   and the session ends [`SessionState::Verified`].
//! - **Persistent faults degrade gracefully.** A channel that corrupts
//!   every round either still converges (when the corruption is benign,
//!   e.g. reordering of self-sequenced frames) or fails *typed*: the
//!   report carries a [`SessionError`] and names the unreachable nodes.
//!
//! The second half of the file is the **runtime-fault recovery matrix**:
//! mid-execution fabric faults (dead PE arriving while streams are in
//! flight) crossed with every simulating preset and ≥5 workloads, driven
//! through the full `detect → checkpoint rollback → repair → verified
//! reprogramming → resume` pipeline. Contract:
//!
//! - **Transient faults fully recover.** Detected within the watchdog
//!   bound, rolled back, and the final firings equal the fault-free run.
//! - **Permanent faults recover or fail typed.** Either the victim is
//!   decommissioned and the schedule repaired + reprogrammed (firings
//!   again equal fault-free), or a typed [`dsagen::RecoveryError`] names
//!   the reason. Never a panic.
//!
//! The seed set is overridable via `DSAGEN_CORRUPTION_SEED` — see
//! [`seeds`] — so CI can shard the matrix across jobs.

use std::error::Error;

use dsagen::adg::presets;
use dsagen::dfg::{compile_kernel, Kernel, TransformConfig};
use dsagen::faults::{corrupt_frames, FaultKind, FaultPlan};
use dsagen::hwgen::{
    verify_round_trip, Bitstream, ProgrammingSession, SessionConfig, SessionState,
};
use dsagen::scheduler::{schedule, Problem, SchedulerConfig, Start};
use dsagen::telemetry::Telemetry;
use dsagen::workloads::{machsuite, polybench};

type TestResult = Result<(), Box<dyn Error>>;

/// Seeds for the corruption matrix. `DSAGEN_CORRUPTION_SEED=<u64>`
/// narrows the run to a single seed so CI can fan the matrix out.
fn seeds() -> Vec<u64> {
    match std::env::var("DSAGEN_CORRUPTION_SEED") {
        Ok(s) => match s.trim().parse::<u64>() {
            Ok(v) => vec![v],
            Err(_) => vec![0xC0FFEE, 11, 2024],
        },
        Err(_) => vec![0xC0FFEE, 11, 2024],
    }
}

fn workloads() -> Vec<(&'static str, Kernel)> {
    vec![
        ("mvt", polybench::mvt()),
        ("mm", machsuite::mm()),
        ("atax", polybench::atax()),
        ("bicg", polybench::bicg()),
        ("spmv-crs", machsuite::spmv_crs()),
    ]
}

/// Workloads for the runtime-fault matrix: same breadth (≥5 kernels),
/// but the large gemm is shrunk so the cycle-accurate replay stays fast
/// in debug builds; a release build adds the full-size one.
fn rt_workloads() -> Vec<(&'static str, Kernel)> {
    let mut kernels = vec![
        ("mvt", polybench::mvt()),
        ("mm16", machsuite::gemm_kernel("mm16", 16)),
        ("atax", polybench::atax()),
        ("bicg", polybench::bicg()),
        ("spmv-crs", machsuite::spmv_crs()),
    ];
    if !cfg!(debug_assertions) {
        kernels.push(("mm", machsuite::mm()));
    }
    kernels
}

/// Encodes one scheduled workload to its configuration bitstream.
fn encode_workload(kernel: &Kernel, seed: u64) -> Result<Bitstream, Box<dyn Error>> {
    let adg = presets::softbrain();
    let ck = compile_kernel(kernel, &TransformConfig::fallback(), &adg.features())?;
    let cfg = SchedulerConfig {
        max_iters: 60,
        seed,
        ..SchedulerConfig::default()
    };
    let s = schedule(&adg, &ck, &Start::Empty, &cfg, &Telemetry::disabled()).unwrap();
    let problem = Problem::new(&adg, &ck);
    // The encoder side must round-trip before we bother delivering it.
    let token = verify_round_trip(&problem, &s.schedule)?;
    assert!(token.word_count() > 0, "non-empty configuration");
    Ok(Bitstream::encode(&problem, &s.schedule))
}

/// A fault injected on the first round only must be healed by the retry
/// machinery: the session ends Verified within the budget, and detected
/// corruption shows up in the counters rather than in the payload.
#[test]
fn transient_config_plane_faults_recover() -> TestResult {
    for seed in seeds() {
        for (name, kernel) in workloads() {
            let bs = encode_workload(&kernel, seed)?;
            for (ki, kind) in FaultKind::CONFIG_PLANE.into_iter().enumerate() {
                let plan = FaultPlan::new(seed ^ (ki as u64) << 8).with(kind);
                let mut session = ProgrammingSession::new(&bs, SessionConfig::default());
                let report = session.program(|round, framed| {
                    if round == 0 {
                        corrupt_frames(framed, &plan).0
                    } else {
                        framed.to_vec()
                    }
                });
                assert!(
                    report.is_verified(),
                    "{name} seed={seed} {kind}: transient fault must recover, got {report}"
                );
                assert_eq!(session.state(), SessionState::Verified);
                assert!(
                    report.attempts <= 1 + SessionConfig::default().max_retries,
                    "{name} seed={seed} {kind}: attempts {} over budget",
                    report.attempts
                );
                assert!(
                    report.unreachable_nodes.is_empty(),
                    "{name} seed={seed} {kind}: verified session left unreachable nodes"
                );
                if kind == FaultKind::BitFlip {
                    assert!(
                        report.crc_failures >= 1,
                        "{name} seed={seed}: a bit flip must trip the CRC"
                    );
                }
            }
        }
    }
    Ok(())
}

/// A channel that corrupts *every* round can exhaust the retry budget.
/// The session must still terminate, and a failure must be typed: an
/// error in the report plus the set of nodes left unprogrammed.
#[test]
fn persistent_config_plane_faults_fail_typed() -> TestResult {
    for seed in seeds() {
        for (name, kernel) in workloads() {
            let bs = encode_workload(&kernel, seed)?;
            for (ki, kind) in FaultKind::CONFIG_PLANE.into_iter().enumerate() {
                let mut session = ProgrammingSession::new(&bs, SessionConfig::default());
                let report = session.program(|round, framed| {
                    let plan =
                        FaultPlan::new(seed ^ (ki as u64) << 8 ^ u64::from(round)).with(kind);
                    corrupt_frames(framed, &plan).0
                });
                match report.state {
                    SessionState::Verified => {
                        // Benign persistent corruption (e.g. reordering of
                        // self-sequenced frames, idempotent duplicates)
                        // converges anyway; the counters must still show
                        // the channel was not clean when frames were
                        // dropped or damaged.
                        assert!(report.error.is_none());
                    }
                    SessionState::Failed => {
                        let err = report.error.as_ref().ok_or_else(|| {
                            format!("{name} seed={seed} {kind}: failed without a typed error")
                        })?;
                        assert!(
                            !err.to_string().is_empty(),
                            "{name} seed={seed} {kind}: error must render"
                        );
                        assert!(
                            !report.unreachable_nodes.is_empty()
                                || !matches!(err, dsagen::hwgen::SessionError::Undelivered { .. }),
                            "{name} seed={seed} {kind}: undelivered failure must name nodes"
                        );
                    }
                    other => {
                        return Err(format!(
                            "{name} seed={seed} {kind}: non-terminal state {other}"
                        )
                        .into())
                    }
                }
            }
        }
    }
    Ok(())
}

/// Structural fault kinds aimed at a word stream are skipped with a
/// typed reason, never applied and never a panic — the config plane and
/// the fabric plane stay disjoint end to end.
#[test]
fn structural_kinds_never_touch_the_stream() -> TestResult {
    let seed = seeds()[0];
    let (_, kernel) = workloads().swap_remove(0);
    let bs = encode_workload(&kernel, seed)?;
    let words = bs.to_words();
    for kind in FaultKind::ALL {
        let plan = FaultPlan::new(seed).with(kind);
        let (out, report) = corrupt_frames(&words, &plan);
        assert_eq!(out, words, "{kind}: structural kind must not alter words");
        assert!(!report.any_applied(), "{kind}: must be skipped");
        assert_eq!(report.skipped.len(), 1, "{kind}: skip must be recorded");
    }
    Ok(())
}

/// A zero-retry budget turns any detected corruption into an immediate,
/// typed failure — the degenerate end of graceful degradation.
#[test]
fn zero_retry_budget_fails_loud_not_wrong() -> TestResult {
    let seed = seeds()[0];
    let (name, kernel) = workloads().swap_remove(0);
    let bs = encode_workload(&kernel, seed)?;
    let plan = FaultPlan::new(seed).with(FaultKind::BitFlip);
    let cfg = SessionConfig { max_retries: 0 };
    let mut session = ProgrammingSession::new(&bs, cfg);
    let report = session.program(|_, framed| corrupt_frames(framed, &plan).0);
    assert_eq!(
        report.state,
        SessionState::Failed,
        "{name}: no retries, flipped bit must fail: {report}"
    );
    assert!(report.error.is_some());
    assert_eq!(report.attempts, 1);
    assert!(
        !report.unreachable_nodes.is_empty(),
        "{name}: the starved node must be reported"
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Runtime-fault recovery matrix: mid-execution fabric faults across every
// simulating preset × ≥5 workloads × the seed set.
// ---------------------------------------------------------------------------

use dsagen::adg::Adg;
use dsagen::faults::{FaultLifetime, FaultSchedule};
use dsagen::sim::{
    simulate, RecoveryAction, RecoveryPolicy, SimConfig, RESIDUE_INTERVAL, WATCHDOG_BOUND,
};
use dsagen::{compile, recover, CompileOptions, Compiled};

fn rt_presets() -> Vec<(&'static str, Adg)> {
    vec![
        ("softbrain", presets::softbrain()),
        ("spu", presets::spu()),
        ("revel", presets::revel()),
    ]
}

/// Compiles one runtime-matrix cell; unroll is capped to keep the
/// cycle-accurate replay affordable in debug builds.
fn rt_compile(adg: &Adg, kernel: &Kernel, seed: u64) -> Result<Compiled, Box<dyn Error>> {
    let opts = CompileOptions {
        max_unroll: 2,
        scheduler: SchedulerConfig {
            seed,
            ..SchedulerConfig::default()
        },
        ..CompileOptions::default()
    };
    Ok(compile(adg, kernel, &opts)?)
}

/// A transient dead PE arriving one third into the run is detected by the
/// watchdog within its bound, rolled back, and the run completes with
/// firings identical to the fault-free baseline — on every preset, every
/// workload, every seed.
#[test]
fn transient_runtime_pe_fault_recovers_on_every_preset() -> TestResult {
    let policy = RecoveryPolicy::default();
    let tel = dsagen::telemetry::Telemetry::disabled();
    for seed in seeds() {
        for (pname, adg) in rt_presets() {
            for (kname, kernel) in rt_workloads() {
                let compiled = rt_compile(&adg, &kernel, seed)?;
                let cfg = SimConfig::default();
                let plain = simulate(
                    &adg,
                    &compiled.version,
                    &compiled.schedule,
                    &compiled.eval,
                    compiled.config_path_len,
                    &cfg,
                )?;
                let arrival = (plain.cycles / 3).max(1);
                // Outage longer than the watchdog bound => detection is
                // guaranteed; the detected fault is consumed, so the
                // rolled-back replay runs clean.
                let faults = FaultSchedule::new(seed).with(
                    arrival,
                    FaultLifetime::Transient { duration: 1024 },
                    FaultKind::DeadPe,
                );
                let rep = recover(&adg, &compiled, &cfg, &faults, &policy, &tel).map_err(|e| {
                    format!("{pname}/{kname} seed={seed}: transient must recover: {e}")
                })?;
                assert!(
                    !rep.events.is_empty(),
                    "{pname}/{kname} seed={seed}: the fault must be detected"
                );
                for ev in &rep.events {
                    assert!(
                        ev.detection_latency <= WATCHDOG_BOUND,
                        "{pname}/{kname} seed={seed}: detection latency {} over the \
watchdog bound {}",
                        ev.detection_latency,
                        WATCHDOG_BOUND
                    );
                }
                assert_eq!(
                    rep.report.firings, plain.firings,
                    "{pname}/{kname} seed={seed}: recovered firings must equal fault-free"
                );
                assert!(
                    rep.total_cycles >= plain.cycles,
                    "{pname}/{kname} seed={seed}: recovery cannot be faster than fault-free"
                );
            }
        }
    }
    Ok(())
}

/// The residue column of the runtime matrix: every cell is run against a
/// transient stuck lane — *silent* corruption, the residue detector's
/// fault class. Each is detected within the documented
/// [`RESIDUE_INTERVAL`] bound, rolled back past the corruption onset, and
/// finishes with the fault-free run's firings.
#[test]
fn residue_column_recovers_silent_corruption_within_the_interval() -> TestResult {
    let tel = dsagen::telemetry::Telemetry::disabled();
    let policy = RecoveryPolicy::default();
    for seed in seeds() {
        for (pname, adg) in rt_presets() {
            for (kname, kernel) in rt_workloads() {
                let compiled = rt_compile(&adg, &kernel, seed)?;
                let cfg = SimConfig::default();
                let plain = simulate(
                    &adg,
                    &compiled.version,
                    &compiled.schedule,
                    &compiled.eval,
                    compiled.config_path_len,
                    &cfg,
                )?;
                let arrival = (plain.cycles / 3).max(1);
                let faults = FaultSchedule::new(seed).with(
                    arrival,
                    FaultLifetime::Transient { duration: 1024 },
                    FaultKind::StuckLane,
                );
                let rep = recover(&adg, &compiled, &cfg, &faults, &policy, &tel)
                    .map_err(|e| format!("{pname}/{kname} seed={seed}: {e}"))?;
                assert_eq!(
                    rep.report.firings, plain.firings,
                    "{pname}/{kname} seed={seed}: silent corruption must be rolled back, \
not delivered"
                );
                assert!(
                    !rep.events.is_empty(),
                    "{pname}/{kname} seed={seed}: a stuck lane on a routed link must be detected"
                );
                for ev in &rep.events {
                    assert!(
                        ev.detection_latency <= RESIDUE_INTERVAL,
                        "{pname}/{kname} seed={seed}: latency {} over the residue bound {}",
                        ev.detection_latency,
                        RESIDUE_INTERVAL
                    );
                }
            }
        }
    }
    Ok(())
}

/// A permanent dead PE either recovers — victim decommissioned, schedule
/// repaired on the degraded fabric, configuration re-verified and
/// reprogrammed, firings equal to fault-free — or fails *typed* with a
/// rendering [`dsagen::RecoveryError`]. Never a panic, on any cell of the
/// matrix.
#[test]
fn permanent_runtime_pe_fault_repairs_or_fails_typed() -> TestResult {
    let policy = RecoveryPolicy::default();
    let tel = dsagen::telemetry::Telemetry::disabled();
    let mut recovered = 0usize;
    let mut cells = 0usize;
    for seed in seeds() {
        for (pname, adg) in rt_presets() {
            for (kname, kernel) in rt_workloads() {
                let compiled = rt_compile(&adg, &kernel, seed)?;
                let cfg = SimConfig::default();
                let plain = simulate(
                    &adg,
                    &compiled.version,
                    &compiled.schedule,
                    &compiled.eval,
                    compiled.config_path_len,
                    &cfg,
                )?;
                let arrival = (plain.cycles / 3).max(1);
                let faults = FaultSchedule::new(seed).with(
                    arrival,
                    FaultLifetime::Permanent,
                    FaultKind::DeadPe,
                );
                cells += 1;
                match recover(&adg, &compiled, &cfg, &faults, &policy, &tel) {
                    Ok(rep) => {
                        recovered += 1;
                        assert_eq!(
                            rep.report.firings, plain.firings,
                            "{pname}/{kname} seed={seed}: repaired run must match fault-free"
                        );
                        // A permanent victim cannot be resumed onto: the
                        // recovery must have gone through the repair +
                        // reprogram path (or the fault resolved to nothing
                        // on this schedule, in which case no event fired).
                        for ev in &rep.events {
                            assert!(
                                matches!(ev.action, RecoveryAction::Repaired { .. }),
                                "{pname}/{kname} seed={seed}: permanent fault recovered \
without repair: {:?}",
                                ev.action
                            );
                            assert!(ev.reprogram_cycles > 0);
                        }
                    }
                    Err(e) => {
                        // Typed, rendering failure — the accepted outcome
                        // when the degraded fabric can no longer host the
                        // kernel.
                        assert!(
                            !e.to_string().is_empty(),
                            "{pname}/{kname} seed={seed}: error must render"
                        );
                    }
                }
            }
        }
    }
    // The matrix must not degenerate into all-failures: the repair path
    // has to demonstrably work on a majority of cells.
    assert!(
        recovered * 2 > cells,
        "only {recovered}/{cells} permanent faults recovered"
    );
    Ok(())
}
