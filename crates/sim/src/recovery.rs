//! The recovery orchestrator: detection → checkpoint → online repair →
//! verified reprogramming → resume.
//!
//! [`run_with_recovery`] drives a [`RuntimeSim`] to completion under a
//! [`FaultSchedule`], intervening on every detected [`RuntimeFault`]:
//!
//! 1. **Checkpoint** — pick the rollback target
//!    ([`RuntimeSim::rollback_target`]): the current state for blocking
//!    faults (stalls corrupt nothing), the newest pre-corruption
//!    checkpoint for residue-detected faults.
//! 2. **Repair** — permanent and intermittent faults climb the recovery
//!    ladder below; transient faults skip this step (the hardware is
//!    healthy again by resume), which the report records as
//!    `rollback-only`.
//! 3. **Verify** — the (repaired or original) configuration is proven by
//!    [`verify_round_trip_timed`] before it is allowed near the fabric.
//! 4. **Reprogram** — the verified bitstream is replayed through a
//!    CRC-framed [`ProgrammingSession`] with retransmission/backoff; the
//!    frames, backoff, and the regenerated configuration path are
//!    charged as recovery overhead cycles.
//! 5. **Resume** — the engine state is restored and (if repaired)
//!    rebound to the new mapping; execution continues from the
//!    checkpoint.
//!
//! The result is a [`RecoveryReport`]: the functional run report (equal
//! to the fault-free run for recovered faults) plus one
//! [`RecoveryEvent`] per intervention and the total overhead in cycles.
//! Every failure mode is a typed [`RecoveryError`];
//! [`RecoveryError::Unrecoverable`] means even degraded mode failed —
//! nothing in this module panics.
//!
//! # The recovery ladder
//!
//! Repair is one list of rungs, built from the fault's victim and walked
//! in order until a rung yields a legal mapping. Each rung masks damage on
//! a scratch copy of the fabric ([`CapabilityMask::apply`]); a rung whose
//! mask breaks the fabric or whose search stays illegal escalates to the
//! next instead of aborting:
//!
//! 1. [`RepairRung::PortReroute`] (edge victims) — mask only the afflicted
//!    link and repair the running schedule around it from a
//!    [`Start::Repair`] with [`RecoveryPolicy::repair_attempts`]
//!    attempts; the link's endpoint keeps serving on its other ports.
//! 2. [`RepairRung::NodeDecommission`] — remove the whole owning node,
//!    same search.
//! 3. **Degraded mode** — re-schedule the kernel from [`Start::Empty`]
//!    with relaxed objectives (II and timing-mismatch pressure dropped, so
//!    a slower-but-feasible mapping wins) over the quarantine candidates
//!    most to least protective: the owning node, then the link, then the
//!    fabric as-is. The run finishes at reduced throughput and returns
//!    `Ok` with [`RecoveryReport::degraded`] set and a measured
//!    [`RecoveryReport::throughput_ratio`]; [`RecoveryOutcome::from`]
//!    types the distinction.
//!
//! # Blast-radius containment
//!
//! Recovery is *domain-scoped*: the kernel's regions are partitioned into
//! [`RecoveryDomains`] (regions coupled by shared fabric or same-group
//! memory arbitration), and every detected fault resolves to the single
//! domain its victim sits in. When that domain is a proper subset of the
//! kernel, (a) the structural rungs pin every other domain's placements
//! and routes (verified bit-identical via
//! [`Schedule::agrees_outside`] after each candidate repair), and (b)
//! rollback is sliced to the afflicted domain
//! ([`RuntimeSim::restore_scoped`]) so untouched domains keep their
//! progress — the cycles they would have replayed are reported as
//! [`RecoveryEvent::replayed_cycles_saved`]. Single-domain kernels fall
//! back to exactly the whole-kernel behaviour.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use dsagen_adg::Adg;
use dsagen_dfg::CompiledKernel;
use dsagen_faults::{FaultLifetime, FaultSchedule, FaultTarget};
use dsagen_hwgen::{
    generate_config_paths, verify_round_trip_timed, ProgrammingSession, SessionConfig,
    SessionError, SessionState,
};
use dsagen_scheduler::{
    CapabilityMask, Evaluation, Problem, RepairOutcome, Schedule, ScheduleResult, SchedulerConfig,
    Start, Weights,
};
use dsagen_telemetry::{Span, Telemetry};

use crate::domains::RecoveryDomains;
use crate::runtime::{RuntimeConfig, RuntimeFault, RuntimeSim, StepOutcome};
use crate::{SimConfig, SimError, SimReport};

/// Parallel configuration paths regenerated after a repair.
const CONFIG_PATHS: usize = 4;

/// Tunables for the recovery flow.
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// Detection / checkpointing tunables.
    pub rt: RuntimeConfig,
    /// Scheduler configuration used for online repair.
    pub scheduler: SchedulerConfig,
    /// Maximum recoveries before [`RecoveryError::BudgetExhausted`].
    pub max_recoveries: usize,
    /// Search attempts (`max_attempts` of [`Start::Repair`]) per
    /// structural rung.
    pub repair_attempts: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            rt: RuntimeConfig::default(),
            scheduler: SchedulerConfig::default(),
            max_recoveries: 8,
            repair_attempts: 4,
        }
    }
}

/// One structural rung of the recovery ladder, least to most
/// destructive. Which rung actually repaired a fault is recorded in
/// [`RecoveryAction::Repaired`] so soak runs can attribute every
/// recovery to its granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairRung {
    /// Only the afflicted link is masked and the schedule rerouted around
    /// it; the link's endpoint keeps all its other ports.
    PortReroute,
    /// The whole owning node is decommissioned with all its links.
    NodeDecommission,
}

impl RepairRung {
    /// The rung's stable name, shared by `Display`, rung histograms and
    /// telemetry.
    fn name(self) -> &'static str {
        match self {
            RepairRung::PortReroute => "port-reroute",
            RepairRung::NodeDecommission => "node-decommission",
        }
    }
}

impl fmt::Display for RepairRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What the orchestrator did about one detected fault.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryAction {
    /// Transient fault: rolled back (if needed) and resumed on the same
    /// mapping after a verified configuration scrub.
    RollbackOnly,
    /// Permanent/intermittent fault: damage masked at the recorded rung,
    /// schedule repaired, fabric reprogrammed with the repaired
    /// configuration.
    Repaired {
        /// How much of the previous schedule survived.
        outcome: RepairOutcome,
        /// Scheduler iterations the repair took.
        iterations: u32,
        /// Which ladder rung produced the legal repair.
        rung: RepairRung,
    },
    /// Every structural rung failed: the kernel was re-scheduled from
    /// scratch on the surviving fabric with relaxed objectives and the
    /// run continued in degraded mode.
    DegradedReschedule {
        /// Scheduler iterations the degraded reschedule took.
        iterations: u32,
    },
}

impl RecoveryAction {
    /// Stable label for rung histograms: `"rollback-only"`, the rung's
    /// display name for structural repairs, `"full-reschedule"` for
    /// degraded mode.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryAction::RollbackOnly => "rollback-only",
            RecoveryAction::Repaired { rung, .. } => rung.name(),
            RecoveryAction::DegradedReschedule { .. } => "full-reschedule",
        }
    }
}

impl fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryAction::RollbackOnly => f.write_str(self.label()),
            RecoveryAction::Repaired {
                outcome,
                iterations,
                rung,
            } => {
                write!(f, "repaired@{rung} ({outcome:?}, {iterations} iters)")
            }
            RecoveryAction::DegradedReschedule { iterations } => {
                write!(f, "degraded-reschedule ({iterations} iters)")
            }
        }
    }
}

/// One complete recovery: detection, action, and its cycle costs.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// The detected fault.
    pub fault: RuntimeFault,
    /// What was done about it.
    pub action: RecoveryAction,
    /// Cycles from first observable effect to detection.
    pub detection_latency: u64,
    /// Work cycles re-executed after rollback (detected_at − checkpoint).
    /// Zero when the rollback was domain-sliced — the replay this event
    /// *avoided* is in [`RecoveryEvent::replayed_cycles_saved`].
    pub replayed_cycles: u64,
    /// Cycles of other domains' work that a domain-sliced rollback
    /// preserved instead of replaying (detected_at − checkpoint when the
    /// scoped restore engaged, `0` for whole-engine restores).
    pub replayed_cycles_saved: u64,
    /// Recovery domain the fault's victim sits in, `None` when the fault
    /// struck hardware no region uses.
    pub domain: Option<usize>,
    /// Reprogramming cost: frames sent + retransmission backoff + the
    /// regenerated configuration-path load.
    pub reprogram_cycles: u64,
}

impl RecoveryEvent {
    /// Mean-time-to-repair contribution of this event: cycles the
    /// accelerator was not making forward progress because of the fault.
    #[must_use]
    pub fn mttr_cycles(&self) -> u64 {
        self.detection_latency + self.replayed_cycles + self.reprogram_cycles
    }
}

/// Why a run could not be recovered. Every variant is a terminal,
/// typed outcome — the orchestrator never panics.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RecoveryError {
    /// The simulation could not start or resume (schedule/hardware
    /// mismatch).
    Sim(SimError),
    /// Every ladder rung failed, including the degraded-mode reschedule:
    /// the surviving fabric cannot run this kernel at all.
    Unrecoverable {
        /// The fault that ended the run.
        fault: Box<RuntimeFault>,
        /// Human-readable reason.
        reason: String,
    },
    /// The repaired configuration failed round-trip verification.
    Verify {
        /// The fault being recovered when verification failed.
        fault: Box<RuntimeFault>,
        /// The verifier's message.
        reason: String,
    },
    /// The programming session could not deliver the configuration
    /// within its retry budget.
    Reprogram {
        /// The fault being recovered when delivery failed.
        fault: Box<RuntimeFault>,
        /// The session's terminal error.
        error: SessionError,
    },
    /// More faults were detected than [`RecoveryPolicy::max_recoveries`]
    /// allows.
    BudgetExhausted {
        /// Recoveries completed before the budget ran out.
        recoveries: usize,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Sim(e) => write!(f, "simulation error: {e}"),
            RecoveryError::Unrecoverable { fault, reason } => {
                write!(f, "unrecoverable fault ({fault}): {reason}")
            }
            RecoveryError::Verify { fault, reason } => {
                write!(f, "config verification failed recovering {fault}: {reason}")
            }
            RecoveryError::Reprogram { fault, error } => {
                write!(f, "reprogramming failed recovering {fault}: {error}")
            }
            RecoveryError::BudgetExhausted { recoveries } => {
                write!(f, "recovery budget exhausted after {recoveries} recoveries")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<SimError> for RecoveryError {
    fn from(e: SimError) -> Self {
        RecoveryError::Sim(e)
    }
}

/// The outcome of a fully-recovered run.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// The functional simulation report. For recovered faults the
    /// firings/outputs equal the fault-free run; `report.cycles` is the
    /// *engine* timeline (excluding recovery overhead).
    pub report: SimReport,
    /// One entry per recovered fault, in detection order.
    pub events: Vec<RecoveryEvent>,
    /// Total recovery overhead (replayed work + reprogramming).
    pub overhead_cycles: u64,
    /// End-to-end cycles including recovery overhead.
    pub total_cycles: u64,
    /// Configuration-path length programmed at the end of the run (may
    /// differ from the initial one after repairs).
    pub config_path_len: u32,
    /// Whether any fault fell through to the degraded-mode rung (the run
    /// finished at reduced throughput on a relaxed-objective mapping).
    pub degraded: bool,
    /// Measured throughput relative to the fault-free run
    /// (`fault_free_cycles / total_cycles`, clamped to `(0, 1]`). Only
    /// computed for degraded runs; `None` otherwise.
    pub throughput_ratio: Option<f64>,
    /// Human-readable labels of every capability taken offline by the
    /// ladder (masked links, decommissioned nodes), in recovery order.
    pub masked_resources: Vec<String>,
    /// Per-region firing traces of the surviving timeline —
    /// `(pipeline group, group-local cycle)` per completed firing — when
    /// [`RuntimeConfig::record_traces`] was on; `None` otherwise. Used by
    /// the domain-isolation invariant tests to compare untouched domains
    /// bit-for-bit against a fault-free run.
    pub firing_traces: Option<Vec<Vec<(usize, u64)>>>,
}

impl RecoveryReport {
    /// Number of recoveries performed.
    #[must_use]
    pub fn recoveries(&self) -> usize {
        self.events.len()
    }

    /// How many recoveries resolved at each rung, keyed by
    /// [`RecoveryAction::label`]. The `"full-reschedule"` count is the
    /// number of whole-kernel last-resort reschedules — the quantity
    /// blast-radius containment exists to minimize.
    #[must_use]
    pub fn rung_histogram(&self) -> BTreeMap<&'static str, usize> {
        let mut hist: BTreeMap<&'static str, usize> = BTreeMap::new();
        for e in &self.events {
            *hist.entry(e.action.label()).or_insert(0) += 1;
        }
        hist
    }

    /// Total cycles domain-sliced rollbacks preserved across all events.
    #[must_use]
    pub fn replayed_cycles_saved(&self) -> u64 {
        self.events.iter().map(|e| e.replayed_cycles_saved).sum()
    }

    /// Mean time to repair across all recoveries, in cycles.
    #[must_use]
    pub fn mttr_cycles(&self) -> f64 {
        if self.events.is_empty() {
            return 0.0;
        }
        self.events
            .iter()
            .map(|e| e.mttr_cycles() as f64)
            .sum::<f64>()
            / self.events.len() as f64
    }
}

/// Runs `schedule` on `adg` under `faults`, recovering every detected
/// fault per `policy`. Emits `recovery/*` telemetry spans/events into
/// `tel` (no-ops when disabled).
///
/// # Errors
///
/// A typed [`RecoveryError`] for every terminal failure mode; see the
/// module docs for the ladder. Never panics.
#[allow(clippy::too_many_arguments)] // mirrors `simulate` plus the fault plane
pub fn run_with_recovery(
    adg: &Adg,
    kernel: &CompiledKernel,
    schedule: &Schedule,
    eval: &Evaluation,
    config_path_len: u32,
    cfg: &SimConfig,
    faults: &FaultSchedule,
    policy: &RecoveryPolicy,
    tel: &Telemetry,
) -> Result<RecoveryReport, RecoveryError> {
    let mut span = tel.span("recovery", "run_with_recovery");
    span.arg("faults", faults.faults.len() as u64);

    let mut sim = RuntimeSim::new(
        adg,
        kernel,
        schedule,
        eval,
        config_path_len,
        *cfg,
        policy.rt,
        faults,
    )?;
    let mut cpl_now = config_path_len;
    let mut events: Vec<RecoveryEvent> = Vec::new();
    let mut overhead: u64 = 0;
    let mut degraded = false;
    let mut masked_resources: Vec<String> = Vec::new();
    // The fault-isolation partition of the *current* mapping; re-derived
    // after every reprogram (a repair can change which regions share
    // fabric).
    let mut domains = RecoveryDomains::derive(adg, kernel, schedule);

    loop {
        // Each engine segment between events is a child span, so a trace
        // tells the tick loop apart from the ladder's own time.
        let outcome = {
            let _tick_span = tel.span("sim", "tick_loop");
            sim.run_until_event()
        };
        let StepOutcome::Detected(fault) = outcome else {
            break;
        };
        let fault = *fault;
        // Resolve the blast radius: a single victim's affected regions
        // always share one domain by construction.
        let domain = domains.domain_of_regions(&fault.regions);
        let afflicted: &[usize] = domain.map_or(&[], |d| domains.regions_in(d));
        // Scoped recovery only pays off (and only differs) when other
        // domains exist to protect.
        let scoped = !afflicted.is_empty() && afflicted.len() < domains.region_count();
        if events.len() >= policy.max_recoveries {
            let err = RecoveryError::BudgetExhausted {
                recoveries: events.len(),
            };
            return Err(fail(span, tel, err));
        }
        tel.emit(|| {
            dsagen_telemetry::EventData::new("recovery", "detect")
                .arg("kind", fault.kind.to_string())
                .arg("victim", fault.victim.to_string())
                .arg("detector", fault.detector.to_string())
                .arg("detected_at", fault.detected_at)
                .arg("latency", fault.detection_latency())
                .arg(
                    "domain",
                    domain.map_or_else(|| "none".to_string(), |d| d.to_string()),
                )
        });
        tel.metrics().add("recovery.faults_detected", 1);
        tel.recorder().record("recovery", || {
            (
                "detect".to_string(),
                format!(
                    "kind={} victim={} at={}",
                    fault.kind, fault.victim, fault.detected_at
                ),
            )
        });

        // 1. Checkpoint: pick the rollback target before anything mutates
        //    the simulation.
        let ckpt = sim.rollback_target(&fault);
        let replayed = fault.detected_at.saturating_sub(ckpt.wall());

        // 2. Repair (permanent/intermittent only): climb the ladder.
        let served = if matches!(fault.lifetime, FaultLifetime::Transient { .. }) {
            None
        } else {
            let scope: BTreeSet<usize> = afflicted.iter().copied().collect();
            match climb(&sim, kernel, &fault, scoped.then_some(&scope), policy, tel) {
                Ok(served) => Some(served),
                Err(spent) => {
                    let err = RecoveryError::Unrecoverable {
                        fault: Box::new(fault),
                        reason: format!(
                            "every ladder rung failed; no quarantine of the surviving fabric \
reschedules legally ({spent} iterations spent)"
                        ),
                    };
                    return Err(fail(span, tel, err));
                }
            }
        };
        if let Some(served) = &served {
            degraded |= matches!(served.action, RecoveryAction::DegradedReschedule { .. });
            masked_resources.extend(served.mask.describe(sim.adg()));
        }

        // 3. Verify the configuration that will be (re)loaded.
        let (fabric, target_schedule, target_eval) = match &served {
            Some(s) => (&s.fabric, &s.result.schedule, &s.result.eval),
            None => (sim.adg(), sim.schedule(), sim.eval()),
        };
        let problem = Problem::new(fabric, kernel);
        let verified = match verify_round_trip_timed(&problem, target_schedule, target_eval) {
            Ok(v) => v,
            Err(e) => {
                let err = RecoveryError::Verify {
                    fault: Box::new(fault),
                    reason: e.to_string(),
                };
                return Err(fail(span, tel, err));
            }
        };

        // 4. Reprogram through the CRC-framed session.
        let mut session = ProgrammingSession::new(verified.bitstream(), SessionConfig::default());
        let srep = session.program(|_, frames| frames.to_vec());
        if srep.state != SessionState::Verified {
            let err = RecoveryError::Reprogram {
                fault: Box::new(fault),
                error: srep
                    .error
                    .unwrap_or(SessionError::Undelivered { missing_words: 0 }),
            };
            return Err(fail(span, tel, err));
        }
        if served.is_some() {
            let _paths_span = tel.span("hwgen", "config_paths");
            cpl_now =
                generate_config_paths(fabric, CONFIG_PATHS, policy.scheduler.seed).longest() as u32;
        }
        let reprogram_cycles = srep.frames_sent + srep.backoff_cycles + u64::from(cpl_now);

        // 5. Resume from the checkpoint on the (new) mapping. When other
        //    domains exist and there is work to replay, try a
        //    domain-sliced rollback first: only the afflicted domain
        //    rewinds, the rest keep their progress and the replay they
        //    were spared is accounted as saved.
        let (replayed_cycles, replayed_cycles_saved) =
            if scoped && replayed > 0 && sim.restore_scoped(&ckpt, afflicted) {
                (0, replayed)
            } else {
                sim.restore(&ckpt);
                (replayed, 0)
            };
        let action = match served {
            Some(s) => {
                sim.reprogram(s.fabric, s.result.schedule, s.result.eval)?;
                domains = RecoveryDomains::derive(sim.adg(), kernel, sim.schedule());
                s.action
            }
            None => RecoveryAction::RollbackOnly,
        };

        let event = RecoveryEvent {
            detection_latency: fault.detection_latency(),
            fault,
            action,
            replayed_cycles,
            replayed_cycles_saved,
            domain,
            reprogram_cycles,
        };
        // Detection latency is already on the engine timeline; replay and
        // reprogramming are charged on top of it.
        overhead += event.replayed_cycles + event.reprogram_cycles;
        let m = tel.metrics();
        m.add("recovery.recoveries", 1);
        m.add("recovery.replayed_cycles", event.replayed_cycles);
        m.add(
            "recovery.replayed_cycles_saved",
            event.replayed_cycles_saved,
        );
        m.observe("recovery.mttr_cycles", event.mttr_cycles());
        tel.recorder().record("recovery", || {
            (
                "resume".to_string(),
                format!(
                    "action={} replayed={} saved={}",
                    event.action, event.replayed_cycles, event.replayed_cycles_saved
                ),
            )
        });
        tel.emit(|| {
            dsagen_telemetry::EventData::new("recovery", "resume")
                .arg("action", event.action.to_string())
                .arg("replayed_cycles", event.replayed_cycles)
                .arg("replayed_cycles_saved", event.replayed_cycles_saved)
                .arg("reprogram_cycles", event.reprogram_cycles)
                .arg("mttr_cycles", event.mttr_cycles())
        });
        events.push(event);
    }

    let report = sim.report();
    let total_cycles = report.cycles + overhead;
    // Degraded runs measure their throughput against the fault-free
    // baseline on the pristine inputs (computed only when needed).
    let throughput_ratio = if degraded {
        let baseline = crate::simulate(adg, kernel, schedule, eval, config_path_len, cfg)?;
        let ratio = if total_cycles == 0 {
            1.0
        } else {
            (baseline.cycles as f64 / total_cycles as f64).clamp(f64::MIN_POSITIVE, 1.0)
        };
        tel.emit(|| {
            dsagen_telemetry::EventData::new("recovery/degraded", "throughput")
                .arg("baseline_cycles", baseline.cycles)
                .arg("total_cycles", total_cycles)
                .arg("ratio", format!("{ratio:.4}"))
        });
        Some(ratio)
    } else {
        None
    };
    span.arg("recoveries", events.len() as u64);
    span.arg("overhead_cycles", overhead);
    span.arg("total_cycles", total_cycles);
    span.arg("degraded", degraded);
    span.end();
    let firing_traces = sim.firing_traces().map(<[Vec<(usize, u64)>]>::to_vec);
    Ok(RecoveryReport {
        report,
        events,
        overhead_cycles: overhead,
        total_cycles,
        config_path_len: cpl_now,
        degraded,
        throughput_ratio,
        masked_resources,
        firing_traces,
    })
}

/// Ends a run on a terminal error: the run span records the outcome, the
/// flight recorder the error (dumped when a dump directory is set), and
/// the typed error is handed back for the caller to return.
fn fail(mut span: Span, tel: &Telemetry, err: RecoveryError) -> RecoveryError {
    let (outcome, dump) = match &err {
        RecoveryError::BudgetExhausted { .. } => ("budget-exhausted", "recovery_budget_exhausted"),
        RecoveryError::Unrecoverable { .. } => ("unrecoverable", "recovery_unrecoverable"),
        RecoveryError::Verify { .. } => ("verify-failed", "recovery_verify"),
        RecoveryError::Reprogram { .. } => ("reprogram-failed", "recovery_reprogram"),
        RecoveryError::Sim(_) => ("sim-error", "recovery_sim"),
    };
    span.arg("outcome", outcome);
    span.end();
    tel.recorder()
        .record("recovery", || (outcome.replace('-', "_"), err.to_string()));
    let _ = tel.recorder().dump_on_error(dump);
    err
}

/// What a ladder entry searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Incremental repair of the running mapping at a structural rung.
    Repair(RepairRung),
    /// Degraded mode: a relaxed reschedule from scratch.
    Degraded,
}

/// One entry of the recovery ladder: the hardware to take offline and the
/// search to run on what is left.
#[derive(Debug, Clone, PartialEq)]
struct Rung {
    step: Step,
    mask: CapabilityMask,
}

/// The recovery ladder for a fault on `victim`, least to most
/// destructive. `port-reroute` masks an edge victim's link and
/// `node-decommission` its owning node (the victim itself for node
/// victims); degraded mode then tries the same node, the same link and
/// finally the fabric as-is. A `Word` victim has no hardware to mask, so
/// only the fabric-as-is entry serves it.
fn ladder(adg: &Adg, victim: FaultTarget) -> Vec<Rung> {
    let (link, node) = match victim {
        FaultTarget::Edge(e) => (Some(e), adg.edge(e).map(|edge| edge.dst)),
        FaultTarget::Node(n) => (None, Some(n)),
        FaultTarget::Word(_) => (None, None),
    };
    let link = link.map(|e| CapabilityMask::new().with_edge(e));
    let node = node.map(|n| CapabilityMask::new().with_node(n));
    [
        (Step::Repair(RepairRung::PortReroute), link.clone()),
        (Step::Repair(RepairRung::NodeDecommission), node.clone()),
        (Step::Degraded, node),
        (Step::Degraded, link),
        (Step::Degraded, Some(CapabilityMask::new())),
    ]
    .into_iter()
    .filter_map(|(step, mask)| Some(Rung { step, mask: mask? }))
    .collect()
}

/// The ladder entry that served a fault: its action, its mask, the masked
/// fabric and the legal mapping found on it.
struct Served {
    action: RecoveryAction,
    mask: CapabilityMask,
    fabric: Adg,
    result: ScheduleResult,
}

/// Walks [`ladder`] for `fault` and returns the first entry whose search
/// is legal. Structural rungs repair the running schedule from
/// [`Start::Repair`] under the policy's scheduler; with a `scope` they move
/// only the afflicted domain and must leave every other one bit-identical.
/// Degraded-mode entries reschedule from [`Start::Empty`] under
/// [`relaxed_config`]. `Err` carries the iterations degraded mode spent
/// when no entry served.
fn climb(
    sim: &RuntimeSim,
    kernel: &CompiledKernel,
    fault: &RuntimeFault,
    scope: Option<&BTreeSet<usize>>,
    policy: &RecoveryPolicy,
    tel: &Telemetry,
) -> Result<Served, u64> {
    let adg = sim.adg();
    let relaxed = relaxed_config(&policy.scheduler);
    let mut span = tel.span("recovery", "repair");
    let mut degraded = false;
    let mut spent: u64 = 0;
    for Rung { step, mask } in ladder(adg, fault.victim) {
        if step == Step::Degraded && !degraded {
            // Every structural rung failed: a slower-but-feasible mapping
            // beats an abort.
            span.arg("legal", false);
            span.end();
            span = tel.span("recovery/degraded", "reschedule");
            degraded = true;
        }
        let masked = mask.apply(adg);
        let found = match step {
            Step::Repair(rung) => {
                let start = Start::Repair {
                    previous: sim.schedule(),
                    scope,
                    max_attempts: policy.repair_attempts,
                };
                // A scoped repair whose pins broke fails the rung.
                let res = masked.as_ref().ok().and_then(|fabric| {
                    dsagen_scheduler::schedule(fabric, kernel, &start, &policy.scheduler, tel).ok()
                });
                let legal = res.as_ref().is_some_and(ScheduleResult::is_legal);
                let scoped = scope.is_some();
                tel.emit(|| {
                    dsagen_telemetry::EventData::new("recovery", "rung")
                        .arg("rung", rung.to_string())
                        .arg("legal", legal)
                        .arg("scoped", scoped)
                });
                tel.metrics()
                    .add(&format!("recovery.rung.{rung}.attempts"), 1);
                tel.recorder().record("recovery", || {
                    (
                        "rung".to_string(),
                        format!("rung={rung} legal={legal} scoped={scoped}"),
                    )
                });
                // Containment proof: a scoped repair must leave every
                // pinned domain bit-identical.
                res.filter(|res| {
                    legal
                        && scope.is_none_or(|regions| {
                            res.schedule.agrees_outside(
                                &Problem::new(adg, kernel),
                                sim.schedule(),
                                regions,
                            )
                        })
                })
            }
            Step::Degraded => masked.as_ref().ok().and_then(|fabric| {
                // An empty start pins nothing, so it cannot fail.
                let res = dsagen_scheduler::schedule(fabric, kernel, &Start::Empty, &relaxed, tel)
                    .ok()?;
                spent += u64::from(res.iterations);
                res.is_legal().then_some(res)
            }),
        };
        let (Some(result), Ok(fabric)) = (found, masked) else {
            continue;
        };
        let action = match step {
            Step::Repair(rung) => {
                span.arg("rung", rung.to_string());
                span.arg("iterations", u64::from(result.iterations));
                span.arg("legal", true);
                span.end();
                tel.metrics()
                    .add(&format!("recovery.rung.{rung}.chosen"), 1);
                RecoveryAction::Repaired {
                    outcome: result.outcome,
                    iterations: result.iterations,
                    rung,
                }
            }
            Step::Degraded => {
                span.arg("iterations", spent);
                span.arg("legal", true);
                span.end();
                tel.metrics().add("recovery.rung.degraded.chosen", 1);
                tel.recorder().record("recovery", || {
                    (
                        "degraded_entered".to_string(),
                        format!("kind={} victim={}", fault.kind, fault.victim),
                    )
                });
                tel.emit(|| {
                    dsagen_telemetry::EventData::new("recovery/degraded", "entered")
                        .arg("fault", fault.kind.to_string())
                        .arg("victim", fault.victim.to_string())
                });
                RecoveryAction::DegradedReschedule {
                    iterations: result.iterations,
                }
            }
        };
        return Ok(Served {
            action,
            mask,
            fabric,
            result,
        });
    }
    // The ladder always ends in degraded mode, so `span` is its span here.
    span.arg("iterations", spent);
    span.arg("legal", false);
    Err(spent)
}

/// Scheduler configuration for the degraded-mode reschedule: feasibility
/// over performance. II and timing-mismatch pressure are dropped (a
/// high-II, throttled mapping is acceptable), route-length pressure is
/// zeroed, and the iteration budget is raised — degraded mode runs
/// once, so spending more search there is cheap insurance against an
/// avoidable abort.
fn relaxed_config(base: &SchedulerConfig) -> SchedulerConfig {
    SchedulerConfig {
        // Floor the budget: degraded mode is the last resort, so it must
        // not inherit a deliberately-skinny online-repair budget.
        max_iters: base.max_iters.saturating_mul(4).clamp(512, 4096),
        seed: base.seed ^ 0xDE6A_ADED,
        weights: Weights {
            ii: 1.0,
            mismatch: 1.0,
            recurrence: 0.0,
            hops: 0.0,
            ..base.weights
        },
        ..*base
    }
}

/// A [`RecoveryReport`] with the recovered/degraded distinction typed
/// (`RecoveryOutcome::from(report)`): either full-fidelity recovery or a
/// degraded-mode finish, never a panic and never an abort while any rung
/// of the ladder can still serve.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryOutcome {
    /// Every detected fault was recovered at full fidelity: outputs and
    /// throughput-class match the fault-free run (modulo recovery
    /// overhead).
    Recovered(RecoveryReport),
    /// At least one fault exhausted the structural rungs; the run
    /// finished on a relaxed-objective mapping at reduced throughput. The
    /// report has [`RecoveryReport::degraded`] set, its measured
    /// [`RecoveryReport::throughput_ratio`] and the
    /// [`RecoveryReport::masked_resources`] the ladder took offline.
    Degraded(RecoveryReport),
}

impl From<RecoveryReport> for RecoveryOutcome {
    fn from(report: RecoveryReport) -> Self {
        if report.degraded {
            RecoveryOutcome::Degraded(report)
        } else {
            RecoveryOutcome::Recovered(report)
        }
    }
}

impl RecoveryOutcome {
    /// The underlying recovery report, whichever arm this is.
    #[must_use]
    pub fn report(&self) -> &RecoveryReport {
        match self {
            RecoveryOutcome::Recovered(r) | RecoveryOutcome::Degraded(r) => r,
        }
    }

    /// Whether the run finished in degraded mode.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        matches!(self, RecoveryOutcome::Degraded(_))
    }

    /// Throughput relative to the fault-free run: the measured ratio for
    /// degraded runs, `1.0` for full-fidelity recoveries (their recovery
    /// overhead is in [`RecoveryReport::total_cycles`]).
    #[must_use]
    pub fn throughput_ratio(&self) -> f64 {
        match self {
            RecoveryOutcome::Recovered(_) => 1.0,
            // `degraded` implies the ratio was measured; 0.0 would mean
            // a zero-cycle baseline, which the measurement's clamp rules out.
            RecoveryOutcome::Degraded(r) => r.throughput_ratio.unwrap_or(1.0),
        }
    }
}

impl fmt::Display for RecoveryOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryOutcome::Recovered(r) => {
                write!(f, "recovered ({} recoveries)", r.recoveries())
            }
            RecoveryOutcome::Degraded(r) => write!(
                f,
                "degraded (throughput {:.2}, {} masked, {} recoveries)",
                self.throughput_ratio(),
                r.masked_resources.len(),
                r.recoveries()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use dsagen_adg::presets;
    use dsagen_dfg::{
        compile_kernel, AffineExpr, KernelBuilder, MemClass, TransformConfig, TripCount,
    };
    use dsagen_faults::FaultKind;
    use dsagen_scheduler::Evaluation;

    use crate::tests::fresh;

    use super::*;
    use crate::simulate;

    fn dot(n: u64) -> dsagen_dfg::Kernel {
        let mut k = KernelBuilder::new("dot");
        let a = k.array("a", dsagen_adg::BitWidth::B64, n, MemClass::MainMemory);
        let b = k.array("b", dsagen_adg::BitWidth::B64, n, MemClass::MainMemory);
        let c = k.array("c", dsagen_adg::BitWidth::B64, 1, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(n), true);
        let va = r.load(a, AffineExpr::var(i));
        let vb = r.load(b, AffineExpr::var(i));
        let p = r.bin(dsagen_adg::Opcode::Mul, va, vb);
        let acc = r.reduce(dsagen_adg::Opcode::Add, p, i);
        r.store(c, AffineExpr::constant(0), acc);
        k.finish_region(r);
        k.build().unwrap()
    }

    fn fixture(n: u64) -> (Adg, CompiledKernel, Schedule, Evaluation) {
        let adg = presets::softbrain();
        let ck = compile_kernel(&dot(n), &TransformConfig::fallback(), &adg.features()).unwrap();
        let s = fresh(&adg, &ck, &dsagen_scheduler::SchedulerConfig::default());
        assert!(s.is_legal(), "schedule: {:?}", s.eval);
        (adg, ck, s.schedule, s.eval)
    }

    fn recover(
        fixture: &(Adg, CompiledKernel, Schedule, Evaluation),
        faults: &FaultSchedule,
        policy: &RecoveryPolicy,
        tel: &Telemetry,
    ) -> Result<RecoveryReport, RecoveryError> {
        let (adg, ck, sch, ev) = fixture;
        run_with_recovery(
            adg,
            ck,
            sch,
            ev,
            0,
            &SimConfig::default(),
            faults,
            policy,
            tel,
        )
    }

    #[test]
    fn fault_free_run_has_no_events_and_no_overhead() {
        let fx = fixture(1024);
        let plain = simulate(&fx.0, &fx.1, &fx.2, &fx.3, 0, &SimConfig::default()).unwrap();
        let rep = recover(
            &fx,
            &FaultSchedule::new(1),
            &RecoveryPolicy::default(),
            &Telemetry::disabled(),
        )
        .unwrap();
        assert!(rep.events.is_empty());
        assert_eq!(rep.overhead_cycles, 0);
        assert_eq!(rep.report, plain);
        assert_eq!(rep.total_cycles, plain.cycles);
        assert_eq!(rep.mttr_cycles(), 0.0);
    }

    #[test]
    fn transient_blocking_fault_recovers_with_rollback_only() {
        let fx = fixture(4096);
        let plain = simulate(&fx.0, &fx.1, &fx.2, &fx.3, 0, &SimConfig::default()).unwrap();
        // Long enough to trip the 64-cycle watchdog; transient, so recovery
        // is rollback-only (no repair).
        let faults = FaultSchedule::new(7).with(
            200,
            dsagen_faults::FaultLifetime::Transient { duration: 2048 },
            FaultKind::DeadPe,
        );
        let tel = Telemetry::in_memory();
        let rep = recover(&fx, &faults, &RecoveryPolicy::default(), &tel).unwrap();
        assert_eq!(rep.events.len(), 1);
        let ev = &rep.events[0];
        assert!(
            matches!(ev.action, RecoveryAction::RollbackOnly),
            "{}",
            ev.action
        );
        assert!(ev.detection_latency <= crate::WATCHDOG_BOUND);
        assert!(ev.reprogram_cycles > 0, "config replay must be charged");
        assert!(ev.mttr_cycles() > 0);
        // Functional outputs equal the fault-free run.
        assert_eq!(rep.report.firings, plain.firings);
        assert!(rep.total_cycles > plain.cycles, "overhead must be visible");
        // Telemetry: detection and resume events under recovery/*.
        let events = tel.events();
        assert!(events
            .iter()
            .any(|e| e.cat == "recovery" && e.name == "detect"));
        assert!(events
            .iter()
            .any(|e| e.cat == "recovery" && e.name == "resume"));
        assert!(events
            .iter()
            .any(|e| e.cat == "recovery" && e.name == "run_with_recovery"));
    }

    #[test]
    fn permanent_fault_repairs_or_fails_typed() {
        let fx = fixture(4096);
        let plain = simulate(&fx.0, &fx.1, &fx.2, &fx.3, 0, &SimConfig::default()).unwrap();
        let faults = FaultSchedule::new(11).with(
            200,
            dsagen_faults::FaultLifetime::Permanent,
            FaultKind::DeadPe,
        );
        match recover(
            &fx,
            &faults,
            &RecoveryPolicy::default(),
            &Telemetry::disabled(),
        ) {
            Ok(rep) => {
                assert_eq!(rep.events.len(), 1);
                assert!(
                    matches!(
                        rep.events[0].action,
                        RecoveryAction::Repaired { .. } | RecoveryAction::DegradedReschedule { .. }
                    ),
                    "permanent faults must be repaired or degraded, got {}",
                    rep.events[0].action
                );
                assert_eq!(
                    rep.report.firings, plain.firings,
                    "recovered outputs differ"
                );
                if rep.degraded {
                    let ratio = rep.throughput_ratio.expect("degraded measures throughput");
                    assert!(ratio > 0.0 && ratio <= 1.0, "ratio {ratio}");
                }
            }
            Err(e) => {
                // Failing typed is acceptable; panicking is not.
                assert!(
                    matches!(
                        e,
                        RecoveryError::Unrecoverable { .. }
                            | RecoveryError::Verify { .. }
                            | RecoveryError::Reprogram { .. }
                    ),
                    "unexpected error {e}"
                );
                assert!(!e.to_string().is_empty());
            }
        }
    }

    #[test]
    fn poison_fault_rolls_back_to_a_clean_timeline() {
        let fx = fixture(4096);
        let plain = simulate(&fx.0, &fx.1, &fx.2, &fx.3, 0, &SimConfig::default()).unwrap();
        let faults = FaultSchedule::new(13).with(
            300,
            dsagen_faults::FaultLifetime::Transient { duration: 100 },
            FaultKind::StuckSwitch,
        );
        let rep = recover(
            &fx,
            &faults,
            &RecoveryPolicy::default(),
            &Telemetry::disabled(),
        )
        .unwrap();
        assert_eq!(rep.events.len(), 1);
        let ev = &rep.events[0];
        assert_eq!(ev.fault.detector, crate::runtime::Detector::Residue);
        // Rollback discards every poisoned firing and replays clean, so the
        // functional report is *exactly* the fault-free one.
        assert_eq!(rep.report, plain);
        assert!(ev.replayed_cycles > 0, "corruption forces replay");
    }

    #[test]
    fn permanent_link_fault_repairs_at_port_granularity() {
        let fx = fixture(4096);
        let plain = simulate(&fx.0, &fx.1, &fx.2, &fx.3, 0, &SimConfig::default()).unwrap();
        let faults = FaultSchedule::new(23).with(
            200,
            dsagen_faults::FaultLifetime::Permanent,
            FaultKind::SeveredLink,
        );
        let tel = Telemetry::in_memory();
        let rep = recover(&fx, &faults, &RecoveryPolicy::default(), &tel).unwrap();
        assert_eq!(rep.events.len(), 1);
        let RecoveryAction::Repaired { rung, .. } = rep.events[0].action else {
            panic!("expected structural repair, got {}", rep.events[0].action);
        };
        // The ladder tries the port rungs first; on a healthy softbrain
        // rerouting one link must succeed without decommissioning a node.
        assert_ne!(
            rung,
            RepairRung::NodeDecommission,
            "a single severed link must not cost a whole node"
        );
        assert_eq!(rep.masked_resources.len(), 1, "{:?}", rep.masked_resources);
        assert!(
            rep.masked_resources[0].starts_with("link"),
            "{:?}",
            rep.masked_resources
        );
        assert!(!rep.degraded);
        assert_eq!(rep.report.firings, plain.firings);
        // Telemetry attributes the rung.
        assert!(tel
            .events()
            .iter()
            .any(|e| e.cat == "recovery" && e.name == "rung"));
    }

    #[test]
    fn dead_port_fault_masks_only_the_port() {
        let fx = fixture(4096);
        let plain = simulate(&fx.0, &fx.1, &fx.2, &fx.3, 0, &SimConfig::default()).unwrap();
        let faults = FaultSchedule::new(29).with(
            200,
            dsagen_faults::FaultLifetime::Permanent,
            FaultKind::DeadPort,
        );
        let rep = recover(
            &fx,
            &faults,
            &RecoveryPolicy::default(),
            &Telemetry::disabled(),
        )
        .unwrap();
        assert_eq!(rep.events.len(), 1);
        assert!(matches!(rep.events[0].fault.victim, FaultTarget::Edge(_)));
        assert!(
            matches!(
                rep.events[0].action,
                RecoveryAction::Repaired { .. } | RecoveryAction::DegradedReschedule { .. }
            ),
            "{}",
            rep.events[0].action
        );
        assert_eq!(rep.report.firings, plain.firings);
    }

    /// A saturated fabric: a 1×2 mesh whose two dedicated PEs are both
    /// needed by the dot kernel, so decommissioning either is
    /// structurally infeasible and repair must fall through the ladder.
    fn saturated_fixture(n: u64) -> (Adg, CompiledKernel, Schedule, Evaluation) {
        use dsagen_adg::{OpSet, PeSpec, Scheduling, Sharing};
        let pe = PeSpec::new(
            Scheduling::Static,
            Sharing::Dedicated,
            OpSet::integer_alu().union(OpSet::integer_mul()),
        );
        let adg = presets::mesh(&presets::MeshConfig::new("saturated", 1, 2, pe));
        let ck = compile_kernel(&dot(n), &TransformConfig::fallback(), &adg.features()).unwrap();
        let s = fresh(&adg, &ck, &dsagen_scheduler::SchedulerConfig::default());
        assert!(s.is_legal(), "saturated fixture schedule: {:?}", s.eval);
        (adg, ck, s.schedule, s.eval)
    }

    #[test]
    fn exhausted_structural_rungs_degrade_instead_of_aborting() {
        let fx = saturated_fixture(1024);
        let plain = simulate(&fx.0, &fx.1, &fx.2, &fx.3, 0, &SimConfig::default()).unwrap();
        // Both PEs are busy, so whichever the permanent fault hits,
        // node decommission cannot produce a legal repair. Before the
        // ladder this returned RecoveryError::Unrecoverable; now the
        // degraded rung must finish the run.
        let faults = FaultSchedule::new(11).with(
            200,
            dsagen_faults::FaultLifetime::Permanent,
            FaultKind::DeadPe,
        );
        let out = recover(
            &fx,
            &faults,
            &RecoveryPolicy::default(),
            &Telemetry::disabled(),
        )
        .map(RecoveryOutcome::from)
        .unwrap_or_else(|e| panic!("degraded rung aborted: {e}"));
        let RecoveryOutcome::Degraded(report) = &out else {
            panic!("expected a degraded finish, got {out}");
        };
        let throughput_ratio = out.throughput_ratio();
        assert!(
            throughput_ratio > 0.0 && throughput_ratio <= 1.0,
            "ratio {throughput_ratio}"
        );
        assert!(report.degraded);
        assert_eq!(report.throughput_ratio, Some(throughput_ratio));
        assert!(
            matches!(
                report.events[0].action,
                RecoveryAction::DegradedReschedule { .. }
            ),
            "{}",
            report.events[0].action
        );
        assert!(out.is_degraded());
        assert_eq!(
            report.report.firings, plain.firings,
            "degraded run must still complete all work"
        );
    }

    #[test]
    fn recovery_with_degradation_is_deterministic() {
        let fx = fixture(4096);
        let faults = FaultSchedule::new(31).with(
            250,
            dsagen_faults::FaultLifetime::Permanent,
            FaultKind::SeveredLink,
        );
        let run = || {
            recover(
                &fx,
                &faults,
                &RecoveryPolicy::default(),
                &Telemetry::disabled(),
            )
            .map(RecoveryOutcome::from)
            .unwrap()
        };
        assert_eq!(run(), run(), "replay must be bit-identical");
    }

    #[test]
    fn ladder_lists_the_rungs_for_each_victim_kind() {
        let adg = presets::softbrain();
        let edge = *adg.edges().next().expect("softbrain has links");
        let node = edge.dst;
        let link = CapabilityMask::new().with_edge(edge.id());
        let owner = CapabilityMask::new().with_node(node);
        let as_is = CapabilityMask::new();
        let rung = |step, mask: &CapabilityMask| Rung {
            step,
            mask: mask.clone(),
        };
        let port = Step::Repair(RepairRung::PortReroute);
        let decommission = Step::Repair(RepairRung::NodeDecommission);
        let table = [
            (
                FaultTarget::Edge(edge.id()),
                vec![
                    rung(port, &link),
                    rung(decommission, &owner),
                    rung(Step::Degraded, &owner),
                    rung(Step::Degraded, &link),
                    rung(Step::Degraded, &as_is),
                ],
            ),
            (
                FaultTarget::Node(node),
                vec![
                    rung(decommission, &owner),
                    rung(Step::Degraded, &owner),
                    rung(Step::Degraded, &as_is),
                ],
            ),
            (FaultTarget::Word(3), vec![rung(Step::Degraded, &as_is)]),
        ];
        for (victim, rungs) in table {
            assert_eq!(ladder(&adg, victim), rungs, "{victim}");
        }
    }

    #[test]
    fn zero_recovery_budget_fails_typed() {
        let fx = fixture(4096);
        let faults = FaultSchedule::new(11).with(
            200,
            dsagen_faults::FaultLifetime::Permanent,
            FaultKind::DeadPe,
        );
        let policy = RecoveryPolicy {
            max_recoveries: 0,
            ..RecoveryPolicy::default()
        };
        let err = recover(&fx, &faults, &policy, &Telemetry::disabled()).unwrap_err();
        assert!(
            matches!(err, RecoveryError::BudgetExhausted { recoveries: 0 }),
            "unexpected error {err}"
        );
    }
}
