//! Runtime fault simulation: mid-execution fault arrival, online
//! detection, and stream checkpointing.
//!
//! The plain entry points in [`crate::engine`] assume the fabric never
//! degrades once execution starts. [`RuntimeSim`] drops that assumption:
//! it drives the same [`EngineCore`](crate::engine) cycle by cycle while
//! overlaying a [`FaultSchedule`] — at each fault's arrival cycle its
//! resolved hardware victim starts misbehaving for as long as its
//! [`FaultLifetime`] says.
//!
//! # Fault behaviour model
//!
//! * **Blocking** faults ([`FaultKind::DeadPe`], [`FaultKind::SeveredLink`],
//!   [`FaultKind::DeadPort`]) stop the victim from moving data: every
//!   region whose placement or routes use the victim cannot fire while the
//!   fault is active. The region's streams keep draining, so the symptom
//!   is a *silent stall*. A dead port scopes the same symptom to one
//!   routed link, so recovery can mask just that port.
//! * **Silent-corruption** faults ([`FaultKind::StuckSwitch`],
//!   [`FaultKind::StuckLane`]) keep data moving but deliver the wrong
//!   operands: affected regions fire normally and every firing produces
//!   poisoned results.
//! * **Throttling** faults ([`FaultKind::DegradedLink`]) block affected
//!   regions only on the fraction of cycles the link can no longer serve
//!   (`100 - capacity` percent): throughput degrades gracefully, and the
//!   watchdog only trips when capacity is so low that the blocked runs
//!   reach its bound — mild degradation rides through undetected.
//!
//! # Online detection
//!
//! Two detectors run concurrently, mirroring what a deployed accelerator
//! can actually observe:
//!
//! * a **progress watchdog** per fault: counts *consecutive* cycles in
//!   which an affected region was live (scheduled, not done, work left)
//!   yet could not fire because of the fault. When the run reaches
//!   [`RuntimeConfig::watchdog_bound`] the fault is detected — so
//!   detection latency for blocking faults is exactly the bound.
//! * a **result-residue check** every
//!   [`RuntimeConfig::residue_interval`] cycles (and once at the end of
//!   the run): compares redundantly-computed residues against delivered
//!   results, observable here as the engine's poisoned-firing counters.
//!   Detection latency for corruption faults is at most the interval.
//!
//! # Checkpointing
//!
//! The engine state is a cloneable value ([`SimCheckpoint`] wraps it), so
//! `checkpoint()` is a clone and `resume()` is continuing to tick a
//! clone: **resume-with-no-faults is bit-identical to an uninterrupted
//! run by construction** (property-tested in `tests/properties.rs`). A
//! bounded ring of periodic checkpoints plus a baseline lets the
//! recovery layer roll corruption back to before the first poisoned
//! firing.
//!
//! Detected faults are **consumed**: the recovery flow (diagnose →
//! repair → reprogram) takes long enough in real time that a transient
//! has cleared by resume, and a permanent victim is decommissioned from
//! the ADG so the repaired schedule no longer exercises it. Consumption
//! survives rollback — faults live in physical time, not simulated time.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use dsagen_adg::{Adg, CtrlSpec, EdgeId, NodeId, NodeKind};
use dsagen_dfg::CompiledKernel;
use dsagen_faults::{FaultKind, FaultLifetime, FaultSchedule, FaultTarget, TimedFault};
use dsagen_scheduler::{Entity, EntityKind, Evaluation, Problem, Schedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::{
    control_spec, pipeline_groups, validate_schedule, Effect, EngineCore, EngineCtx, Tick,
};
use crate::telemetry::SimTelemetry;
use crate::{SimConfig, SimError, SimReport};

/// Tunables for online detection and checkpointing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Consecutive blocked-while-live cycles before the progress watchdog
    /// raises a fault (the detection-latency bound for blocking faults).
    pub watchdog_bound: u64,
    /// Wall-cycle period of the result-residue check (the
    /// detection-latency bound for silent-corruption faults).
    pub residue_interval: u64,
    /// Wall-cycle period of automatic checkpoints.
    pub checkpoint_interval: u64,
    /// How many periodic checkpoints the ring retains (a baseline taken
    /// at construction is always kept in addition).
    pub checkpoint_ring: usize,
    /// Run the result-residue check *every* cycle instead of only at
    /// interval boundaries and run end. The interval-boundary assumption
    /// models a residue unit that only publishes at checkpoint epochs;
    /// eager mode models one on the result bus, dropping corruption
    /// detection latency from ≤ `residue_interval` to a few cycles at the
    /// cost of checking each cycle. Detection latency never exceeds the
    /// non-eager bound (regression-tested).
    pub residue_eager: bool,
    /// Record a per-region firing trace: for every completed firing, the
    /// `(pipeline group, group-local cycle)` at which it fired. Off by
    /// default — traces grow with the firing count and exist to *audit*
    /// recovery (the domain-isolation invariant compares traces of
    /// untouched domains bit-for-bit against a fault-free run), not to
    /// drive it.
    pub record_traces: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            watchdog_bound: 64,
            residue_interval: 256,
            checkpoint_interval: 256,
            checkpoint_ring: 8,
            residue_eager: false,
            record_traces: false,
        }
    }
}

/// Which online detector raised a [`RuntimeFault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detector {
    /// Per-region progress watchdog (blocking faults).
    Watchdog,
    /// Periodic result-residue check (silent corruption).
    Residue,
}

impl fmt::Display for Detector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Detector::Watchdog => "watchdog",
            Detector::Residue => "residue",
        })
    }
}

/// A mid-execution fault as *detected* by the online machinery — the
/// typed event handed to the recovery layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeFault {
    /// Index of the fault within the originating [`FaultSchedule`].
    pub fault_index: usize,
    /// What broke.
    pub kind: FaultKind,
    /// The resolved hardware victim.
    pub victim: FaultTarget,
    /// How long the fault stays active.
    pub lifetime: FaultLifetime,
    /// Scheduled arrival cycle.
    pub arrival: u64,
    /// First wall cycle at which the fault actually perturbed a live
    /// region (blocked a would-be firing or poisoned one). `None` only
    /// for defensive completeness; detection implies an effect.
    pub first_effect: Option<u64>,
    /// Wall cycle at which the detector raised the fault.
    pub detected_at: u64,
    /// Which detector raised it.
    pub detector: Detector,
    /// Kernel regions whose placement/routes use the victim.
    pub regions: Vec<usize>,
}

impl RuntimeFault {
    /// Cycles between the first observable effect and detection.
    #[must_use]
    pub fn detection_latency(&self) -> u64 {
        self.detected_at
            .saturating_sub(self.first_effect.unwrap_or(self.arrival))
    }
}

impl fmt::Display for RuntimeFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {} ({}) detected by {} at cycle {} (latency {})",
            self.kind,
            self.victim,
            self.lifetime,
            self.detector,
            self.detected_at,
            self.detection_latency()
        )
    }
}

/// What one [`RuntimeSim::run_until_event`] call observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// The run completed; [`RuntimeSim::report`] is final.
    Finished,
    /// A fault was detected; recovery should intervene before resuming.
    Detected(Box<RuntimeFault>),
}

/// A resumable snapshot of the whole engine state: stream positions and
/// FIFO contents, per-region firing progress (PE state), completed
/// instance counts, stall counters, and the wall clock.
#[derive(Debug, Clone)]
pub struct SimCheckpoint {
    core: EngineCore,
}

impl SimCheckpoint {
    /// The wall cycle at which this checkpoint was taken.
    #[must_use]
    pub fn wall(&self) -> u64 {
        self.core.wall()
    }

    /// Completed firings per region at checkpoint time.
    #[must_use]
    pub fn completed_firings(&self) -> &[u64] {
        self.core.firings()
    }
}

/// One schedule fault bound to concrete hardware, plus its detector
/// bookkeeping.
#[derive(Debug, Clone)]
struct ResolvedFault {
    timed: TimedFault,
    victim: FaultTarget,
    regions: Vec<usize>,
    /// One-shot: set when detected (and the recovery flow handled it);
    /// survives rollback because faults live in physical time.
    consumed: bool,
    /// Consecutive blocked-while-live cycles (watchdog state).
    stall_run: u64,
    /// First wall cycle with an observable effect.
    first_effect: Option<u64>,
}

/// A fault-aware, checkpointable simulation of one compiled kernel.
///
/// Owns its hardware view (`Adg`, `Schedule`, `Evaluation`) so the
/// recovery layer can swap in a repaired mapping mid-run via
/// [`RuntimeSim::reprogram`].
#[derive(Debug)]
pub struct RuntimeSim {
    adg: Adg,
    kernel: CompiledKernel,
    schedule: Schedule,
    eval: Evaluation,
    cfg: SimConfig,
    rt: RuntimeConfig,
    stream_mems: BTreeMap<(usize, bool, usize), NodeId>,
    ctrl: CtrlSpec,
    groups: Vec<Vec<usize>>,
    core: EngineCore,
    faults: Vec<ResolvedFault>,
    /// Baseline checkpoint (taken at construction / replaced on restore).
    baseline: SimCheckpoint,
    /// Ring of periodic checkpoints, oldest first.
    ring: VecDeque<SimCheckpoint>,
    /// Scratch: per-region effects for the next cycle.
    effects: Vec<Effect>,
    /// Scratch: which faults touched a live region in the next cycle.
    touched: Vec<bool>,
    /// Per-region firing trace (`(group, group-local cycle)` per completed
    /// firing), populated only under [`RuntimeConfig::record_traces`].
    /// Rolls back with the engine state on restore.
    traces: Vec<Vec<(usize, u64)>>,
    seed: u64,
}

/// Builds the engine context from a `RuntimeSim`'s owned fields without
/// borrowing the whole struct (the core is borrowed mutably alongside).
macro_rules! ctx {
    ($s:expr) => {
        EngineCtx {
            adg: &$s.adg,
            kernel: &$s.kernel,
            eval: &$s.eval,
            cfg: &$s.cfg,
            stream_mems: &$s.stream_mems,
            ctrl: &$s.ctrl,
            groups: &$s.groups,
        }
    };
}

impl RuntimeSim {
    /// Prepares a runtime simulation of `schedule` on `adg` under
    /// `faults`. Victims are resolved immediately and deterministically
    /// (seeded by [`FaultSchedule::seed`]) against the hardware the
    /// schedule actually uses.
    ///
    /// # Errors
    ///
    /// * Whatever [`crate::simulate`] would reject (missing nodes /
    ///   edges / control core);
    /// * [`SimError::UnsupportedRuntimeFault`] if the schedule contains a
    ///   config-plane fault kind, which cannot strike mid-execution.
    #[allow(clippy::too_many_arguments)] // mirrors `simulate` plus the fault plane
    pub fn new(
        adg: &Adg,
        kernel: &CompiledKernel,
        schedule: &Schedule,
        eval: &Evaluation,
        config_path_len: u32,
        cfg: SimConfig,
        rt: RuntimeConfig,
        faults: &FaultSchedule,
    ) -> Result<Self, SimError> {
        validate_schedule(adg, schedule)?;
        for f in &faults.faults {
            if f.kind.is_config_plane() {
                return Err(SimError::UnsupportedRuntimeFault { kind: f.kind });
            }
        }
        let problem = Problem::new(adg, kernel);
        let stream_mems = schedule.stream_memories(&problem);
        let ctrl = control_spec(adg);
        let groups = pipeline_groups(kernel);
        let core = EngineCore::new(kernel.regions.len(), config_path_len);
        let baseline = SimCheckpoint { core: core.clone() };
        let n_regions = kernel.regions.len();
        let n_faults = faults.faults.len();
        let mut sim = RuntimeSim {
            adg: adg.clone(),
            kernel: kernel.clone(),
            schedule: schedule.clone(),
            eval: eval.clone(),
            cfg,
            rt,
            stream_mems,
            ctrl,
            groups,
            core,
            faults: Vec::new(),
            baseline,
            ring: VecDeque::new(),
            effects: vec![Effect::Normal; n_regions],
            touched: vec![false; n_faults],
            traces: vec![Vec::new(); n_regions],
            seed: faults.seed,
        };
        sim.faults = faults
            .faults
            .iter()
            .enumerate()
            .map(|(i, tf)| sim.resolve_fault(i, *tf))
            .collect();
        Ok(sim)
    }

    /// Binds one schedule fault to a concrete victim on the *current*
    /// (ADG, schedule) pair. Deterministic in `(seed, fault index)`.
    fn resolve_fault(&self, index: usize, timed: TimedFault) -> ResolvedFault {
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let victim = match timed.kind {
            // Link- and port-scoped kinds strike a routed edge: the port
            // is identified by the edge occupying it.
            FaultKind::SeveredLink
            | FaultKind::DeadPort
            | FaultKind::StuckLane
            | FaultKind::DegradedLink { .. } => {
                let edges: BTreeSet<EdgeId> =
                    self.schedule.routes.values().flatten().copied().collect();
                pick(&mut rng, &edges).map(FaultTarget::Edge)
            }
            FaultKind::StuckSwitch => {
                let switches: BTreeSet<NodeId> = self
                    .schedule
                    .routes
                    .values()
                    .flatten()
                    .filter_map(|eid| self.adg.edge(*eid))
                    .flat_map(|e| [e.src, e.dst])
                    .filter(|n| matches!(self.adg.kind(*n), Ok(NodeKind::Switch(_))))
                    .collect();
                pick(&mut rng, &switches).map(FaultTarget::Node)
            }
            // Default every other structural kind to a placed PE: dead-PE
            // is the canonical case; shrunk-FIFO etc. degrade the same
            // element class.
            _ => {
                let pes: BTreeSet<NodeId> = self
                    .schedule
                    .placement
                    .iter()
                    .flatten()
                    .filter(|n| matches!(self.adg.kind(**n), Ok(NodeKind::Pe(_))))
                    .copied()
                    .collect();
                pick(&mut rng, &pes).map(FaultTarget::Node)
            }
        };
        let (victim, regions) = match victim {
            Some(v) => {
                let regions = self.affected_regions(&v);
                (v, regions)
            }
            // Nothing of that class is in use: the fault strikes idle
            // hardware and can never perturb the run.
            None => (FaultTarget::Word(usize::MAX), Vec::new()),
        };
        ResolvedFault {
            timed,
            victim,
            regions,
            consumed: false,
            stall_run: 0,
            first_effect: None,
        }
    }

    /// Kernel regions whose placement or routes exercise `victim`.
    fn affected_regions(&self, victim: &FaultTarget) -> Vec<usize> {
        let problem = Problem::new(&self.adg, &self.kernel);
        let mut regions: BTreeSet<usize> = BTreeSet::new();
        match victim {
            FaultTarget::Node(node) => {
                for (e, placed) in self.schedule.placement.iter().enumerate() {
                    if *placed == Some(*node) {
                        if let Some(ent) = problem.entities.get(e) {
                            regions.insert(entity_region(ent));
                        }
                    }
                }
                // A stuck switch also corrupts every route that turns
                // through it.
                for (idx, path) in &self.schedule.routes {
                    let touches = path.iter().any(|eid| {
                        self.adg
                            .edge(*eid)
                            .is_some_and(|e| e.src == *node || e.dst == *node)
                    });
                    if touches {
                        if let Some(r) = route_region(&problem, *idx) {
                            regions.insert(r);
                        }
                    }
                }
            }
            FaultTarget::Edge(edge) => {
                for (idx, path) in &self.schedule.routes {
                    if path.contains(edge) {
                        if let Some(r) = route_region(&problem, *idx) {
                            regions.insert(r);
                        }
                    }
                }
            }
            FaultTarget::Word(_) => {}
        }
        regions.into_iter().collect()
    }

    /// The current wall cycle.
    #[must_use]
    pub fn wall(&self) -> u64 {
        self.core.wall()
    }

    /// Total poisoned firings currently accounted in the engine state.
    #[must_use]
    pub fn poisoned_total(&self) -> u64 {
        self.core.poisoned_total()
    }

    /// Faults not yet consumed by detection+recovery.
    #[must_use]
    pub fn pending_faults(&self) -> usize {
        self.faults.iter().filter(|f| !f.consumed).count()
    }

    /// Snapshots the current engine state.
    #[must_use]
    pub fn checkpoint(&self) -> SimCheckpoint {
        SimCheckpoint {
            core: self.core.clone(),
        }
    }

    /// Rewinds the engine to `ckpt`. Per-fault detector state is reset
    /// coherently: watchdog runs restart, and first-effect marks later
    /// than the restored wall clock are cleared (those effects are now in
    /// the future again). Consumption is **kept** — a detected fault does
    /// not re-strike after recovery. The checkpoint ring is cleared (its
    /// entries describe a timeline being re-executed) and the baseline is
    /// replaced by `ckpt`.
    pub fn restore(&mut self, ckpt: &SimCheckpoint) {
        self.core = ckpt.core.clone();
        let wall = self.core.wall();
        for f in &mut self.faults {
            f.stall_run = 0;
            if f.first_effect.is_some_and(|fe| fe > wall) {
                f.first_effect = None;
            }
        }
        for (ri, trace) in self.traces.iter_mut().enumerate() {
            trace.truncate(self.core.firings().get(ri).copied().unwrap_or(0) as usize);
        }
        self.ring.clear();
        self.baseline = ckpt.clone();
    }

    /// Domain-sliced rollback: rewinds only `regions` to their state in
    /// `ckpt`, leaving every other region's progress — and the wall clock —
    /// untouched, so work outside the afflicted domain is never replayed.
    ///
    /// The splice is only meaningful when both timelines share a frame of
    /// reference, so this engages only when `ckpt` and the current state
    /// sit inside the *same pipeline group* with initialized region state
    /// and `regions` is a *proper* subset of that group (rewinding the
    /// whole group is exactly [`RuntimeSim::restore`]). Returns `false`
    /// without changing anything when those preconditions fail — callers
    /// fall back to the global restore.
    ///
    /// On success the checkpoint ring is cleared and the baseline is
    /// re-seeded from the post-splice state (older snapshots describe a
    /// timeline that no longer exists for the rewound regions). The global
    /// stall counters are *not* rewound: the un-spliced regions' stalls
    /// genuinely happened, so the spliced regions' pre-rollback stalls
    /// remain accounted — a deliberate, documented accounting bias toward
    /// over-reporting stalls rather than losing them.
    pub fn restore_scoped(&mut self, ckpt: &SimCheckpoint, regions: &[usize]) -> bool {
        let Some(group) = self.groups.get(self.core.group_idx()) else {
            return false;
        };
        let in_group = regions.iter().all(|r| group.contains(r));
        if regions.is_empty() || !in_group || regions.len() >= group.len() {
            return false;
        }
        if !self.core.splice_regions_from(&ckpt.core, regions) {
            return false;
        }
        for f in &mut self.faults {
            f.stall_run = 0;
        }
        for &ri in regions {
            if let Some(trace) = self.traces.get_mut(ri) {
                trace.truncate(self.core.firings().get(ri).copied().unwrap_or(0) as usize);
            }
        }
        self.ring.clear();
        self.baseline = self.checkpoint();
        true
    }

    /// The checkpoint recovery should roll back to for `fault`:
    ///
    /// * corruption (residue-detected) — the newest checkpoint strictly
    ///   *before* the first poisoned firing, so no poisoned state
    ///   survives;
    /// * blocking (watchdog-detected) — the state *now*: stalled cycles
    ///   corrupt nothing, so no work needs replaying beyond them.
    #[must_use]
    pub fn rollback_target(&self, fault: &RuntimeFault) -> SimCheckpoint {
        match fault.detector {
            Detector::Watchdog => self.checkpoint(),
            Detector::Residue => {
                let horizon = fault.first_effect.unwrap_or(fault.detected_at);
                self.ring
                    .iter()
                    .rev()
                    .find(|c| c.wall() < horizon)
                    .unwrap_or(&self.baseline)
                    .clone()
            }
        }
    }

    /// Swaps in a repaired hardware mapping: the owned ADG / schedule /
    /// evaluation are replaced, stream→memory bindings and service rates
    /// are rebound onto the preserved dynamic state, and every pending
    /// fault's victim is re-resolved against the new hardware (consumed
    /// faults keep their history).
    ///
    /// # Errors
    ///
    /// Whatever [`crate::simulate`] would reject for the new pair —
    /// the repaired schedule must be valid on the repaired ADG.
    pub fn reprogram(
        &mut self,
        adg: Adg,
        schedule: Schedule,
        eval: Evaluation,
        config_path_len: u32,
    ) -> Result<(), SimError> {
        validate_schedule(&adg, &schedule)?;
        self.adg = adg;
        self.schedule = schedule;
        self.eval = eval;
        let problem = Problem::new(&self.adg, &self.kernel);
        self.stream_mems = self.schedule.stream_memories(&problem);
        self.ctrl = control_spec(&self.adg);
        let _ = config_path_len; // config-load charge is the orchestrator's
        let ctx = ctx!(self);
        self.core.rebind(ctx);
        for i in 0..self.faults.len() {
            if !self.faults[i].consumed {
                let timed = self.faults[i].timed;
                let first_effect = self.faults[i].first_effect;
                let mut re = self.resolve_fault(i, timed);
                re.first_effect = first_effect;
                self.faults[i] = re;
            }
        }
        Ok(())
    }

    /// Advances the simulation until it finishes or a fault is detected.
    /// A detected fault is consumed (it will not re-strike); the caller
    /// decides whether to repair/rollback before calling again.
    pub fn run_until_event(&mut self) -> StepOutcome {
        loop {
            if let Some(outcome) = self.step() {
                return outcome;
            }
        }
    }

    /// Advances the simulation by at most `cycles` wall cycles, stopping
    /// early on an event. Returns `None` if the budget elapsed with the
    /// run still in progress.
    pub fn run_for(&mut self, cycles: u64) -> Option<StepOutcome> {
        let until = self.core.wall().saturating_add(cycles);
        while self.core.wall() < until {
            if let Some(outcome) = self.step() {
                return Some(outcome);
            }
        }
        None
    }

    /// One engine tick plus detector/checkpoint bookkeeping. Returns
    /// `Some` when the run finished or a fault was detected.
    fn step(&mut self) -> Option<StepOutcome> {
        {
            // ---- effects for the cycle about to execute.
            let next_cycle = self.core.wall() + 1;
            for e in &mut self.effects {
                *e = Effect::Normal;
            }
            for t in &mut self.touched {
                *t = false;
            }
            for (fi, f) in self.faults.iter().enumerate() {
                if f.consumed || !f.timed.active_at(next_cycle) {
                    continue;
                }
                let effect = match f.timed.kind {
                    // A degraded link throttles: it still serves
                    // `capacity` percent of cycles and blocks the rest.
                    // Short blocked runs reset the watchdog, so mild
                    // degradation is a graceful slowdown, not a detection.
                    FaultKind::DegradedLink { capacity } => {
                        let cap = u64::from(capacity.clamp(1, 100));
                        if next_cycle % 100 < cap {
                            continue;
                        }
                        Effect::Blocked
                    }
                    k if is_blocking(k) => Effect::Blocked,
                    _ => Effect::Poisoned,
                };
                for &ri in &f.regions {
                    if !self.core.region_live(ctx!(self), ri) {
                        continue;
                    }
                    self.touched[fi] = true;
                    // Blocking dominates: a region both blocked and
                    // poisoned does not fire, hence cannot corrupt.
                    if self.effects[ri] != Effect::Blocked {
                        self.effects[ri] = effect;
                    }
                }
            }

            // ---- one engine tick.
            let ctx = ctx!(self);
            let tick = self.core.tick(ctx, &self.effects);
            match tick {
                Tick::Finished => {
                    // Final residue check: corruption at the very end of
                    // the run must not escape into "results delivered".
                    if let Some(fault) = self.residue_check() {
                        return Some(StepOutcome::Detected(Box::new(fault)));
                    }
                    return Some(StepOutcome::Finished);
                }
                Tick::GroupDone => return None,
                Tick::Cycle => {}
            }
            let wall = self.core.wall();

            // ---- firing-trace catch-up: the engine fires each region at
            // most once per cycle, so any firing-count growth this cycle
            // is attributed to the cycle just executed.
            if self.rt.record_traces {
                let gi = self.core.group_idx();
                let gc = self.core.group_cycle();
                for (ri, trace) in self.traces.iter_mut().enumerate() {
                    let fired = self.core.firings().get(ri).copied().unwrap_or(0) as usize;
                    while trace.len() < fired {
                        trace.push((gi, gc));
                    }
                }
            }

            // ---- detector bookkeeping.
            let mut detected: Option<usize> = None;
            for (fi, f) in self.faults.iter_mut().enumerate() {
                if f.consumed {
                    continue;
                }
                if self.touched[fi] {
                    if f.first_effect.is_none() {
                        f.first_effect = Some(wall);
                    }
                    if is_blocking(f.timed.kind) {
                        f.stall_run += 1;
                        if f.stall_run >= self.rt.watchdog_bound && detected.is_none() {
                            detected = Some(fi);
                        }
                    }
                } else if is_blocking(f.timed.kind) {
                    // Progress resumed (transient cleared / region moved
                    // on): the watchdog run restarts.
                    f.stall_run = 0;
                }
            }
            if let Some(fi) = detected {
                return Some(StepOutcome::Detected(Box::new(
                    self.consume(fi, Detector::Watchdog),
                )));
            }

            // ---- residue check: every cycle in eager mode, else at
            // interval boundaries (and once at run end, above).
            let residue_due = self.rt.residue_eager
                || (self.rt.residue_interval > 0 && wall.is_multiple_of(self.rt.residue_interval));
            if residue_due {
                if let Some(fault) = self.residue_check() {
                    return Some(StepOutcome::Detected(Box::new(fault)));
                }
            }

            // ---- periodic checkpoint ring.
            if self.rt.checkpoint_interval > 0
                && wall.is_multiple_of(self.rt.checkpoint_interval)
                && self.rt.checkpoint_ring > 0
            {
                if self.ring.len() == self.rt.checkpoint_ring {
                    self.ring.pop_front();
                }
                self.ring.push_back(self.checkpoint());
            }
        }
        None
    }

    /// Raises the poison fault with the earliest observed effect if any
    /// poisoned firings are accounted in the engine state.
    fn residue_check(&mut self) -> Option<RuntimeFault> {
        if self.core.poisoned_total() == 0 {
            return None;
        }
        let fi = self
            .faults
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                !f.consumed && !is_blocking(f.timed.kind) && f.first_effect.is_some()
            })
            .min_by_key(|(_, f)| f.first_effect)
            .map(|(i, _)| i)?;
        Some(self.consume(fi, Detector::Residue))
    }

    /// Marks fault `fi` consumed and assembles its detection record.
    fn consume(&mut self, fi: usize, detector: Detector) -> RuntimeFault {
        let wall = self.core.wall();
        let f = &mut self.faults[fi];
        f.consumed = true;
        RuntimeFault {
            fault_index: fi,
            kind: f.timed.kind,
            victim: f.victim,
            lifetime: f.timed.lifetime,
            arrival: f.timed.arrival,
            first_effect: f.first_effect,
            detected_at: wall,
            detector,
            regions: f.regions.clone(),
        }
    }

    /// The simulation report accumulated so far (final once
    /// [`StepOutcome::Finished`] has been returned).
    #[must_use]
    pub fn report(&self) -> SimReport {
        self.core.report(&self.kernel)
    }

    /// Full hardware counters for the run so far.
    #[must_use]
    pub fn telemetry(&self) -> SimTelemetry {
        self.core.telemetry(ctx!(self), &self.schedule)
    }

    /// Per-region firing traces — `(pipeline group, group-local cycle)`
    /// per completed firing — when [`RuntimeConfig::record_traces`] is on,
    /// `None` otherwise. Traces roll back with the engine state on
    /// restore, so after recovery they describe the surviving timeline.
    #[must_use]
    pub fn firing_traces(&self) -> Option<&[Vec<(usize, u64)>]> {
        self.rt.record_traces.then_some(self.traces.as_slice())
    }

    /// The currently-programmed schedule.
    #[must_use]
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The current hardware view (possibly repaired).
    #[must_use]
    pub fn adg(&self) -> &Adg {
        &self.adg
    }

    /// The current evaluation.
    #[must_use]
    pub fn eval(&self) -> &Evaluation {
        &self.eval
    }
}

/// Whether a fault kind stops data movement (watchdog-detectable) rather
/// than corrupting it silently. [`FaultKind::DegradedLink`] counts as
/// blocking for watchdog bookkeeping, but only blocks on the cycles the
/// link cannot serve (see the effect loop in `step`).
fn is_blocking(kind: FaultKind) -> bool {
    !matches!(kind, FaultKind::StuckSwitch | FaultKind::StuckLane)
}

/// Deterministically picks one element of an ordered set.
fn pick<T: Copy>(rng: &mut StdRng, set: &BTreeSet<T>) -> Option<T> {
    if set.is_empty() {
        return None;
    }
    let i = rng.gen_range(0..set.len());
    set.iter().nth(i).copied()
}

/// Region an entity belongs to.
fn entity_region(ent: &Entity) -> usize {
    match ent.kind {
        EntityKind::Op { region, .. }
        | EntityKind::InPort { region, .. }
        | EntityKind::OutPort { region, .. } => region,
    }
}

/// Region of the virtual edge `idx`'s source entity.
fn route_region(problem: &Problem<'_>, idx: usize) -> Option<usize> {
    problem
        .edges
        .get(idx)
        .and_then(|v| problem.entities.get(v.src))
        .map(entity_region)
}

#[cfg(test)]
mod tests {
    use dsagen_adg::presets;
    use dsagen_dfg::{
        compile_kernel, AffineExpr, KernelBuilder, MemClass, TransformConfig, TripCount,
    };
    use dsagen_scheduler::SchedulerConfig;

    use crate::tests::fresh;

    use super::*;
    use crate::{simulate, SimConfig};

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
        let s = fresh(&adg, &ck, &SchedulerConfig::default());
        assert!(s.is_legal(), "schedule: {:?}", s.eval);
        (adg, ck, s.schedule, s.eval)
    }

    fn runtime(
        adg: &Adg,
        ck: &CompiledKernel,
        sch: &Schedule,
        ev: &Evaluation,
        faults: &FaultSchedule,
    ) -> RuntimeSim {
        RuntimeSim::new(
            adg,
            ck,
            sch,
            ev,
            0,
            SimConfig::default(),
            RuntimeConfig::default(),
            faults,
        )
        .unwrap()
    }

    #[test]
    fn empty_schedule_matches_plain_simulation_exactly() {
        let (adg, ck, sch, ev) = fixture(1024);
        let plain = simulate(&adg, &ck, &sch, &ev, 0, &SimConfig::default()).unwrap();
        let mut sim = runtime(&adg, &ck, &sch, &ev, &FaultSchedule::new(1));
        assert_eq!(sim.run_until_event(), StepOutcome::Finished);
        assert_eq!(sim.report(), plain);
        assert_eq!(sim.pending_faults(), 0);
        assert_eq!(sim.poisoned_total(), 0);
    }

    #[test]
    fn blocking_fault_is_watchdog_detected_within_bound() {
        let (adg, ck, sch, ev) = fixture(4096);
        let faults =
            FaultSchedule::new(3).with(100, FaultLifetime::Permanent, FaultKind::DeadPe);
        let mut sim = runtime(&adg, &ck, &sch, &ev, &faults);
        match sim.run_until_event() {
            StepOutcome::Detected(f) => {
                assert_eq!(f.kind, FaultKind::DeadPe);
                assert_eq!(f.detector, Detector::Watchdog);
                assert!(matches!(f.victim, FaultTarget::Node(_)), "{f}");
                assert!(!f.regions.is_empty());
                assert!(
                    f.detection_latency() <= RuntimeConfig::default().watchdog_bound,
                    "latency {} exceeds bound",
                    f.detection_latency()
                );
                assert!(f.first_effect.is_some());
            }
            other => panic!("expected detection, got {other:?}"),
        }
        assert_eq!(sim.pending_faults(), 0, "detected fault is consumed");
    }

    #[test]
    fn poison_fault_is_residue_detected_within_interval() {
        let (adg, ck, sch, ev) = fixture(4096);
        let faults =
            FaultSchedule::new(9).with(100, FaultLifetime::Permanent, FaultKind::StuckSwitch);
        let mut sim = runtime(&adg, &ck, &sch, &ev, &faults);
        match sim.run_until_event() {
            StepOutcome::Detected(f) => {
                assert_eq!(f.kind, FaultKind::StuckSwitch);
                assert_eq!(f.detector, Detector::Residue);
                assert!(
                    f.detection_latency() <= RuntimeConfig::default().residue_interval,
                    "latency {} exceeds interval",
                    f.detection_latency()
                );
                assert!(sim.poisoned_total() > 0);
            }
            other => panic!("expected detection, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_to_uninterrupted_run() {
        let (adg, ck, sch, ev) = fixture(4096);
        let plain = simulate(&adg, &ck, &sch, &ev, 0, &SimConfig::default()).unwrap();
        let mut sim = runtime(&adg, &ck, &sch, &ev, &FaultSchedule::new(2));
        assert!(sim.run_for(500).is_none(), "run finished inside the pause budget");
        let ckpt = sim.checkpoint();
        assert_eq!(ckpt.wall(), sim.wall());
        assert_eq!(sim.run_until_event(), StepOutcome::Finished);
        let first = sim.report();
        sim.restore(&ckpt);
        assert_eq!(sim.wall(), ckpt.wall());
        assert_eq!(sim.run_until_event(), StepOutcome::Finished);
        let second = sim.report();
        assert_eq!(first, second, "resume diverged from its own first run");
        assert_eq!(first, plain, "resumed run diverged from uninterrupted run");
    }

    #[test]
    fn config_plane_kinds_are_rejected() {
        let (adg, ck, sch, ev) = fixture(256);
        let faults =
            FaultSchedule::new(1).with(10, FaultLifetime::Permanent, FaultKind::BitFlip);
        let err = RuntimeSim::new(
            &adg,
            &ck,
            &sch,
            &ev,
            0,
            SimConfig::default(),
            RuntimeConfig::default(),
            &faults,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                SimError::UnsupportedRuntimeFault {
                    kind: FaultKind::BitFlip
                }
            ),
            "unexpected error {err}"
        );
    }

    #[test]
    fn short_transient_clears_below_watchdog_bound() {
        let (adg, ck, sch, ev) = fixture(2048);
        let plain = simulate(&adg, &ck, &sch, &ev, 0, &SimConfig::default()).unwrap();
        // Eight blocked cycles — far below the 64-cycle watchdog bound —
        // must ride through undetected and still complete all work.
        let faults = FaultSchedule::new(5).with(
            100,
            FaultLifetime::Transient { duration: 8 },
            FaultKind::DeadPe,
        );
        let mut sim = runtime(&adg, &ck, &sch, &ev, &faults);
        assert_eq!(sim.run_until_event(), StepOutcome::Finished);
        assert_eq!(sim.pending_faults(), 1, "undetected fault stays pending");
        let report = sim.report();
        assert_eq!(report.firings, plain.firings, "all work still completes");
        assert!(report.cycles >= plain.cycles);
    }

    #[test]
    fn dead_port_is_watchdog_detected_with_edge_victim() {
        let (adg, ck, sch, ev) = fixture(4096);
        let faults =
            FaultSchedule::new(21).with(100, FaultLifetime::Permanent, FaultKind::DeadPort);
        let mut sim = runtime(&adg, &ck, &sch, &ev, &faults);
        match sim.run_until_event() {
            StepOutcome::Detected(f) => {
                assert_eq!(f.kind, FaultKind::DeadPort);
                assert_eq!(f.detector, Detector::Watchdog);
                assert!(matches!(f.victim, FaultTarget::Edge(_)), "{f}");
                assert!(
                    f.detection_latency() <= RuntimeConfig::default().watchdog_bound,
                    "latency {} exceeds bound",
                    f.detection_latency()
                );
            }
            other => panic!("expected detection, got {other:?}"),
        }
    }

    #[test]
    fn stuck_lane_is_residue_detected() {
        let (adg, ck, sch, ev) = fixture(4096);
        let faults =
            FaultSchedule::new(17).with(100, FaultLifetime::Permanent, FaultKind::StuckLane);
        let mut sim = runtime(&adg, &ck, &sch, &ev, &faults);
        match sim.run_until_event() {
            StepOutcome::Detected(f) => {
                assert_eq!(f.kind, FaultKind::StuckLane);
                assert_eq!(f.detector, Detector::Residue);
                assert!(matches!(f.victim, FaultTarget::Edge(_)), "{f}");
                assert!(
                    f.detection_latency() <= RuntimeConfig::default().residue_interval,
                    "latency {} exceeds interval",
                    f.detection_latency()
                );
                assert!(sim.poisoned_total() > 0);
            }
            other => panic!("expected detection, got {other:?}"),
        }
    }

    #[test]
    fn mildly_degraded_link_slows_the_run_without_detection() {
        let (adg, ck, sch, ev) = fixture(2048);
        let plain = simulate(&adg, &ck, &sch, &ev, 0, &SimConfig::default()).unwrap();
        // 60% capacity blocks runs of 40 consecutive cycles — below the
        // 64-cycle watchdog bound, so the run completes slower but clean.
        let faults = FaultSchedule::new(13).with(
            100,
            FaultLifetime::Permanent,
            FaultKind::DegradedLink { capacity: 60 },
        );
        let mut sim = runtime(&adg, &ck, &sch, &ev, &faults);
        assert_eq!(sim.run_until_event(), StepOutcome::Finished);
        let report = sim.report();
        assert_eq!(report.firings, plain.firings, "all work still completes");
        assert!(
            report.cycles >= plain.cycles,
            "throttled run cannot be faster: {} < {}",
            report.cycles,
            plain.cycles
        );
        assert_eq!(sim.poisoned_total(), 0, "throttling never corrupts");
    }

    #[test]
    fn severely_degraded_link_trips_the_watchdog() {
        let (adg, ck, sch, ev) = fixture(4096);
        // 10% capacity blocks runs of 90 consecutive cycles — past the
        // 64-cycle bound, so the watchdog reports it like a dead link.
        let faults = FaultSchedule::new(13).with(
            100,
            FaultLifetime::Permanent,
            FaultKind::DegradedLink { capacity: 10 },
        );
        let mut sim = runtime(&adg, &ck, &sch, &ev, &faults);
        match sim.run_until_event() {
            StepOutcome::Detected(f) => {
                assert!(matches!(f.kind, FaultKind::DegradedLink { capacity: 10 }), "{f}");
                assert_eq!(f.detector, Detector::Watchdog);
            }
            other => panic!("expected detection, got {other:?}"),
        }
    }

    #[test]
    fn eager_residue_detects_faster_and_within_the_documented_bound() {
        let (adg, ck, sch, ev) = fixture(4096);
        let faults =
            FaultSchedule::new(9).with(100, FaultLifetime::Permanent, FaultKind::StuckSwitch);
        let lat = |eager: bool| {
            let rt = RuntimeConfig {
                residue_eager: eager,
                ..RuntimeConfig::default()
            };
            let mut sim = RuntimeSim::new(
                &adg, &ck, &sch, &ev, 0, SimConfig::default(), rt, &faults,
            )
            .unwrap();
            match sim.run_until_event() {
                StepOutcome::Detected(f) => {
                    assert_eq!(f.detector, Detector::Residue);
                    f.detection_latency()
                }
                other => panic!("expected detection, got {other:?}"),
            }
        };
        let interval_latency = lat(false);
        let eager_latency = lat(true);
        // Regression: the documented bound holds in both modes, and eager
        // mode is never slower than interval mode.
        assert!(interval_latency <= RuntimeConfig::default().residue_interval);
        assert!(eager_latency <= interval_latency, "{eager_latency} > {interval_latency}");
        assert!(
            eager_latency <= 2,
            "eager residue must detect within a couple of cycles, got {eager_latency}"
        );
    }

    #[test]
    fn fault_display_names_detector_and_victim() {
        let (adg, ck, sch, ev) = fixture(4096);
        let faults =
            FaultSchedule::new(3).with(100, FaultLifetime::Permanent, FaultKind::DeadPe);
        let mut sim = runtime(&adg, &ck, &sch, &ev, &faults);
        let StepOutcome::Detected(f) = sim.run_until_event() else {
            panic!("expected detection");
        };
        let txt = f.to_string();
        assert!(txt.contains("dead-pe"), "{txt}");
        assert!(txt.contains("watchdog"), "{txt}");
        assert!(txt.contains("permanent"), "{txt}");
    }
}
