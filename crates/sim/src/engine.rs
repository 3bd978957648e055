//! The cycle-by-cycle execution engine.
//!
//! Each pipeline group of regions is simulated jointly: every cycle the
//! control core issues stream commands, the memories arbitrate line/bank
//! requests into port FIFOs, and each region's dataflow fabric fires when
//! its operands are buffered, its outputs have space, its initiation
//! interval has elapsed, and its recurrences allow.
//!
//! The engine is a **stateful, cloneable machine** ([`EngineCore`]) driven
//! one cycle at a time by [`EngineCore::tick`]. Every public entry point —
//! [`simulate`], [`simulate_instrumented`], and the runtime fault path in
//! [`crate::runtime`] — drives the *same* core, so a checkpointed-and-resumed
//! run is bit-identical to an uninterrupted one by construction:
//! checkpointing is just cloning the core.
//!
//! A cycle allocates nothing and visits each stream once. Every stream
//! carries a dense slot into its group's table of distinct memories, whose
//! per-cycle budgets live in one small vector kept at `1.0` between
//! cycles. One pass per region moves each stream's data (memory, forwarded
//! and control-core streams alike), folds the stream into the region's
//! operand / output-space / drain readiness, and then decides the region's
//! firing. A count of unfinished regions and a region→slot table make the
//! all-done check and [`EngineCore::region_live`] O(1).

use std::collections::BTreeMap;

use dsagen_adg::{Adg, CtrlSpec, NodeId, NodeKind};
use dsagen_dfg::{CompiledKernel, CompiledRegion, StreamDir, StreamSource};
use dsagen_scheduler::{Evaluation, Problem, Schedule};

use crate::telemetry::{RegionTally, SimTelemetry, StreamCounters};
use crate::{SimConfig, SimReport, StallBreakdown};

/// Cycles charged for each inter-group barrier + fence drain.
pub(crate) const BARRIER_CYCLES: u64 = 64;

/// Effective fraction of banks usable by random indirect traffic (expected
/// distinct banks hit by b uniform requests ≈ 1 − 1/e).
const BANK_EFFICIENCY: f64 = 0.65;

/// Fixed memory response latency before the first element of a stream
/// command lands in its port FIFO.
const MEM_LATENCY: u64 = 12;

/// Floating-point slack below which stream element counts are treated as
/// exhausted (fractional per-firing accounting leaves residues).
const EPS: f64 = 1e-6;

/// Where a stream's elements come from (reads) or go to (writes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Feed {
    /// Bound to `mem`; `slot` indexes the group's per-cycle budget table.
    Memory { mem: NodeId, slot: usize },
    /// Moves without memory involvement (forwarded between regions, or a
    /// memory stream the schedule left unbound).
    Forwarded,
    /// Served element by element by the control core.
    Control,
}

/// [`EngineCore::slot_of`] entry of a region outside the current group.
const NO_SLOT: usize = usize::MAX;

#[derive(Debug, Clone)]
struct StreamState {
    /// Elements still to deliver/drain across the whole region execution.
    remaining: f64,
    /// Elements buffered in the port FIFO (fabric side).
    fifo: f64,
    /// FIFO capacity in elements.
    fifo_cap: f64,
    /// Elements consumed (reads) / produced (writes) per firing.
    per_firing: f64,
    /// Elements left before the next re-issue pause.
    until_reissue: f64,
    /// Elements per command (re-issue granularity).
    per_command: f64,
    /// Whether the initial command has been issued and the memory latency
    /// elapsed.
    active_at: u64,
    /// Memory binding, forwarding, or control-core service.
    feed: Feed,
    /// Whether the stream pays per-element (strided/indirect) or per-line.
    elems_per_cycle: f64,
    /// Read (memory→fabric) or write.
    is_read: bool,
    // ---- hardware counters (always tallied; plain increments) ----
    /// Cycles in which the stream delivered at least one element.
    issued: u64,
    /// Cycles in which the stream wanted to move data but could not.
    stalled: u64,
    /// Highest FIFO occupancy observed.
    highwater: f64,
    /// Total elements moved.
    moved: f64,
}

#[derive(Debug, Clone)]
struct RegionState {
    firings_left: f64,
    next_fire: f64,
    ii: f64,
    rec_gate: f64,
    fired: u64,
    done_at: Option<u64>,
    streams: Vec<StreamState>,
    /// The region cannot complete before the control core has executed its
    /// scalar fallback work (1 op/cycle).
    ctrl_floor: u64,
    /// Exclusive per-cycle stall/fire tallies (hardware counters).
    tally: RegionTally,
}

/// Per-region fault effect for one upcoming cycle, resolved by the
/// runtime layer ([`crate::runtime`]). The plain entry points pass an
/// empty slice, which reads as [`Effect::Normal`] everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Effect {
    /// Healthy: the region fires under its normal gating.
    #[default]
    Normal,
    /// A blocking fault (dead PE, severed link) is active: the region's
    /// fabric cannot fire this cycle. Stream-side drain still proceeds.
    Blocked,
    /// A silent-corruption fault (stuck switch) is active: the region
    /// fires normally but every firing produces poisoned results.
    Poisoned,
}

/// What one [`EngineCore::tick`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tick {
    /// One cycle of the current pipeline group was executed.
    Cycle,
    /// The current group completed (or hit the cycle cap) and was
    /// harvested; the next group will initialize on the next tick.
    GroupDone,
    /// All groups are complete; the run is over.
    Finished,
}

/// Borrowed, schedule-derived context the engine steps against. Cheap to
/// construct (all references), so the runtime layer can rebuild it after a
/// repair changes the ADG/schedule without touching the [`EngineCore`].
#[derive(Clone, Copy)]
pub(crate) struct EngineCtx<'a> {
    pub(crate) adg: &'a Adg,
    pub(crate) kernel: &'a CompiledKernel,
    pub(crate) eval: &'a Evaluation,
    pub(crate) cfg: &'a SimConfig,
    pub(crate) stream_mems: &'a BTreeMap<(usize, bool, usize), NodeId>,
    pub(crate) ctrl: &'a CtrlSpec,
    pub(crate) groups: &'a [Vec<usize>],
}

/// Partitions a kernel's regions into pipeline groups (consecutive
/// regions linked by `pipelined_with_next` execute jointly).
pub(crate) fn pipeline_groups(kernel: &CompiledKernel) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut current = vec![0usize];
    for i in 0..kernel.regions.len().saturating_sub(1) {
        if kernel.regions[i].pipelined_with_next {
            current.push(i + 1);
        } else {
            groups.push(std::mem::take(&mut current));
            current = vec![i + 1];
        }
    }
    if !current.is_empty() {
        groups.push(current);
    }
    groups
}

/// Checks that `schedule` only references hardware that exists in `adg`
/// (and that the ADG can issue commands at all).
pub(crate) fn validate_schedule(adg: &Adg, schedule: &Schedule) -> Result<(), crate::SimError> {
    if adg.control().is_none() {
        return Err(crate::SimError::NoControlCore);
    }
    for (entity, placed) in schedule.placement.iter().enumerate() {
        if let Some(node) = placed {
            if adg.node(*node).is_none() {
                return Err(crate::SimError::MissingNode {
                    entity,
                    node: *node,
                });
            }
        }
    }
    for (route, path) in &schedule.routes {
        for eid in path {
            if adg.edge(*eid).is_none() {
                return Err(crate::SimError::MissingEdge {
                    route: *route,
                    edge: *eid,
                });
            }
        }
    }
    Ok(())
}

/// The cloneable machine state of one simulation: everything that evolves
/// cycle by cycle. Checkpointing the run is cloning this struct; resuming
/// is continuing to [`EngineCore::tick`] a clone.
#[derive(Debug, Clone)]
pub(crate) struct EngineCore {
    /// Index of the pipeline group currently executing.
    group_idx: usize,
    /// Cycle within the current group (the group-local timeline).
    cycle: u64,
    /// Cycles accumulated before the current group: configuration load,
    /// completed groups, and inter-group barriers.
    total_before: u64,
    /// Per-region state of the current group (None = initialize on the
    /// next tick).
    regions: Option<Vec<(usize, RegionState)>>,
    /// Index of each kernel region in `regions` ([`NO_SLOT`] outside the
    /// current group).
    slot_of: Vec<usize>,
    /// Regions of the current group that have not finished.
    unfinished: usize,
    /// Per-cycle budget of each distinct memory the current group's
    /// streams are bound to, indexed by their [`Feed::Memory`] slot. Every
    /// entry is `1.0` between cycles.
    mem_budget: Vec<f64>,
    region_cycles: Vec<u64>,
    firings: Vec<u64>,
    active_cycles: Vec<u64>,
    stalls: StallBreakdown,
    tallies: Vec<RegionTally>,
    stream_counters: Vec<StreamCounters>,
    group_cycles: Vec<u64>,
    config_cycles: u64,
    /// Poisoned firings per region (silent-corruption fault accounting;
    /// rolls back with the rest of the state on restore).
    pub(crate) poisoned: Vec<u64>,
}

impl EngineCore {
    pub(crate) fn new(n_regions: usize, config_path_len: u32) -> Self {
        let config_cycles = u64::from(config_path_len);
        EngineCore {
            group_idx: 0,
            cycle: 0,
            total_before: config_cycles,
            regions: None,
            slot_of: vec![NO_SLOT; n_regions],
            unfinished: 0,
            mem_budget: Vec::new(),
            region_cycles: vec![0; n_regions],
            firings: vec![0; n_regions],
            active_cycles: vec![0; n_regions],
            stalls: StallBreakdown::default(),
            tallies: vec![RegionTally::default(); n_regions],
            stream_counters: Vec::new(),
            group_cycles: Vec::new(),
            config_cycles,
            poisoned: vec![0; n_regions],
        }
    }

    /// The global simulated cycle: config load + completed groups +
    /// barriers + the current group-local cycle.
    pub(crate) fn wall(&self) -> u64 {
        self.total_before + self.cycle
    }

    /// Whether a region can still be affected by a fabric fault right now:
    /// it is part of the currently-executing group, not done, and still has
    /// firings to execute.
    pub(crate) fn region_live(&self, ctx: EngineCtx<'_>, ri: usize) -> bool {
        match &self.regions {
            // Group not initialized yet: its regions will run, so are live.
            None => ctx
                .groups
                .get(self.group_idx)
                .is_some_and(|g| g.contains(&ri)),
            Some(regions) => self
                .slot_of
                .get(ri)
                .and_then(|&slot| regions.get(slot))
                .is_some_and(|(_, rs)| rs.done_at.is_none() && rs.firings_left > 0.0),
        }
    }

    /// Advances the machine by (at most) one cycle.
    pub(crate) fn tick(&mut self, ctx: EngineCtx<'_>, effects: &[Effect]) -> Tick {
        if self.group_idx >= ctx.groups.len() {
            return Tick::Finished;
        }
        if self.regions.is_none() {
            self.init_group(ctx);
        }
        if self.unfinished == 0 || self.cycle >= ctx.cfg.max_cycles {
            self.finish_group(ctx);
            return if self.group_idx >= ctx.groups.len() {
                Tick::Finished
            } else {
                Tick::GroupDone
            };
        }
        self.cycle += 1;
        self.step_cycle(effects);
        Tick::Cycle
    }

    /// Rebuilds the indices derived from the current group's region state:
    /// the region→slot table, the unfinished count, and each memory
    /// stream's slot among the group's distinct memories (first-bound
    /// order) with a budget table to match. Runs once per group, rebind
    /// and splice — never per cycle.
    fn index_group(&mut self) {
        self.slot_of.fill(NO_SLOT);
        self.unfinished = 0;
        let mut mems: Vec<NodeId> = Vec::new();
        for (at, (ri, rs)) in self.regions.iter_mut().flatten().enumerate() {
            if let Some(entry) = self.slot_of.get_mut(*ri) {
                *entry = at;
            }
            if rs.done_at.is_none() {
                self.unfinished += 1;
            }
            for s in &mut rs.streams {
                if let Feed::Memory { mem, slot } = &mut s.feed {
                    *slot = mems.iter().position(|m| m == mem).unwrap_or_else(|| {
                        mems.push(*mem);
                        mems.len() - 1
                    });
                }
            }
        }
        self.mem_budget.clear();
        self.mem_budget.resize(mems.len(), 1.0);
    }

    /// Builds the per-region state of the current group and issues every
    /// stream command (the control core issues them one at a time).
    fn init_group(&mut self, ctx: EngineCtx<'_>) {
        let group = &ctx.groups[self.group_idx];
        let mut regions: Vec<(usize, RegionState)> = group
            .iter()
            .map(|&ri| {
                (
                    ri,
                    region_state(
                        ctx.adg,
                        &ctx.kernel.regions[ri],
                        ctx.eval.regions.get(ri),
                        ri,
                        ctx.stream_mems,
                    ),
                )
            })
            .collect();
        let mut issue_cursor = 0u64;
        for (_, rs) in regions.iter_mut() {
            for s in rs.streams.iter_mut() {
                issue_cursor += u64::from(ctx.ctrl.command_issue_cycles);
                s.active_at = issue_cursor + MEM_LATENCY;
            }
        }
        self.cycle = 0;
        self.regions = Some(regions);
        self.index_group();
    }

    /// Harvests the finished (or capped) group and advances to the next.
    fn finish_group(&mut self, ctx: EngineCtx<'_>) {
        let gi = self.group_idx;
        let cycle = self.cycle;
        if let Some(regions) = self.regions.take() {
            for (ri, rs) in &regions {
                if rs.done_at.is_none() {
                    self.region_cycles[*ri] = cycle;
                }
            }
            for (ri, rs) in regions {
                self.tallies[ri] = rs.tally;
                self.tallies[ri].group = gi;
                for (si, s) in rs.streams.into_iter().enumerate() {
                    self.stream_counters.push(StreamCounters {
                        region: ri,
                        index: si,
                        is_read: s.is_read,
                        ctrl_fed: s.feed == Feed::Control,
                        issued: s.issued,
                        stalled: s.stalled,
                        elems: s.moved,
                        fifo_highwater: s.highwater,
                        fifo_cap: s.fifo_cap,
                    });
                }
            }
        }
        self.group_cycles.push(cycle);
        self.total_before += cycle;
        if gi + 1 < ctx.groups.len() {
            self.total_before += BARRIER_CYCLES; // barrier + fence drain
        }
        self.group_idx += 1;
        self.cycle = 0;
    }

    /// One cycle of the current group — memory arbitration, forwarding and
    /// control-core delivery, then fabric firing — with per-region fault
    /// `effects` overlaid (empty slice = fault-free). One pass per region:
    /// its streams move and fold into its readiness, then it fires or
    /// stalls. Regions share only the memory budgets (arbitrated in region
    /// then stream order, as if every stream moved before any region fired)
    /// and integer stall counters, and a firing touches only its own
    /// region's FIFOs, so interleaving regions this way changes nothing.
    fn step_cycle(&mut self, effects: &[Effect]) {
        let cycle = self.cycle;
        let Some(regions) = self.regions.as_mut() else {
            return;
        };
        for (ri, rs) in regions.iter_mut() {
            let mut inputs_ready = true;
            let mut outputs_ready = true;
            let mut drained = true;
            for s in &mut rs.streams {
                if s.remaining > EPS && cycle >= s.active_at {
                    s.transfer(&mut self.mem_budget, &mut self.stalls);
                }
                // Operand availability, output space, and drain state.
                // A write FIFO may hold a sub-element residue when the
                // rounded firing count slightly over-produces; tolerate it.
                if s.is_read {
                    inputs_ready &= s.fifo + 1e-9 >= s.firing_need();
                } else {
                    outputs_ready &= s.fifo_cap - s.fifo + 1e-9 >= s.per_firing;
                    drained &= s.remaining <= EPS && s.fifo <= 0.01;
                }
            }

            // ---- fabric firing.
            if rs.done_at.is_some() {
                continue;
            }
            if rs.firings_left <= 0.0 {
                // Drain: done once write streams are empty and the control
                // core has retired its scalar fallback work.
                if drained && cycle >= rs.ctrl_floor {
                    rs.done_at = Some(cycle);
                    self.region_cycles[*ri] = cycle;
                    self.unfinished -= 1;
                }
                continue;
            }
            let effect = effects.get(*ri).copied().unwrap_or(Effect::Normal);
            if effect == Effect::Blocked {
                // A blocking fault holds the fabric: no firing, no II
                // progress. The progress watchdog in `runtime` observes
                // exactly these cycles.
                continue;
            }
            if (cycle as f64) < rs.next_fire {
                self.stalls.ii += 1;
                rs.tally.ii += 1;
                continue;
            }
            if !inputs_ready {
                self.stalls.operands += 1;
                rs.tally.operands += 1;
                continue;
            }
            if !outputs_ready {
                self.stalls.backpressure += 1;
                rs.tally.backpressure += 1;
                continue;
            }
            // Fire one instance.
            for s in &mut rs.streams {
                if s.is_read {
                    let need = s.firing_need();
                    s.fifo = (s.fifo - need).max(0.0);
                } else {
                    s.fifo += s.per_firing;
                    if s.fifo > s.highwater {
                        s.highwater = s.fifo;
                    }
                }
            }
            rs.firings_left -= 1.0;
            rs.fired += 1;
            rs.tally.fired_cycles += 1;
            self.firings[*ri] += 1;
            self.active_cycles[*ri] += 1;
            rs.next_fire = cycle as f64 + rs.ii.max(rs.rec_gate);
            if effect == Effect::Poisoned {
                // The firing happened, but a stuck switch delivered wrong
                // operands: the produced results are corrupt. The residue
                // checker in `runtime` observes this counter.
                self.poisoned[*ri] += 1;
            }
        }
        self.mem_budget.fill(1.0);
    }

    /// Rebinds the schedule-derived fields of the current group's state to
    /// a new context (after a repair changed the ADG/schedule/eval):
    /// memory bindings, service rates, initiation interval, and recurrence
    /// gate are refreshed; all dynamic progress (remaining elements, FIFO
    /// contents, completed firings, counters) is preserved.
    pub(crate) fn rebind(&mut self, ctx: EngineCtx<'_>) {
        let Some(regions) = self.regions.as_mut() else {
            return;
        };
        for (ri, rs) in regions.iter_mut() {
            let fresh = region_state(
                ctx.adg,
                &ctx.kernel.regions[*ri],
                ctx.eval.regions.get(*ri),
                *ri,
                ctx.stream_mems,
            );
            rs.ii = fresh.ii;
            rs.rec_gate = fresh.rec_gate;
            for (s, fs) in rs.streams.iter_mut().zip(fresh.streams) {
                s.feed = fs.feed;
                s.elems_per_cycle = fs.elems_per_cycle;
            }
        }
        self.index_group();
    }

    /// Total poisoned firings currently accounted (rolls back with the
    /// core on restore).
    pub(crate) fn poisoned_total(&self) -> u64 {
        self.poisoned.iter().sum()
    }

    /// Index of the pipeline group currently executing.
    pub(crate) fn group_idx(&self) -> usize {
        self.group_idx
    }

    /// The group-local cycle of the current group.
    pub(crate) fn group_cycle(&self) -> u64 {
        self.cycle
    }

    /// Rewinds only `regions` to their state in `from`, leaving every other
    /// region's progress (and the wall clock) untouched. Both cores must be
    /// inside the same pipeline group with initialized region state — the
    /// group-local timeline is the shared frame of reference that makes a
    /// per-region splice meaningful. Returns false (and changes nothing)
    /// when that precondition fails.
    pub(crate) fn splice_regions_from(&mut self, from: &EngineCore, regions: &[usize]) -> bool {
        if self.group_idx != from.group_idx {
            return false;
        }
        let (Some(cur), Some(old)) = (self.regions.as_ref(), from.regions.as_ref()) else {
            return false;
        };
        if cur.len() != old.len() || cur.iter().map(|(i, _)| i).ne(old.iter().map(|(i, _)| i)) {
            return false;
        }
        let spliced: Vec<(usize, RegionState)> = cur
            .iter()
            .zip(old)
            .map(|((ri, rs), (_, old_rs))| {
                let rs = if regions.contains(ri) { old_rs } else { rs };
                (*ri, rs.clone())
            })
            .collect();
        self.regions = Some(spliced);
        // The spliced regions' memory slots index `from`'s memory table.
        self.index_group();
        for &ri in regions {
            if ri < self.firings.len() {
                self.firings[ri] = from.firings[ri];
                self.poisoned[ri] = from.poisoned[ri];
                self.region_cycles[ri] = from.region_cycles[ri];
                self.active_cycles[ri] = from.active_cycles[ri];
                self.tallies[ri] = from.tallies[ri];
            }
        }
        true
    }

    /// Completed firings per region so far.
    pub(crate) fn firings(&self) -> &[u64] {
        &self.firings
    }

    /// Assembles the public report from the accumulated state. Valid once
    /// [`Tick::Finished`] has been returned (calling earlier yields a
    /// partial view).
    pub(crate) fn report(&self, kernel: &CompiledKernel) -> SimReport {
        let total_cycles = self.wall();
        let total_insts: f64 = kernel
            .regions
            .iter()
            .map(|r| r.dfg.inst_count() as f64 * r.instances)
            .sum();
        SimReport {
            cycles: total_cycles,
            region_cycles: self.region_cycles.clone(),
            firings: self.firings.clone(),
            active_cycles: self.active_cycles.clone(),
            ipc: total_insts / total_cycles.max(1) as f64,
            stalls: self.stalls,
        }
    }

    /// Joins the engine's raw tallies against the schedule's placement to
    /// produce per-PE counters that satisfy the conservation laws
    /// documented in [`crate::telemetry`].
    pub(crate) fn telemetry(&self, ctx: EngineCtx<'_>, schedule: &Schedule) -> SimTelemetry {
        let problem = Problem::new(ctx.adg, ctx.kernel);
        let report = self.report(ctx.kernel);
        let barrier_cycles = BARRIER_CYCLES * (ctx.groups.len() as u64).saturating_sub(1);
        crate::telemetry::attribute(
            ctx.adg,
            schedule,
            &problem,
            &report,
            &self.tallies,
            self.stream_counters.clone(),
            self.group_cycles.clone(),
            self.config_cycles,
            barrier_cycles,
        )
    }
}

/// Runs a pre-validated simulation to completion on a fresh core and
/// returns the report plus hardware counters. This is the single code path
/// behind every public entry point.
fn run_to_completion(
    adg: &Adg,
    kernel: &CompiledKernel,
    schedule: &Schedule,
    eval: &Evaluation,
    config_path_len: u32,
    cfg: &SimConfig,
    tel: &dsagen_telemetry::Telemetry,
) -> (SimReport, SimTelemetry) {
    let problem = Problem::new(adg, kernel);
    let stream_mems = schedule.stream_memories(&problem);
    let ctrl = control_spec(adg);
    let groups = pipeline_groups(kernel);
    let ctx = EngineCtx {
        adg,
        kernel,
        eval,
        cfg,
        stream_mems: &stream_mems,
        ctrl: &ctrl,
        groups: &groups,
    };
    let mut core = EngineCore::new(kernel.regions.len(), config_path_len);
    // The tick loop is the simulator's hot path: count iterations in a
    // plain local and flush metrics once after the run, so an enabled
    // registry costs nothing per tick.
    let mut tick_span = tel.span("sim", "tick_loop");
    let mut ticks: u64 = 0;
    while core.tick(ctx, &[]) != Tick::Finished {
        ticks += 1;
    }
    let report = core.report(kernel);
    let telemetry = core.telemetry(ctx, schedule);
    tick_span.arg("ticks", ticks);
    tick_span.arg("cycles", report.cycles);
    tick_span.end();
    flush_engine_metrics(tel, ticks, &report, groups.len() as u64);
    (report, telemetry)
}

/// One post-run flush of engine counters into the metrics registry. The
/// tick loop itself never touches the registry; this keeps the enabled
/// cost to a handful of map operations per simulation.
fn flush_engine_metrics(
    tel: &dsagen_telemetry::Telemetry,
    ticks: u64,
    report: &SimReport,
    groups: u64,
) {
    let m = tel.metrics();
    if !m.is_enabled() {
        return;
    }
    m.add("sim.engine.runs", 1);
    m.add("sim.engine.ticks", ticks);
    m.add("sim.engine.cycles", report.cycles);
    m.add("sim.engine.pipeline_groups", groups);
    m.observe("sim.engine.cycles_per_run", report.cycles);
}

/// Simulates one kernel version end to end, after checking that the
/// schedule only references hardware that still exists in `adg`.
///
/// A schedule minted against a healthy graph and then run against a
/// fault-degraded one (dead PE, severed link) fails with a typed
/// [`SimError`](crate::SimError) instead of producing nonsense or
/// panicking deep inside the engine, so a stale schedule is an ordinary
/// recoverable condition for the caller.
///
/// # Errors
///
/// * [`SimError::NoControlCore`](crate::SimError::NoControlCore) — the ADG
///   has no control core to issue stream commands;
/// * [`SimError::MissingNode`](crate::SimError::MissingNode) — a placement
///   references a node absent from the ADG (for example a dead PE);
/// * [`SimError::MissingEdge`](crate::SimError::MissingEdge) — a route
///   references an edge absent from the ADG (for example a severed link).
pub fn simulate(
    adg: &Adg,
    kernel: &CompiledKernel,
    schedule: &Schedule,
    eval: &Evaluation,
    config_path_len: u32,
    cfg: &SimConfig,
) -> Result<SimReport, crate::SimError> {
    validate_schedule(adg, schedule)?;
    let tel = dsagen_telemetry::Telemetry::disabled();
    Ok(run_to_completion(adg, kernel, schedule, eval, config_path_len, cfg, &tel).0)
}

/// [`simulate`] plus full hardware counters, with telemetry events for
/// the run emitted into `tel` (a span covering the engine, per-PE /
/// per-stream counter instants, and a summary). The returned
/// [`SimReport`] is **bit-identical** to what [`simulate`] produces for
/// the same inputs — instrumentation never perturbs the simulation.
///
/// A failed run ends the telemetry span with the error before returning
/// it, so traces stay well-formed even on the error path.
///
/// # Errors
///
/// If the schedule references hardware absent from `adg` (see
/// [`simulate`]).
pub fn simulate_instrumented(
    adg: &Adg,
    kernel: &CompiledKernel,
    schedule: &Schedule,
    eval: &Evaluation,
    config_path_len: u32,
    cfg: &SimConfig,
    tel: &dsagen_telemetry::Telemetry,
) -> Result<(SimReport, SimTelemetry), crate::SimError> {
    let mut span = tel.span("phase", "simulate");
    if let Err(e) = validate_schedule(adg, schedule) {
        span.arg("error", e.to_string());
        span.end();
        tel.recorder()
            .record("sim", || ("sim_error".to_string(), format!("error={e}")));
        let _ = tel.recorder().dump_on_error("sim_error");
        return Err(e);
    }
    let (report, telemetry) =
        run_to_completion(adg, kernel, schedule, eval, config_path_len, cfg, tel);
    span.arg("cycles", report.cycles);
    span.arg("pes", telemetry.pes.len());
    span.arg("streams", telemetry.streams.len());
    span.end();
    telemetry.emit(tel);
    Ok((report, telemetry))
}

impl StreamState {
    /// Elements a firing needs from this stream right now: the nominal
    /// per-firing amount, capped by what the stream can still supply (so a
    /// fractional final firing does not deadlock on residue).
    fn firing_need(&self) -> f64 {
        self.per_firing.min(self.fifo + self.remaining)
    }

    /// This cycle's data movement of an active stream. Reads only fill
    /// available FIFO space and writes only drain what the fabric
    /// produced. A memory serves one line request (or a bank-parallel
    /// gather batch) per cycle, first come first served in region then
    /// stream order; forwarded streams move without memory involvement;
    /// control-core streams move at the scalar rate (their
    /// `elems_per_cycle` was derived from the region's total control
    /// work).
    fn transfer(&mut self, mem_budget: &mut [f64], stalls: &mut StallBreakdown) {
        let amount = self
            .remaining
            .min(self.elems_per_cycle)
            .min(if self.is_read {
                (self.fifo_cap - self.fifo).max(0.0)
            } else {
                self.fifo
            });
        match self.feed {
            Feed::Memory { slot, .. } => {
                let budget = &mut mem_budget[slot];
                if *budget <= 0.0 {
                    stalls.memory += 1;
                    self.stalled += 1; // lost memory-port arbitration
                } else if amount > 0.0 {
                    *budget -= 1.0;
                    deliver(self, amount);
                } else {
                    self.stalled += 1; // port FIFO full (read) / empty (write)
                }
            }
            _ if amount > 0.0 => deliver(self, amount),
            Feed::Forwarded => self.stalled += 1, // blocked on the fabric-side FIFO
            Feed::Control => {
                stalls.ctrl += 1;
                self.stalled += 1; // control core could not feed
            }
        }
    }
}

fn deliver(s: &mut StreamState, amount: f64) {
    s.issued += 1;
    s.moved += amount;
    if s.is_read {
        s.fifo = (s.fifo + amount).min(s.fifo_cap);
        if s.fifo > s.highwater {
            s.highwater = s.fifo;
        }
    } else {
        s.fifo = (s.fifo - amount).max(0.0);
    }
    s.remaining -= amount;
    if s.remaining <= EPS {
        s.remaining = 0.0;
    }
    if s.fifo <= EPS {
        s.fifo = 0.0;
    }
    s.until_reissue -= amount;
    if s.until_reissue <= EPS && s.remaining > EPS {
        // Re-issue pause: the next command's latency applies. This is where
        // command-heavy patterns (many short streams) lose time that the
        // analytical model's max() formulation partially hides (§VIII-B:
        // the model "does not yet capture the performance impact of
        // excessive control instructions").
        s.until_reissue = s.per_command;
        s.active_at += MEM_LATENCY / 2;
    }
}

fn region_state(
    adg: &Adg,
    region: &CompiledRegion,
    eval: Option<&dsagen_scheduler::RegionEval>,
    ri: usize,
    stream_mems: &BTreeMap<(usize, bool, usize), NodeId>,
) -> RegionState {
    let instances = region.instances.max(1.0);
    let (ii, mismatch, rec_lats) = match eval {
        Some(e) => (e.max_ii, e.mismatch_excess, e.recurrence_latencies.clone()),
        None => (1.0, 0.0, vec![]),
    };
    let rec_gate = region
        .dfg
        .recurrences()
        .iter()
        .zip(rec_lats.iter().chain(std::iter::repeat(&1.0)))
        .map(|(rec, lat)| lat / rec.independent_chains.max(1.0))
        .fold(1.0, f64::max);

    let mut streams = Vec::new();
    for (is_input, s) in region
        .in_streams
        .iter()
        .map(|s| (true, s))
        .chain(region.out_streams.iter().map(|s| (false, s)))
    {
        if !s.to_fabric && is_input {
            // Index streams are folded into their memory's budget via the
            // data stream's per-element service; skip explicit state.
            continue;
        }
        let total = s.pattern.total_elems();
        let mem = stream_mems.get(&(ri, is_input, s.port)).copied();
        let feed = match (&s.source, mem) {
            (StreamSource::ControlCore, _) => Feed::Control,
            // The slot is assigned once the whole group is known.
            (StreamSource::Memory(_), Some(mem)) => Feed::Memory { mem, slot: 0 },
            _ => Feed::Forwarded,
        };
        let elems_per_cycle = match (&s.source, mem) {
            (StreamSource::ControlCore, _) => {
                // The core spreads its scalar work across the elements it
                // must feed: total elements / total scalar ops.
                (total / region.ctrl_ops.max(1.0)).clamp(1e-6, 1.0)
            }
            (StreamSource::Memory(_), Some(m)) => {
                if s.pattern.indirect || s.dir == StreamDir::AtomicUpdate {
                    indirect_rate(adg, m)
                } else if s.pattern.stride_bytes.unsigned_abs() as u32 == s.elem_bytes
                    || mem_coalesces(adg, m)
                {
                    64.0 / f64::from(s.elem_bytes) // one line per cycle
                } else if s.pattern.stride_bytes == 0 {
                    f64::from(s.lanes.max(1)) * 4.0
                } else {
                    // Strided: one lane-group request per cycle (the
                    // group's lanes are consecutive elements).
                    f64::from(s.lanes.max(1))
                }
            }
            _ => f64::from(s.lanes.max(1)) * 2.0,
        };
        streams.push(StreamState {
            remaining: total,
            fifo: 0.0,
            fifo_cap: (f64::from(s.lanes.max(1)) * 16.0).max(16.0),
            per_firing: total / instances,
            until_reissue: s.pattern.elems_per_command,
            per_command: s.pattern.elems_per_command,
            active_at: 0,
            feed,
            elems_per_cycle,
            is_read: is_input,
            issued: 0,
            stalled: 0,
            highwater: 0.0,
            moved: 0.0,
        });
    }

    RegionState {
        firings_left: instances.round(),
        next_fire: 0.0,
        ii: (ii + mismatch).max(1.0),
        rec_gate,
        fired: 0,
        done_at: None,
        streams,
        ctrl_floor: region.ctrl_ops.ceil() as u64,
        tally: RegionTally::default(),
    }
}

/// Refines the bank-parallel service rate for indirect streams using the
/// bound memory's actual bank count.
pub(crate) fn indirect_rate(adg: &Adg, mem: NodeId) -> f64 {
    match adg.kind(mem) {
        Ok(NodeKind::Memory(spec)) => f64::from(spec.banks.max(1)) * BANK_EFFICIENCY,
        _ => 1.0,
    }
}

/// Whether a memory's controller coalesces strided requests.
fn mem_coalesces(adg: &Adg, mem: NodeId) -> bool {
    matches!(adg.kind(mem), Ok(NodeKind::Memory(spec)) if spec.controllers.coalescing)
}

pub(crate) fn control_spec(adg: &Adg) -> CtrlSpec {
    adg.control()
        .and_then(|c| match adg.kind(c) {
            Ok(NodeKind::Control(spec)) => Some(*spec),
            _ => None,
        })
        .unwrap_or_default()
}

/// The engine's previous cycle loop, kept as the oracle the lockstep test
/// steps beside [`EngineCore::tick`]: a scan for the all-done check, a
/// per-cycle `HashMap` of memory budgets keyed by node, three passes over
/// every stream, and a scan per [`EngineCore::region_live`] query. Its
/// only change is keeping [`EngineCore::unfinished`] current, so the two
/// cores' states stay comparable field for field.
#[cfg(test)]
mod reference {
    use std::collections::HashMap;

    use super::*;

    pub(super) fn region_live(core: &EngineCore, ctx: EngineCtx<'_>, ri: usize) -> bool {
        if core.group_idx >= ctx.groups.len() || !ctx.groups[core.group_idx].contains(&ri) {
            return false;
        }
        match &core.regions {
            // Group not initialized yet: it will run, so the region is live.
            None => true,
            Some(regions) => regions
                .iter()
                .find(|(i, _)| *i == ri)
                .is_some_and(|(_, rs)| rs.done_at.is_none() && rs.firings_left > 0.0),
        }
    }

    pub(super) fn tick(core: &mut EngineCore, ctx: EngineCtx<'_>, effects: &[Effect]) -> Tick {
        if core.group_idx >= ctx.groups.len() {
            return Tick::Finished;
        }
        if core.regions.is_none() {
            core.init_group(ctx);
        }
        let all_done = core
            .regions
            .as_ref()
            .is_some_and(|rs| rs.iter().all(|(_, r)| r.done_at.is_some()));
        if all_done || core.cycle >= ctx.cfg.max_cycles {
            core.finish_group(ctx);
            return if core.group_idx >= ctx.groups.len() {
                Tick::Finished
            } else {
                Tick::GroupDone
            };
        }
        core.cycle += 1;
        step_cycle(core, effects);
        Tick::Cycle
    }

    fn step_cycle(core: &mut EngineCore, effects: &[Effect]) {
        let cycle = core.cycle;
        let Some(regions) = core.regions.as_mut() else {
            return;
        };

        // ---- memory arbitration: each memory serves one line request (or
        // a bank-parallel gather batch) per cycle, round-robin over the
        // streams bound to it.
        let mut mem_budget: HashMap<NodeId, f64> = HashMap::new();
        for (_, rs) in regions.iter_mut() {
            for s in rs.streams.iter_mut() {
                if s.remaining <= EPS || cycle < s.active_at {
                    continue;
                }
                let Feed::Memory { mem, .. } = s.feed else {
                    // Forwarded streams move without memory involvement,
                    // but writes can only drain what the fabric produced
                    // and reads only fill available FIFO space.
                    if s.feed != Feed::Control {
                        let amount = s.remaining.min(s.elems_per_cycle).min(if s.is_read {
                            (s.fifo_cap - s.fifo).max(0.0)
                        } else {
                            s.fifo
                        });
                        if amount > 0.0 {
                            deliver(s, amount);
                        } else {
                            s.stalled += 1; // blocked on the fabric-side FIFO
                        }
                    }
                    continue;
                };
                let budget = mem_budget.entry(mem).or_insert(1.0);
                if *budget <= 0.0 {
                    core.stalls.memory += 1;
                    s.stalled += 1; // lost memory-port arbitration
                    continue;
                }
                let amount = s.remaining.min(s.elems_per_cycle).min(if s.is_read {
                    (s.fifo_cap - s.fifo).max(0.0)
                } else {
                    s.fifo // writes drain what the fabric produced
                });
                if amount > 0.0 {
                    *budget -= 1.0;
                    deliver(s, amount);
                } else {
                    s.stalled += 1; // port FIFO full (read) / empty (write)
                }
            }
        }

        // ---- control core: scalar fallback work feeds ControlCore
        // streams at the scalar rate (their `elems_per_cycle` was derived
        // from the region's total control work).
        for (_, rs) in regions.iter_mut() {
            for s in rs.streams.iter_mut() {
                if s.feed == Feed::Control && s.remaining > EPS && cycle >= s.active_at {
                    let amount = s.remaining.min(s.elems_per_cycle).min(if s.is_read {
                        (s.fifo_cap - s.fifo).max(0.0)
                    } else {
                        s.fifo
                    });
                    if amount > 0.0 {
                        deliver(s, amount);
                    } else {
                        core.stalls.ctrl += 1;
                        s.stalled += 1; // control core could not feed
                    }
                }
            }
        }

        // ---- fabric firing.
        for (ri, rs) in regions.iter_mut() {
            if rs.done_at.is_some() {
                continue;
            }
            if rs.firings_left <= 0.0 {
                // Drain: done once write streams are empty and the control
                // core has retired its scalar fallback work.
                // A write FIFO may hold a sub-element residue when the
                // rounded firing count slightly over-produces; tolerate it.
                let drained = rs
                    .streams
                    .iter()
                    .all(|s| s.is_read || (s.remaining <= EPS && s.fifo <= 0.01));
                if drained && cycle >= rs.ctrl_floor {
                    rs.done_at = Some(cycle);
                    core.region_cycles[*ri] = cycle;
                    core.unfinished -= 1;
                }
                continue;
            }
            let effect = effects.get(*ri).copied().unwrap_or(Effect::Normal);
            if effect == Effect::Blocked {
                // A blocking fault holds the fabric: no firing, no II
                // progress. The progress watchdog in `runtime` observes
                // exactly these cycles.
                continue;
            }
            if (cycle as f64) < rs.next_fire {
                core.stalls.ii += 1;
                rs.tally.ii += 1;
                continue;
            }
            // Operand availability & output space.
            let inputs_ready = rs
                .streams
                .iter()
                .filter(|s| s.is_read)
                .all(|s| s.fifo + 1e-9 >= s.firing_need());
            let outputs_ready = rs
                .streams
                .iter()
                .filter(|s| !s.is_read)
                .all(|s| s.fifo_cap - s.fifo + 1e-9 >= s.per_firing);
            if !inputs_ready {
                core.stalls.operands += 1;
                rs.tally.operands += 1;
                continue;
            }
            if !outputs_ready {
                core.stalls.backpressure += 1;
                rs.tally.backpressure += 1;
                continue;
            }
            // Fire one instance.
            for s in rs.streams.iter_mut() {
                if s.is_read {
                    let need = s.firing_need();
                    s.fifo = (s.fifo - need).max(0.0);
                } else {
                    s.fifo += s.per_firing;
                    if s.fifo > s.highwater {
                        s.highwater = s.fifo;
                    }
                }
            }
            rs.firings_left -= 1.0;
            rs.fired += 1;
            rs.tally.fired_cycles += 1;
            core.firings[*ri] += 1;
            core.active_cycles[*ri] += 1;
            rs.next_fire = cycle as f64 + rs.ii.max(rs.rec_gate);
            if effect == Effect::Poisoned {
                // The firing happened, but a stuck switch delivered wrong
                // operands: the produced results are corrupt. The residue
                // checker in `runtime` observes this counter.
                core.poisoned[*ri] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use dsagen_adg::presets;
    use dsagen_dfg::{compile_kernel, enumerate_configs, TransformConfig};
    use dsagen_scheduler::{schedule, EntityKind, ScheduleResult, SchedulerConfig, Start};
    use dsagen_telemetry::Telemetry;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::tests::fresh;

    /// A hardware view plus what `run_to_completion` derives from it.
    struct Mapping {
        adg: Adg,
        eval: Evaluation,
        stream_mems: BTreeMap<(usize, bool, usize), NodeId>,
        ctrl: CtrlSpec,
    }

    impl Mapping {
        fn new(adg: Adg, kernel: &CompiledKernel, result: ScheduleResult) -> Self {
            let stream_mems = result.schedule.stream_memories(&Problem::new(&adg, kernel));
            let ctrl = control_spec(&adg);
            Mapping {
                adg,
                eval: result.eval,
                stream_mems,
                ctrl,
            }
        }

        fn ctx<'a>(
            &'a self,
            kernel: &'a CompiledKernel,
            cfg: &'a SimConfig,
            groups: &'a [Vec<usize>],
        ) -> EngineCtx<'a> {
            EngineCtx {
                adg: &self.adg,
                kernel,
                eval: &self.eval,
                cfg,
                stream_mems: &self.stream_mems,
                ctrl: &self.ctrl,
                groups,
            }
        }
    }

    /// The most capable unroll-1 version of `kernel` whose requirements
    /// `adg` satisfies, else the fallback version (which then schedules
    /// illegally and leaves streams unbound — also worth stepping).
    fn version(adg: &Adg, kernel: &dsagen_dfg::Kernel) -> CompiledKernel {
        let features = adg.features();
        enumerate_configs(kernel, &features, 1)
            .into_iter()
            .filter_map(|config| compile_kernel(kernel, &config, &features).ok())
            .find(|v| v.requires.satisfied_by(&features))
            .unwrap_or_else(|| {
                compile_kernel(kernel, &TransformConfig::fallback(), &features).unwrap()
            })
    }

    /// The mapping after a repair around the first removable placed PE (a
    /// reschedule at another seed when no PE can go).
    fn repaired(adg: &Adg, kernel: &CompiledKernel, first: &ScheduleResult) -> Mapping {
        let problem = Problem::new(adg, kernel);
        let faulted = problem
            .entities
            .iter()
            .zip(&first.schedule.placement)
            .filter(|(e, _)| matches!(e.kind, EntityKind::Op { .. }))
            .filter_map(|(_, node)| *node)
            .find_map(|node| {
                let mut faulted = adg.clone();
                faulted.remove_node(node).ok()?;
                faulted.validate().ok()?;
                Some(faulted)
            });
        let cfg = SchedulerConfig::default();
        match faulted {
            Some(faulted) => {
                let result = schedule(
                    &faulted,
                    kernel,
                    &Start::Repair {
                        previous: &first.schedule,
                        scope: None,
                        max_attempts: 1,
                    },
                    &cfg,
                    &Telemetry::disabled(),
                )
                .unwrap();
                Mapping::new(faulted, kernel, result)
            }
            None => {
                let cfg = SchedulerConfig { seed: 77001, ..cfg };
                Mapping::new(adg.clone(), kernel, fresh(adg, kernel, &cfg))
            }
        }
    }

    /// Moves every memory-bound stream of `m` to the next of the fabric's
    /// memories (in id order), so that rebinding to `m` renumbers memory
    /// slots and regroups the streams that share a budget.
    fn rotate_memories(m: &mut Mapping) {
        let mems: Vec<NodeId> = m.adg.memories().collect();
        for mem in m.stream_mems.values_mut() {
            if let Some(i) = mems.iter().position(|x| x == mem) {
                *mem = mems[(i + 1) % mems.len()];
            }
        }
    }

    /// Steps a core through [`EngineCore::tick`] and another through the
    /// reference cycle, every group capped at `cap` cycles, and asserts
    /// after every tick that both returned the same [`Tick`] and have the
    /// same `Debug` state, and before it that both agree on every region's
    /// liveness. With an `effect_seed`, each region's effect switches
    /// between normal, blocked and poisoned at random (about once per 32
    /// cycles). Both are checkpointed at `cap / 8`; at `cap / 4` both are
    /// rebound to `second` and, inside a multi-region group, the group's
    /// first region is spliced back from the checkpoint — whose memory
    /// bindings predate the rebind.
    fn lockstep(
        case: &str,
        kernel: &CompiledKernel,
        first: &Mapping,
        second: &Mapping,
        cap: u64,
        effect_seed: Option<u64>,
    ) {
        let cfg = SimConfig { max_cycles: cap };
        let groups = pipeline_groups(kernel);
        let n = kernel.regions.len();
        let mut new = EngineCore::new(n, 17);
        let mut old = new.clone();
        let mut rng = effect_seed.map(StdRng::seed_from_u64);
        let mut effects = vec![Effect::Normal; n];
        let mut mapping = first;
        let mut checkpoint = None;
        for t in 0u64.. {
            if t == cap / 8 {
                checkpoint = Some((new.clone(), old.clone()));
            }
            if t == cap / 4 {
                mapping = second;
                let ctx = mapping.ctx(kernel, &cfg, &groups);
                new.rebind(ctx);
                old.rebind(ctx);
                let group = groups.get(new.group_idx()).filter(|g| g.len() > 1);
                if let (Some(group), Some((new_ckpt, old_ckpt))) = (group, &checkpoint) {
                    let spliced = new.splice_regions_from(new_ckpt, &group[..1]);
                    assert_eq!(
                        spliced,
                        old.splice_regions_from(old_ckpt, &group[..1]),
                        "{case}"
                    );
                }
            }
            let ctx = mapping.ctx(kernel, &cfg, &groups);
            for ri in 0..n {
                assert_eq!(
                    new.region_live(ctx, ri),
                    reference::region_live(&old, ctx, ri),
                    "{case}: liveness of region {ri} before tick {t}"
                );
            }
            let effects: &[Effect] = match &mut rng {
                Some(rng) => {
                    for e in &mut effects {
                        if rng.gen_range(0..32) == 0 {
                            *e = [Effect::Normal, Effect::Blocked, Effect::Poisoned]
                                [rng.gen_range(0..3usize)];
                        }
                    }
                    &effects
                }
                None => &[],
            };
            let ticked = new.tick(ctx, effects);
            assert_eq!(
                ticked,
                reference::tick(&mut old, ctx, effects),
                "{case}: tick {t}"
            );
            let (new_state, old_state) = (format!("{new:?}"), format!("{old:?}"));
            assert!(
                new_state == old_state,
                "{case}: states diverge after tick {t}\n new: {new_state}\n ref: {old_state}"
            );
            if ticked == Tick::Finished {
                return;
            }
        }
    }

    /// The fused, allocation-free cycle is the reference cycle, state for
    /// state: every Table-I kernel on three fabrics, fault-free and under
    /// random effects, with a mid-run rebind to a repaired mapping (its
    /// memory bindings rotated) and a splice. A debug build steps every
    /// fourth case for 512 cycles per group;
    /// `cargo test --release -p dsagen-sim --lib engine` steps every case
    /// for 8192 cycles per group.
    #[test]
    fn cycles_match_the_reference_in_lockstep() {
        let (stride, cap) = if cfg!(debug_assertions) {
            (4, 512)
        } else {
            (1, 8192)
        };
        let mut case = 0u64;
        for adg in [presets::softbrain(), presets::spu(), presets::dse_initial()] {
            for w in dsagen_workloads::all() {
                case += 1;
                if !case.is_multiple_of(stride) {
                    continue;
                }
                let kernel = version(&adg, &w.kernel);
                let first = fresh(&adg, &kernel, &SchedulerConfig::default());
                let mut second = repaired(&adg, &kernel, &first);
                rotate_memories(&mut second);
                let first = Mapping::new(adg.clone(), &kernel, first);
                for effect_seed in [None, Some(case)] {
                    let what = format!("{} {} effects={effect_seed:?}", adg.name(), w.name);
                    lockstep(&what, &kernel, &first, &second, cap, effect_seed);
                }
            }
        }
    }
}
