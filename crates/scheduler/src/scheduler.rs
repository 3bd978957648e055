//! The stochastic scheduling loop (§IV-C Algorithm 1) and schedule repair
//! (§V-A).

use std::collections::BTreeSet;
use std::fmt;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use dsagen_adg::{Adg, EdgeId, NodeId};
use dsagen_dfg::CompiledKernel;
use dsagen_telemetry::Telemetry;

use crate::objective::{evaluate_with, Score, Scratch};
use crate::route::Router;
use crate::schedule::LinkTable;
use crate::{Evaluation, Problem, Schedule, Weights};

/// Congestion weight used during routing. Sharing a link is priced far
/// above any detour the router could take (MAX_HOPS-bounded), so congestion
/// is only accepted when no alternative path exists at all.
const CONGESTION: f64 = 100.0;

/// Tunables for the stochastic scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Maximum improvement iterations (the paper's DSE uses up to 200 per
    /// hardware change, §VIII-B).
    pub max_iters: u32,
    /// Candidate placements sampled per unmapped entity.
    pub candidates: usize,
    /// Iterations without improvement before a feasible schedule is
    /// declared converged.
    pub patience: u32,
    /// RNG seed (every run is deterministic given the seed).
    pub seed: u64,
    /// Objective weights.
    pub weights: Weights,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_iters: 200,
            candidates: 6,
            patience: 30,
            seed: 0xD5A6E4,
            weights: Weights::default(),
        }
    }
}

/// How a scheduling run related to the previous schedule it started from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairOutcome {
    /// Scheduled from scratch — no previous schedule.
    Fresh,
    /// Repaired with every previous placement and route intact.
    Clean,
    /// The hardware changed underneath the previous schedule: some of it
    /// had to be dropped and redone.
    Degraded {
        /// Entity placements invalidated (deleted or incompatible nodes).
        dropped: usize,
        /// Routes invalidated (severed edges, endpoints dropped, or turns
        /// forbidden by a changed routing matrix) that had to be rerouted.
        rerouted: usize,
    },
}

/// The outcome of a scheduling run.
#[derive(Debug, Clone)]
pub struct ScheduleResult {
    /// The best schedule found.
    pub schedule: Schedule,
    /// Its evaluation.
    pub eval: Evaluation,
    /// Iterations actually executed.
    pub iterations: u32,
    /// Relation to the previous schedule (repair runs only).
    pub outcome: RepairOutcome,
}

impl ScheduleResult {
    /// Whether the schedule is complete and violation-free.
    #[must_use]
    pub fn is_legal(&self) -> bool {
        self.eval.feasible
    }
}

/// Where a scheduling run starts.
#[derive(Debug, Clone, Copy)]
pub enum Start<'a> {
    /// From nothing: Algorithm 1 maps the kernel from scratch in one search
    /// under exactly the given configuration.
    Empty,
    /// From `previous` — the §V-A repairing scheduler. Placements on deleted
    /// or incompatible hardware are dropped, routes through severed links or
    /// newly-forbidden switch turns are rerouted, and everything else is
    /// reused; [`ScheduleResult::outcome`] records what was lost.
    ///
    /// Retry is bounded escalation: while the result is illegal, the
    /// iteration budget is doubled (and the seed perturbed) and the search
    /// re-run from the same invalidated schedule, up to `max_attempts` total
    /// attempts or a per-attempt budget of 4096 iterations. The first legal
    /// result wins, or else the best illegal one (lowest objective). With
    /// `max_attempts = 1` and `1 ≤ cfg.max_iters ≤ 4096` this is one search
    /// under exactly the given configuration.
    Repair {
        /// The schedule to start from.
        previous: &'a Schedule,
        /// The regions whose entities may move, every placement and route
        /// outside them pinned bit-identically; `None` moves every entity.
        /// A recovery rung repairs one fault-isolation domain this way, and
        /// with every region in scope it is the same search as `None`.
        scope: Option<&'a BTreeSet<usize>>,
        /// Total search attempts, at least one.
        max_attempts: u32,
    },
}

/// Why [`schedule`] returned no schedule at all — distinct from an illegal
/// one, which is a [`ScheduleResult`] whose [`ScheduleResult::is_legal`] is
/// false.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleError {
    /// A scoped repair's fabric invalidated a placement or route outside the
    /// scope (or the previous schedule does not fit the kernel), so the pins
    /// cannot hold. A recovery rung whose mask took out hardware another
    /// domain depends on ends here, and the ladder escalates. [`Start::Empty`]
    /// and unscoped repairs never return it.
    PinsBroken,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::PinsBroken => {
                f.write_str("the fabric invalidates placements or routes pinned outside the scope")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Schedules `kernel` onto `adg` from `start` — the one way into the search.
/// The path search emits a `sched/path_search` span (`path_search_scoped`
/// when a scope pins entities) and `scheduler.path_search.*` metrics
/// (invocations, iterations, victims, candidate expansions, router heap
/// pops) into `tel`. With a disabled handle the search is byte-for-byte the
/// same — instrumentation is a handful of `Option` branches and never
/// touches the RNG.
///
/// # Errors
///
/// [`ScheduleError::PinsBroken`] when a scoped repair cannot keep its pins.
///
/// # Example
///
/// ```
/// use dsagen_adg::{presets, BitWidth, Opcode};
/// use dsagen_dfg::*;
/// use dsagen_scheduler::{schedule, SchedulerConfig, Start};
/// use dsagen_telemetry::Telemetry;
///
/// let adg = presets::softbrain();
/// let mut k = KernelBuilder::new("scale");
/// let a = k.array("a", BitWidth::B64, 64, MemClass::MainMemory);
/// let mut r = k.region("body", 1.0);
/// let i = r.for_loop(TripCount::fixed(64), true);
/// let v = r.load(a, AffineExpr::var(i));
/// let two = r.imm(2);
/// let w = r.bin(Opcode::Mul, v, two);
/// r.store(a, AffineExpr::var(i), w);
/// k.finish_region(r);
/// let kernel = k.build()?;
/// let ck = compile_kernel(&kernel, &TransformConfig::fallback(), &adg.features())?;
/// let cfg = SchedulerConfig::default();
/// let result = schedule(&adg, &ck, &Start::Empty, &cfg, &Telemetry::disabled())?;
/// assert!(result.is_legal());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn schedule(
    adg: &Adg,
    kernel: &CompiledKernel,
    start: &Start<'_>,
    cfg: &SchedulerConfig,
    tel: &Telemetry,
) -> Result<ScheduleResult, ScheduleError> {
    let problem = Problem::new(adg, kernel);
    let Start::Repair {
        previous,
        scope,
        max_attempts,
    } = *start
    else {
        return Ok(from_empty(&problem, cfg, tel));
    };
    if scope.is_some() && previous.placement.len() != problem.entities.len() {
        return Err(ScheduleError::PinsBroken);
    }
    let mut initial = previous.clone();
    let (dropped, rerouted) = invalidate(&problem, &mut initial);
    let mut allowed = vec![true; problem.entities.len()];
    if let Some(regions) = scope {
        // The pins must have survived the fabric: if invalidation touched
        // anything outside the scope, the repair cannot hold its contract.
        if !initial.agrees_outside(&problem, previous, regions) {
            return Err(ScheduleError::PinsBroken);
        }
        for (allowed, entity) in allowed.iter_mut().zip(&problem.entities) {
            *allowed = regions.contains(&entity.region());
        }
    }
    let outcome = if dropped == 0 && rerouted == 0 {
        RepairOutcome::Clean
    } else {
        RepairOutcome::Degraded { dropped, rerouted }
    };
    Ok(escalate(
        &problem,
        &initial,
        &allowed,
        outcome,
        cfg,
        max_attempts,
        tel,
    ))
}

/// [`schedule`] from [`Start::Empty`], which cannot fail. Kept only for
/// its one caller, the benchmark in `benchmark/`; it goes when that
/// benchmark is next edited.
#[must_use]
pub fn schedule_instrumented(
    adg: &Adg,
    kernel: &CompiledKernel,
    cfg: &SchedulerConfig,
    tel: &Telemetry,
) -> ScheduleResult {
    from_empty(&Problem::new(adg, kernel), cfg, tel)
}

/// One search from the empty schedule under exactly `cfg`.
fn from_empty(problem: &Problem<'_>, cfg: &SchedulerConfig, tel: &Telemetry) -> ScheduleResult {
    let everything = vec![true; problem.entities.len()];
    search(
        problem,
        &mut Router::new(problem.adg),
        Schedule::empty(problem),
        cfg,
        &everything,
        tel,
    )
}

/// Drops from `sched` what `problem`'s fabric no longer supports and
/// returns `(placements dropped, routes dropped)`.
fn invalidate(problem: &Problem<'_>, sched: &mut Schedule) -> (usize, usize) {
    let routes_before = sched.routes.len();
    let dropped = sched.invalidate_removed(problem);
    // `invalidate_removed` checks route *structure* (edges still chain);
    // faults like a stuck switch keep every edge alive but forbid turns,
    // so re-check route *semantics* too.
    let placement = &sched.placement;
    sched.routes.retain(|idx, path| {
        problem
            .edges
            .get(*idx)
            .and_then(|vedge| placement.get(vedge.src).copied().flatten())
            .is_some_and(|src| crate::route::path_legal(problem.adg, src, path))
    });
    (dropped, routes_before.saturating_sub(sched.routes.len()))
}

/// Searches from `start` with bounded retry: each further attempt doubles
/// the iteration budget (capped at 4096) and perturbs the seed. The first
/// legal result wins; failing that, the lowest objective. One router (its
/// flattened fabric and tables) serves every attempt.
fn escalate(
    problem: &Problem<'_>,
    start: &Schedule,
    allowed: &[bool],
    outcome: RepairOutcome,
    cfg: &SchedulerConfig,
    max_attempts: u32,
    tel: &Telemetry,
) -> ScheduleResult {
    const ITER_CAP: u32 = 4096;
    let mut router = Router::new(problem.adg);
    let mut attempt = |n: u32, iters: u32| {
        let attempt_cfg = SchedulerConfig {
            max_iters: iters.min(ITER_CAP),
            seed: cfg
                .seed
                .wrapping_add(u64::from(n).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ..*cfg
        };
        let mut result = search(
            problem,
            &mut router,
            start.clone(),
            &attempt_cfg,
            allowed,
            tel,
        );
        result.outcome = outcome;
        result
    };
    let mut iters = cfg.max_iters.max(1);
    let mut best = attempt(0, iters);
    for n in 1..max_attempts {
        if best.is_legal() || iters >= ITER_CAP {
            break;
        }
        iters = iters.saturating_mul(2);
        let result = attempt(n, iters);
        if result.is_legal() || result.eval.objective < best.eval.objective {
            best = result;
        }
    }
    best
}

/// Algorithm 1's improvement loop over the `allowed` entities: victims,
/// re-placement, and rip-up only ever touch allowed entities and their
/// (intra-region) routes, so everything else stays bit-identical to the
/// starting schedule. Scheduling a whole kernel allows every entity.
///
/// The incumbent is tracked *feasibility-first*: a feasible schedule
/// always beats an infeasible one, and the objective only breaks ties
/// within the same feasibility class. Recovery rungs run under
/// full-fidelity weights, where a feasible-but-high-II mapping can cost
/// more than an infeasible low-II one — pure cost-tracking would overwrite
/// a legal incumbent with a cheaper illegal one and return
/// `is_legal() == false` after having seen a legal mapping.
fn search<'a>(
    problem: &Problem<'a>,
    router: &mut Router<'a>,
    start: Schedule,
    cfg: &SchedulerConfig,
    allowed: &[bool],
    tel: &Telemetry,
) -> ScheduleResult {
    let allowed_idx: Vec<usize> = (0..problem.entities.len())
        .filter(|i| allowed[*i])
        .collect();
    let whole = allowed_idx.len() == problem.entities.len();
    let mut span = tel.span(
        "sched",
        if whole {
            "path_search"
        } else {
            "path_search_scoped"
        },
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut expansions: u64 = 0;
    let mut victims_total: u64 = 0;
    let pops_before = router.pops();
    let mut work = Working {
        links: LinkTable::of(problem, &start),
        scratch: Scratch::new(problem, router.fabric()),
        candidates: vec![None; problem.entities.len()],
        sched: start,
        problem,
        cfg,
        allowed,
        router,
    };

    // Initial completion: place every unplaced allowed entity greedily
    // (ports first, then ops in index order, which is topological within
    // each region) and route everything.
    {
        let _init = tel.span("sched", "initial_place");
        for &v in &allowed_idx {
            if work.sched.placement[v].is_none() {
                expansions += work.place_best(v, &mut rng);
            }
        }
        work.route_missing();
    }
    let mut best_score = work.score();
    let mut best_eval = work.scratch.evaluation(problem);
    let mut best = work.sched.clone();
    let mut stale = 0u32;
    let mut iterations = 0u32;

    // A scope that pins every entity leaves nothing to search: the starting
    // schedule is the answer. (A kernel with no entities pins nothing; it
    // idles through the loop until `patience` calls it converged, which
    // keeps its `iterations` what they have always been.)
    let budget = if whole || !allowed_idx.is_empty() {
        cfg.max_iters
    } else {
        0
    };
    for iter in 0..budget {
        iterations = iter + 1;
        // "Unmap one or more mapped instructions (or streams)" — victims
        // biased toward entities involved in violations.
        let victims = work.pick_victims(&mut rng, &allowed_idx);
        victims_total += victims.len() as u64;
        for v in &victims {
            work.unplace(*v);
        }
        for v in victims {
            expansions += work.place_best(v, &mut rng);
        }
        // Rip-up-and-reroute: drop routes crossing congested links so the
        // congestion-aware router can find detours (PathFinder-style
        // negotiation, [51]).
        work.ripup_congested(&mut rng);
        // Re-route anything whose route got dropped.
        work.route_missing();
        #[cfg(debug_assertions)]
        assert_eq!(
            work.links.normalized(),
            LinkTable::of(problem, &work.sched).normalized(),
            "the link table fell out of step with the routes"
        );

        let score = work.score();
        let better = (score.feasible && !best_score.feasible)
            || (score.feasible == best_score.feasible && score.objective < best_score.objective);
        if better {
            best_score = score;
            best_eval = work.scratch.evaluation(problem);
            best = work.sched.clone();
            stale = 0;
        } else {
            stale += 1;
            // Restart from the best known schedule after a bad streak.
            if stale.is_multiple_of(10) {
                work.reset_to(&best);
            }
        }
        // "Stop if the objective converges": legal and stable.
        if best_score.feasible && stale >= cfg.patience {
            break;
        }
    }

    let pops = work.router.pops() - pops_before;
    flush_search_metrics(
        tel,
        iterations,
        victims_total,
        expansions,
        pops,
        best_score.feasible,
    );
    span.arg("iterations", iterations);
    span.arg("expansions", expansions);
    span.arg("pops", pops);
    span.arg("feasible", best_score.feasible);
    span.end();
    ScheduleResult {
        schedule: best,
        eval: best_eval,
        iterations,
        outcome: RepairOutcome::Fresh,
    }
}

/// Flushes one search run's locally accumulated counters into the metrics
/// registry under the `scheduler.path_search.*` name space. A single call
/// per run (not per iteration), so the hot loop pays only plain `u64`
/// increments.
fn flush_search_metrics(
    tel: &Telemetry,
    iterations: u32,
    victims: u64,
    expansions: u64,
    pops: u64,
    feasible: bool,
) {
    let m = tel.metrics();
    if !m.is_enabled() {
        return;
    }
    m.add("scheduler.path_search.invocations", 1);
    m.add("scheduler.path_search.iterations", u64::from(iterations));
    m.add("scheduler.path_search.victims", victims);
    m.add("scheduler.path_search.expansions", expansions);
    m.add("scheduler.path_search.pops", pops);
    m.observe(
        "scheduler.path_search.iterations_per_run",
        u64::from(iterations),
    );
    if feasible {
        m.add("scheduler.path_search.converged", 1);
    }
}

/// The search's working state: the schedule being edited plus what the loop
/// derives from it. `links` is always the link table of `sched`'s routes —
/// every route edit goes through [`Working::insert_route`],
/// [`Working::remove_route`] or [`Working::reset_to`], which keep the two in
/// step — so routing, rip-up, victim picking and the objective read link
/// congestion instead of recomputing it from the whole schedule. The
/// objective reads the router's fabric view and writes `scratch`; each
/// entity's candidate nodes are listed the first time it is placed.
struct Working<'s, 'a> {
    problem: &'s Problem<'a>,
    cfg: &'s SchedulerConfig,
    allowed: &'s [bool],
    router: &'s mut Router<'a>,
    sched: Schedule,
    links: LinkTable,
    scratch: Scratch,
    candidates: Vec<Option<Vec<NodeId>>>,
}

impl Working<'_, '_> {
    fn insert_route(&mut self, i: usize, path: Vec<EdgeId>) {
        self.links.insert(self.problem.edges[i].src, &path);
        self.sched.routes.insert(i, path);
    }

    fn remove_route(&mut self, i: usize) -> Option<Vec<EdgeId>> {
        let path = self.sched.routes.remove(&i)?;
        self.links.remove(self.problem.edges[i].src, &path);
        Some(path)
    }

    /// Continues from `incumbent` instead of the current schedule.
    fn reset_to(&mut self, incumbent: &Schedule) {
        self.sched = incumbent.clone();
        self.links.reset(self.problem, &self.sched);
    }

    /// Scores the current schedule; its full [`Evaluation`] is then
    /// `self.scratch.evaluation(..)`.
    fn score(&mut self) -> Score {
        let (problem, fabric) = (self.problem, self.router.fabric());
        evaluate_with(
            problem,
            &self.sched,
            &self.links,
            fabric,
            &self.cfg.weights,
            &mut self.scratch,
        )
    }

    /// Unmaps entity `v`, dropping its placement and all incident routes.
    fn unplace(&mut self, v: usize) {
        self.take_incident_routes(v);
        self.sched.placement[v] = None;
    }

    /// Removes every route incident to `v` and returns them.
    fn take_incident_routes(&mut self, v: usize) -> Vec<(usize, Vec<EdgeId>)> {
        let problem = self.problem;
        problem
            .incident(v)
            .iter()
            .filter_map(|&i| Some((i, self.remove_route(i)?)))
            .collect()
    }

    /// "For each compatible PE (or memory): route this instruction's operands
    /// and dependences …; compute the objective …; commit to the PE which
    /// yields the highest objective."
    ///
    /// `v` arrives unplaced and so without incident routes. Every candidate
    /// is tried on that same fabric state, and routing draws no random
    /// numbers, so the routes found while scoring the winner are exactly the
    /// ones routing it again at commit time would find: they are kept and
    /// put back instead.
    ///
    /// Returns the number of candidate placements expanded (evaluated), the
    /// unit the `scheduler.path_search.expansions` metric counts in.
    fn place_best(&mut self, v: usize, rng: &mut StdRng) -> u64 {
        let problem = self.problem;
        let all =
            self.candidates[v].get_or_insert_with(|| problem.candidates(&problem.entities[v]));
        if all.is_empty() {
            return 0; // stays unplaced; priced by the objective
        }
        let mut candidates = all.clone();
        candidates.shuffle(rng);
        candidates.truncate(self.cfg.candidates.max(1));
        let expanded = candidates.len() as u64;

        let mut best = None;
        let mut best_obj = f64::INFINITY;
        for node in candidates {
            self.sched.placement[v] = Some(node);
            self.route_incident(v);
            let objective = self.score().objective;
            // Take this candidate's routes off the fabric before trying the
            // next.
            let routes = self.take_incident_routes(v);
            self.sched.placement[v] = None;
            if objective < best_obj {
                best_obj = objective;
                best = Some((node, routes));
            }
        }
        if let Some((node, routes)) = best {
            self.sched.placement[v] = Some(node);
            for (i, path) in routes {
                self.insert_route(i, path);
            }
        }
        expanded
    }

    /// Routes virtual edge `i` if both its endpoints are placed and it has no
    /// route yet.
    fn route_edge(&mut self, i: usize) {
        let e = &self.problem.edges[i];
        if self.sched.routes.contains_key(&i) {
            return;
        }
        let (Some(src), Some(dst)) = (self.sched.placement[e.src], self.sched.placement[e.dst])
        else {
            return;
        };
        let links = &self.links;
        let usage = |link| links.others(link, e.src);
        if let Some(path) = self.router.route(src, dst, usage, CONGESTION) {
            self.insert_route(i, path);
        }
    }

    /// Routes every virtual edge incident to `v` whose other endpoint is
    /// placed.
    fn route_incident(&mut self, v: usize) {
        let problem = self.problem;
        for &i in problem.incident(v) {
            self.route_edge(i);
        }
    }

    /// Routes every allowed edge whose endpoints are placed but which has no
    /// route yet (virtual edges never cross regions, so `src` decides whether
    /// an edge is allowed).
    fn route_missing(&mut self) {
        for i in 0..self.problem.edges.len() {
            if self.allowed[self.problem.edges[i].src] {
                self.route_edge(i);
            }
        }
    }

    /// Whether `path` crosses a link carrying more than one distinct value.
    fn crosses_congestion(&self, path: &[EdgeId]) -> bool {
        path.iter().any(|link| self.links.congested(*link))
    }

    /// Drops a random subset of the allowed routes that cross links carrying
    /// more than one distinct value, so they can be re-routed around the
    /// congestion. Congestion caused by pinned traffic can only be negotiated
    /// by moving the allowed routes.
    fn ripup_congested(&mut self, rng: &mut StdRng) {
        if self.links.overuse() == 0 {
            return;
        }
        // `routes` iterates in edge order, so the RNG-coupled selection below
        // is reproducible.
        let crossing: Vec<usize> = self
            .sched
            .routes
            .iter()
            .filter(|(i, path)| {
                self.problem
                    .edges
                    .get(**i)
                    .is_some_and(|e| self.allowed[e.src])
                    && self.crosses_congestion(path)
            })
            .map(|(i, _)| *i)
            .collect();
        for i in crossing {
            if rng.gen_bool(0.5) {
                self.remove_route(i);
            }
        }
    }

    /// Chooses 1–3 victims among the allowed entities, preferring those
    /// implicated in violations: overused PEs, unrouted edges, congested
    /// routes, or no placement at all. Pinned co-tenants cannot move, so only
    /// allowed entities are ever candidates.
    fn pick_victims(&self, rng: &mut StdRng, allowed_idx: &[usize]) -> Vec<usize> {
        if allowed_idx.is_empty() {
            return Vec::new();
        }
        let (problem, sched, allowed) = (self.problem, &self.sched, self.allowed);
        let mut pool: Vec<usize> = Vec::new();
        // Entities on overused PEs.
        let mut pe_counts: std::collections::BTreeMap<_, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (i, p) in sched.placement.iter().enumerate() {
            if let Some(node) = p {
                pe_counts.entry(*node).or_default().push(i);
            }
        }
        for (node, ents) in &pe_counts {
            let slots = match problem.adg.kind(*node) {
                Ok(dsagen_adg::NodeKind::Pe(pe)) => pe.sharing.instruction_slots() as usize,
                Ok(dsagen_adg::NodeKind::Sync(_)) => 1,
                _ => usize::MAX,
            };
            if ents.len() > slots {
                pool.extend(ents.iter().copied().filter(|i| allowed[*i]));
            }
        }
        // Entities with unrouted edges.
        for (i, e) in problem.edges.iter().enumerate() {
            if allowed[e.src]
                && !sched.routes.contains_key(&i)
                && sched.placement[e.src].is_some()
                && sched.placement[e.dst].is_some()
            {
                pool.push(e.src);
                pool.push(e.dst);
            }
        }
        // Entities whose routes cross congested links (more than one distinct
        // value on a physical link).
        if self.links.overuse() > 0 {
            for (i, path) in &sched.routes {
                if self.crosses_congestion(path) {
                    if let Some(e) = problem.edges.get(*i) {
                        if allowed[e.src] {
                            pool.push(e.src);
                            pool.push(e.dst);
                        }
                    }
                }
            }
        }
        // Unplaced entities always need attention.
        pool.extend(
            allowed_idx
                .iter()
                .copied()
                .filter(|i| sched.placement[*i].is_none()),
        );
        // The segments above arrive in unrelated orders; sort so the seeded RNG
        // yields reproducible schedules.
        pool.sort_unstable();

        let count = rng.gen_range(1..=3usize.min(allowed_idx.len()));
        let mut victims = Vec::with_capacity(count);
        for _ in 0..count {
            let v = if !pool.is_empty() && rng.gen_bool(0.8) {
                pool[rng.gen_range(0..pool.len())]
            } else {
                allowed_idx[rng.gen_range(0..allowed_idx.len())]
            };
            if !victims.contains(&v) {
                victims.push(v);
            }
        }
        victims
    }
}

#[cfg(test)]
mod tests {
    use dsagen_adg::{presets, BitWidth, Opcode};
    use dsagen_dfg::{
        compile_kernel, AffineExpr, KernelBuilder, MemClass, TransformConfig, TripCount,
    };

    use super::*;
    use crate::EntityKind;

    fn fresh(adg: &Adg, ck: &CompiledKernel, cfg: &SchedulerConfig) -> ScheduleResult {
        schedule(adg, ck, &Start::Empty, cfg, &Telemetry::disabled()).expect("nothing is pinned")
    }

    fn repair_unscoped(
        adg: &Adg,
        ck: &CompiledKernel,
        previous: &Schedule,
        cfg: &SchedulerConfig,
        max_attempts: u32,
    ) -> ScheduleResult {
        let start = Start::Repair {
            previous,
            scope: None,
            max_attempts,
        };
        schedule(adg, ck, &start, cfg, &Telemetry::disabled()).expect("nothing is pinned")
    }

    fn dot_kernel(n: u64) -> dsagen_dfg::Kernel {
        let mut k = KernelBuilder::new("dot");
        let a = k.array("a", BitWidth::B64, n, MemClass::MainMemory);
        let b = k.array("b", BitWidth::B64, n, MemClass::MainMemory);
        let c = k.array("c", BitWidth::B64, 1, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(n), true);
        let va = r.load(a, AffineExpr::var(i));
        let vb = r.load(b, AffineExpr::var(i));
        let p = r.bin(Opcode::Mul, va, vb);
        let acc = r.reduce(Opcode::Add, p, i);
        r.store(c, AffineExpr::constant(0), acc);
        k.finish_region(r);
        k.build().unwrap()
    }

    #[test]
    fn dot_schedules_legally_on_softbrain() {
        let adg = presets::softbrain();
        let ck = compile_kernel(
            &dot_kernel(1024),
            &TransformConfig::fallback(),
            &adg.features(),
        )
        .unwrap();
        let result = fresh(&adg, &ck, &SchedulerConfig::default());
        assert!(result.is_legal(), "eval: {:?}", result.eval);
        assert!(result.eval.hops > 0);
    }

    #[test]
    fn unrolled_dot_schedules_on_softbrain() {
        let adg = presets::softbrain();
        let ck = compile_kernel(
            &dot_kernel(1024),
            &TransformConfig {
                unroll: 4,
                ..TransformConfig::fallback()
            },
            &adg.features(),
        )
        .unwrap();
        let result = fresh(&adg, &ck, &SchedulerConfig::default());
        assert!(result.is_legal(), "eval: {:?}", result.eval);
    }

    #[test]
    fn deterministic_given_seed() {
        let adg = presets::softbrain();
        let ck = compile_kernel(
            &dot_kernel(256),
            &TransformConfig::fallback(),
            &adg.features(),
        )
        .unwrap();
        let cfg = SchedulerConfig::default();
        let a = fresh(&adg, &ck, &cfg);
        let b = fresh(&adg, &ck, &cfg);
        assert_eq!(a.schedule.placement, b.schedule.placement);
        assert_eq!(a.eval.objective, b.eval.objective);
    }

    #[test]
    fn repair_reuses_surviving_placements() {
        let mut adg = presets::softbrain();
        let ck = compile_kernel(
            &dot_kernel(256),
            &TransformConfig::fallback(),
            &adg.features(),
        )
        .unwrap();
        let cfg = SchedulerConfig::default();
        let first = fresh(&adg, &ck, &cfg);
        assert!(first.is_legal());

        // Delete one PE that hosts an instruction.
        let problem = Problem::new(&adg, &ck);
        let victim = problem
            .entities
            .iter()
            .enumerate()
            .find_map(|(i, e)| match e.kind {
                EntityKind::Op { .. } => first.schedule.placement[i],
                _ => None,
            })
            .expect("some op is placed");
        adg.remove_node(victim).unwrap();

        let repaired = repair_unscoped(&adg, &ck, &first.schedule, &cfg, 1);
        assert!(repaired.is_legal(), "eval: {:?}", repaired.eval);
        // Nothing is placed on the deleted node.
        assert!(repaired
            .schedule
            .placement
            .iter()
            .all(|p| *p != Some(victim)));
    }

    #[test]
    fn repair_of_unchanged_adg_is_cheap() {
        let adg = presets::softbrain();
        let ck = compile_kernel(
            &dot_kernel(256),
            &TransformConfig::fallback(),
            &adg.features(),
        )
        .unwrap();
        let cfg = SchedulerConfig::default();
        let first = fresh(&adg, &ck, &cfg);
        let repaired = repair_unscoped(&adg, &ck, &first.schedule, &cfg, 1);
        assert!(repaired.is_legal());
        assert!(repaired.eval.objective <= first.eval.objective + 1e-9);
    }

    #[test]
    fn empty_scope_returns_the_input_and_is_counted() {
        let (adg, ck, first) = scheduled_softbrain();
        let tel = Telemetry::disabled().with_metrics(dsagen_telemetry::MetricsRegistry::enabled());
        let invocations = || {
            tel.metrics()
                .snapshot()
                .counter("scheduler.path_search.invocations")
                .unwrap_or(0)
        };
        let before = invocations();
        let nothing = std::collections::BTreeSet::new();
        let cfg = SchedulerConfig::default();
        let start = Start::Repair {
            previous: &first.schedule,
            scope: Some(&nothing),
            max_attempts: 1,
        };
        let result =
            schedule(&adg, &ck, &start, &cfg, &tel).expect("an unchanged fabric keeps every pin");
        assert_eq!(result.schedule, first.schedule);
        assert_eq!(result.iterations, 0);
        assert_eq!(result.outcome, RepairOutcome::Clean);
        assert_eq!(invocations(), before + 1, "spans and counters must agree");
    }

    /// Schedules the dot kernel on softbrain and returns everything needed
    /// by the fault-repair tests.
    fn scheduled_softbrain() -> (dsagen_adg::Adg, dsagen_dfg::CompiledKernel, ScheduleResult) {
        let adg = presets::softbrain();
        let ck = compile_kernel(
            &dot_kernel(256),
            &TransformConfig::fallback(),
            &adg.features(),
        )
        .unwrap();
        let first = fresh(&adg, &ck, &SchedulerConfig::default());
        assert!(first.is_legal());
        (adg, ck, first)
    }

    /// How many placements two schedules share (same entity on same node).
    fn shared_placements(a: &Schedule, b: &Schedule) -> usize {
        a.placement
            .iter()
            .zip(&b.placement)
            .filter(|(x, y)| x.is_some() && x == y)
            .count()
    }

    #[test]
    fn repair_reroutes_around_severed_link() {
        use dsagen_faults::{inject, FaultKind, FaultPlan};
        let (adg, ck, first) = scheduled_softbrain();
        // Find a fault seed that severs a link the schedule actually uses.
        let (degraded, severed) = (0..256)
            .find_map(|seed| {
                let (d, report) = inject(&adg, &FaultPlan::new(seed).with(FaultKind::SeveredLink));
                let hit = report.faulted_edges().first().copied()?;
                first
                    .schedule
                    .routes
                    .values()
                    .any(|path| path.contains(&hit))
                    .then_some((d, hit))
            })
            .expect("some seed severs a used link");

        // Repair runs with a repair-sized budget (§V-A: far cheaper than
        // re-mapping from scratch); a long improvement run would
        // legitimately migrate placements for a better objective.
        let cfg = SchedulerConfig {
            max_iters: 20,
            patience: 5,
            ..SchedulerConfig::default()
        };
        let repaired = repair_unscoped(&degraded, &ck, &first.schedule, &cfg, 1);
        assert!(repaired.is_legal(), "eval: {:?}", repaired.eval);
        let RepairOutcome::Degraded { dropped, rerouted } = repaired.outcome else {
            panic!("severing a used link must degrade: {:?}", repaired.outcome);
        };
        assert_eq!(dropped, 0, "a severed link drops no placements");
        assert!(rerouted >= 1);
        // No surviving route references the severed edge.
        assert!(repaired
            .schedule
            .routes
            .values()
            .all(|path| !path.contains(&severed)));
        // At least half the surviving placements are reused untouched
        // (§V-A: repair preserves the unaffected part of the schedule; the
        // improvement loop may legitimately move a few for a better
        // objective). A severed link drops no placements, so every
        // original placement survives the fault.
        let surviving = first.schedule.placement.iter().flatten().count();
        let kept = shared_placements(&first.schedule, &repaired.schedule);
        assert!(
            kept * 2 >= surviving,
            "kept {kept} of {surviving} surviving placements"
        );
        // Same fault seed → identical degraded hardware → identical
        // scheduler outcome (end-to-end determinism of the fault pipeline).
        let again = repair_unscoped(&degraded, &ck, &first.schedule, &cfg, 1);
        assert_eq!(repaired.schedule.placement, again.schedule.placement);
        assert_eq!(repaired.eval.objective, again.eval.objective);
        assert_eq!(repaired.outcome, again.outcome);
    }

    #[test]
    fn repair_after_dead_pe_fault_reuses_surviving_placements() {
        use dsagen_faults::{inject, FaultKind, FaultPlan};
        let (adg, ck, first) = scheduled_softbrain();
        // Find a fault seed that kills a PE the schedule actually uses.
        let (degraded, dead) = (0..256)
            .find_map(|seed| {
                let (d, report) = inject(&adg, &FaultPlan::new(seed).with(FaultKind::DeadPe));
                let hit = report.faulted_nodes().first().copied()?;
                first
                    .schedule
                    .placement
                    .contains(&Some(hit))
                    .then_some((d, hit))
            })
            .expect("some seed kills a used PE");

        let cfg = SchedulerConfig {
            max_iters: 20,
            patience: 5,
            ..SchedulerConfig::default()
        };
        let repaired = repair_unscoped(&degraded, &ck, &first.schedule, &cfg, 1);
        assert!(repaired.is_legal(), "eval: {:?}", repaired.eval);
        assert!(matches!(repaired.outcome, RepairOutcome::Degraded { .. }));
        assert!(repaired.schedule.placement.iter().all(|p| *p != Some(dead)));
        // ≥ half the placements that survived the fault are reused.
        let placed = first.schedule.placement.iter().flatten().count();
        let on_dead = first
            .schedule
            .placement
            .iter()
            .filter(|p| **p == Some(dead))
            .count();
        let surviving = placed - on_dead;
        let kept = shared_placements(&first.schedule, &repaired.schedule);
        assert!(
            kept * 2 >= surviving,
            "kept {kept} of {surviving} surviving placements"
        );
    }

    #[test]
    fn repair_drops_routes_forbidden_by_stuck_switch() {
        use dsagen_faults::{inject, FaultKind, FaultPlan};
        let (adg, ck, first) = scheduled_softbrain();
        for seed in 0..8 {
            let (degraded, report) =
                inject(&adg, &FaultPlan::new(seed).with(FaultKind::StuckSwitch));
            if !report.any_applied() {
                continue;
            }
            let cfg = SchedulerConfig::default();
            let repaired = repair_unscoped(&degraded, &ck, &first.schedule, &cfg, 1);
            // Whatever the outcome, every surviving route must be legal
            // under the stuck routing matrix.
            for (idx, path) in &repaired.schedule.routes {
                let src = repaired.schedule.placement[Problem::new(&degraded, &ck).edges[*idx].src]
                    .expect("routed edges have placed endpoints");
                assert!(
                    crate::route::path_legal(&degraded, src, path),
                    "seed {seed}: route {idx} takes a forbidden turn"
                );
            }
        }
    }

    #[test]
    fn escalation_recovers_when_base_budget_is_tiny() {
        use dsagen_faults::{inject, FaultKind, FaultPlan};
        let (adg, ck, first) = scheduled_softbrain();
        let (degraded, _) = inject(&adg, &FaultPlan::new(1).with(FaultKind::DeadPe));
        let tiny = SchedulerConfig {
            max_iters: 2,
            patience: 1,
            ..SchedulerConfig::default()
        };
        let result = repair_unscoped(&degraded, &ck, &first.schedule, &tiny, 6);
        assert!(result.is_legal(), "eval: {:?}", result.eval);
    }

    #[test]
    fn escalation_never_panics_and_returns_best_on_hopeless_problems() {
        // Kill every PE's ability to host the kernel by using an ADG with
        // no PEs left that we can reach legally: escalation must return an
        // illegal-but-evaluated result instead of panicking.
        let (adg, ck, first) = scheduled_softbrain();
        let mut gutted = adg.clone();
        let pes: Vec<_> = gutted.pes().collect();
        for pe in pes {
            // Rollback-free removal: skip any PE whose removal invalidates
            // the graph (mirrors what inject() would refuse to do).
            let mut scratch = gutted.clone();
            if scratch.remove_node(pe).is_ok() && scratch.validate().is_ok() {
                gutted = scratch;
            }
        }
        let cfg = SchedulerConfig {
            max_iters: 4,
            ..SchedulerConfig::default()
        };
        let result = repair_unscoped(&gutted, &ck, &first.schedule, &cfg, 3);
        if gutted.pes().count() == 0 {
            assert!(!result.is_legal());
            assert!(result.eval.unplaced > 0);
        }
    }

    #[test]
    fn infeasible_stream_join_on_softbrain_stays_unplaced() {
        // A stream-join version must not become "legal" on hardware with no
        // stream-join PEs.
        let mut k = KernelBuilder::new("join");
        let k0 = k.array("k0", BitWidth::B64, 64, MemClass::MainMemory);
        let k1 = k.array("k1", BitWidth::B64, 64, MemClass::MainMemory);
        let out = k.array("out", BitWidth::B64, 1, MemClass::MainMemory);
        let mut r = k.region("j", 1.0);
        let j = r.join_loop(
            dsagen_dfg::JoinSide {
                key: k0,
                payloads: vec![],
                len: 64,
            },
            dsagen_dfg::JoinSide {
                key: k1,
                payloads: vec![],
                len: 64,
            },
            0.5,
        );
        let a = r.load(k0, AffineExpr::var(j));
        let b = r.load(k1, AffineExpr::var(j));
        let p = r.bin(Opcode::Mul, a, b);
        let acc = r.reduce(Opcode::Add, p, j);
        r.store(out, AffineExpr::constant(0), acc);
        k.finish_region(r);
        let kernel = k.build().unwrap();
        let adg = presets::softbrain();
        let ck = compile_kernel(
            &kernel,
            &TransformConfig {
                stream_join: true,
                ..TransformConfig::fallback()
            },
            &adg.features(),
        )
        .unwrap();
        let result = fresh(
            &adg,
            &ck,
            &SchedulerConfig {
                max_iters: 40,
                ..Default::default()
            },
        );
        assert!(!result.is_legal());
        assert!(result.eval.unplaced > 0);
    }

    #[test]
    fn two_concurrent_regions_schedule() {
        // Producer-consumer kernel: both regions share the fabric.
        let mut k = KernelBuilder::new("pc");
        let a = k.array("a", BitWidth::B64, 64, MemClass::MainMemory);
        let b = k.array("b", BitWidth::B64, 64, MemClass::MainMemory);
        let d = k.array("d", BitWidth::B64, 64, MemClass::MainMemory);
        let mut r0 = k.region("produce", 1.0);
        let _o = r0.for_loop(TripCount::fixed(8), false);
        let j0 = r0.for_loop(TripCount::fixed(64), true);
        let va = r0.load(a, AffineExpr::var(j0));
        let acc = r0.reduce(Opcode::Add, va, j0);
        r0.yield_value(acc);
        let r0i = k.finish_region(r0);
        let mut r1 = k.region("consume", 1.0);
        let _o1 = r1.for_loop(TripCount::fixed(8), false);
        let j1 = r1.for_loop(TripCount::fixed(64), true);
        let v = r1.consume(r0i, 0);
        let vb = r1.load(b, AffineExpr::var(j1));
        let p = r1.bin(Opcode::Mul, v, vb);
        r1.store(d, AffineExpr::var(j1), p);
        k.finish_region(r1);
        let kernel = k.build().unwrap();

        let adg = presets::softbrain();
        let ck = compile_kernel(
            &kernel,
            &TransformConfig {
                forward: true,
                ..TransformConfig::fallback()
            },
            &adg.features(),
        )
        .unwrap();
        let result = fresh(&adg, &ck, &SchedulerConfig::default());
        assert!(result.is_legal(), "eval: {:?}", result.eval);
        assert_eq!(result.eval.regions.len(), 2);
    }
}
