//! The iterative codesign loop (§V), sharded and memoized.
//!
//! [`Explorer::run`] executes one or more *shards* — independent
//! deterministic searches from seed-perturbed frontiers — on a configurable
//! number of worker threads, then merges the shard results with a
//! deterministic reduction. Shard 0 always uses the configured seed
//! unchanged, so `shards = 1` reproduces the classic serial explorer
//! step-for-step, and the merged outcome depends only on `(seed, shards)`,
//! never on thread scheduling.
//!
//! Candidate evaluation answers each kernel version from the first of four
//! [`Tier`]s that can: an exact replay from the [`ScheduleCache`], a
//! schedule an earlier process left in the artifact store, a rebase of the
//! previous schedule when the mutation left its footprint intact, or a
//! fresh scheduling pass. Every tier but the exact replay re-checks what it
//! found on the current design (feasibility, bitstream round trip, then the
//! perf model), and every answer is adopted the same way: into the mapping
//! state, the cache and the tier's counter.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsagen_adg::{Adg, FeatureSet, OpSet};
use dsagen_dfg::{compile_kernel, enumerate_configs, CompiledKernel, Kernel};
use dsagen_model::{AreaPowerModel, HwCost, PerfModel};
use dsagen_store::ArtifactStore;
use dsagen_telemetry::{EventData, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cache::{CacheEntry, CacheStats, ScheduleCache};
use crate::mutate::mutate;

mod evaluate;
mod shard;

/// Power budget in mW: a candidate drawing more is rejected like one over
/// the area budget.
const POWER_BUDGET_MW: f64 = 2000.0;

/// Explorer tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DseConfig {
    /// RNG seed.
    pub seed: u64,
    /// Maximum exploration steps.
    pub max_iters: u32,
    /// Steps without improvement before exit (the paper uses 750, §VIII-B;
    /// scale down for quick runs).
    pub patience: u32,
    /// Scheduling iterations per repair/initialization (200 in the paper).
    pub sched_iters: u32,
    /// Area budget in mm² (step 2a: mutations must not exceed it).
    pub area_budget_mm2: f64,
    /// Maximum vectorization degree enumerated per kernel.
    pub max_unroll: u16,
    /// Use schedule *repair* across steps (true) or re-map every schedule
    /// from scratch (false) — the Fig 11 comparison.
    pub use_repair: bool,
    /// Memoize scheduling outcomes in a schedule cache (exact replay of
    /// revisited designs, footprint-based rebasing of untouched mappings).
    /// Disable to measure raw scheduling cost in ablations.
    pub use_cache: bool,
    /// Independent exploration shards. Each shard is a full deterministic
    /// search from a seed-perturbed frontier; shard results merge with a
    /// deterministic reduction, so the outcome depends only on
    /// `(seed, shards)`. `0` counts as one. Shard 0 always keeps `seed`
    /// unchanged, so `shards = 1` reproduces the serial explorer exactly.
    pub shards: usize,
    /// Worker threads executing shards — purely an executor width. For a
    /// fixed `(seed, shards)` the result is byte-identical for any thread
    /// count. Defaults to `DSAGEN_DSE_THREADS` (or 1 when unset).
    pub threads: usize,
    /// Wall-clock budget per candidate evaluation, in milliseconds. A step
    /// that exceeds it is rejected with [`RejectReason::TimedOut`] and the
    /// design reverted, so one pathological candidate cannot stall the
    /// whole exploration. `None` disables the budget.
    pub eval_budget_ms: Option<u64>,
    /// Score candidates by *recovered throughput* under a sampled runtime
    /// fault schedule instead of fault-free performance alone. `None`
    /// (the default) preserves the classic objective exactly.
    pub reliability: Option<ReliabilityMode>,
}

/// Reliability-aware scoring: each candidate's per-kernel performance is
/// multiplied by its *recovered-throughput factor* — the fraction of
/// fault-free throughput the design sustains when a sampled
/// [`FaultSchedule`](dsagen_faults::FaultSchedule) strikes mid-execution
/// and the runtime recovery flow (detect → checkpoint → repair → verified
/// reprogram → resume) handles it. Designs that cannot be repaired score near zero; designs with
/// spare routes/PEs that repair cleanly keep most of their performance.
///
/// The factor is a pure function of `(sample seed, hardware fingerprint,
/// kernel hash)`, so sharded/threaded exploration stays deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityMode {
    /// Base seed for the sampled fault schedules.
    pub seed: u64,
    /// Faults drawn per sampled schedule.
    pub faults: usize,
    /// Arrival horizon in cycles (faults strike uniformly in `[1, horizon)`).
    pub horizon: u64,
    /// Blend weight in `[0, 1]`: the scoring multiplier is
    /// `(1 − weight) + weight × factor`, so `1.0` scores by recovered
    /// throughput alone and `0.0` degenerates to the classic objective.
    pub weight: f64,
    /// Recovered-throughput factor assigned to designs whose recovery
    /// *fails* (unrecoverable / verification / delivery failure).
    pub failure_factor: f64,
    /// Blast-radius pressure in `[0, 1]`: the recovered-throughput factor
    /// is additionally scaled by `(1 − blast_weight) + blast_weight ×
    /// isolation`, where `isolation = (regions − max_domain_regions + 1) /
    /// regions` from the mapping's [`dsagen_sim::RecoveryDomains`]. A
    /// fully-coupled mapping (one domain) scores `isolation = 1/regions`;
    /// fully-isolated (every region its own domain) and single-region
    /// mappings score `1.0`. The scale is always ≤ 1, so blast pressure
    /// can only shrink perceived performance — it rewards designs whose
    /// worst-case recovery scope stays small.
    pub blast_weight: f64,
}

impl Default for ReliabilityMode {
    fn default() -> Self {
        ReliabilityMode {
            seed: 0xFA17,
            faults: 2,
            horizon: 4096,
            weight: 1.0,
            failure_factor: 0.05,
            blast_weight: 0.25,
        }
    }
}

/// Worker-thread default: `DSAGEN_DSE_THREADS`, or 1.
fn env_threads() -> usize {
    std::env::var("DSAGEN_DSE_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(1)
}

impl Default for DseConfig {
    fn default() -> Self {
        DseConfig {
            seed: 0xD5E,
            max_iters: 150,
            patience: 60,
            sched_iters: 200,
            area_budget_mm2: 5.0,
            max_unroll: 8,
            use_repair: true,
            use_cache: true,
            shards: 1,
            threads: env_threads(),
            eval_budget_ms: None,
            reliability: None,
        }
    }
}

/// Why a run stopped before its natural convergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum StopCause {
    /// The caller's cancellation token was set.
    Cancelled,
    /// The run's wall-clock deadline passed.
    DeadlineExceeded,
}

impl std::fmt::Display for StopCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StopCause::Cancelled => "cancelled",
            StopCause::DeadlineExceeded => "deadline-exceeded",
        })
    }
}

/// Cooperative run control: an optional cancellation token and an
/// optional wall-clock deadline, both checked at exploration iteration
/// boundaries (never mid-evaluation — a step in flight always finishes,
/// so the trace stays coherent). The default is unrestricted.
#[derive(Debug, Clone, Default)]
pub struct RunControl {
    /// Set to `true` (by any thread) to stop the run at the next
    /// iteration boundary.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Stop once this instant passes.
    pub deadline: Option<Instant>,
}

impl RunControl {
    /// Control with only a deadline `budget` from now.
    #[must_use]
    pub fn with_deadline_in(budget: Duration) -> Self {
        RunControl {
            cancel: None,
            deadline: Some(Instant::now() + budget),
        }
    }

    /// Whether the run should stop now, and why. Cancellation wins ties.
    #[must_use]
    pub fn should_stop(&self) -> Option<StopCause> {
        if let Some(token) = &self.cancel {
            if token.load(Ordering::Relaxed) {
                return Some(StopCause::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(StopCause::DeadlineExceeded);
            }
        }
        None
    }
}

/// splitmix64 — used to derive statistically independent shard seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed shard `shard` explores from. Shard 0 keeps the configured
/// seed unchanged (serial-compatibility invariant); later shards perturb
/// it through splitmix64 so their searches diverge immediately.
#[must_use]
pub(crate) fn shard_seed(seed: u64, shard: usize) -> u64 {
    if shard == 0 {
        seed
    } else {
        splitmix64(seed ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// Why one exploration step's candidate design was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RejectReason {
    /// Candidate evaluation panicked; the panic was caught, the design
    /// reverted, and exploration continued.
    Panicked,
    /// Candidate evaluation exceeded [`DseConfig::eval_budget_ms`].
    TimedOut,
    /// The candidate blew the area or power budget (objective zeroed).
    OverBudget,
    /// Some kernel had no legal version on the candidate hardware.
    Unmappable,
    /// Evaluation succeeded but the objective did not improve on the best.
    WorseObjective,
    /// No mutation applied this step (all redraws failed), so there was no
    /// candidate to evaluate.
    NoMutation,
    /// Bitstream round-trip verification rejected the candidate's
    /// configuration: what the encoder emits does not decode back to the
    /// schedule, so simulating the design would model misprogrammed
    /// hardware. The design is reverted, never simulated.
    ConfigMismatch,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RejectReason::Panicked => "panicked",
            RejectReason::TimedOut => "timed-out",
            RejectReason::OverBudget => "over-budget",
            RejectReason::Unmappable => "unmappable",
            RejectReason::WorseObjective => "worse-objective",
            RejectReason::NoMutation => "no-mutation",
            RejectReason::ConfigMismatch => "config-mismatch",
        };
        f.write_str(s)
    }
}

/// One point of the exploration trace (drives Fig 11 and Fig 14).
///
/// Besides the objective trajectory, each record carries the step's
/// *deterministic* work counters — scheduling passes executed and
/// schedule-cache hits/misses observed during this step — plus its
/// wall-clock time. Equality deliberately ignores `wall_ms` (the one
/// non-deterministic field), preserving the byte-identical-trace
/// contracts across thread counts and reruns.
#[derive(Debug, Clone)]
pub struct IterRecord {
    /// Step number (0 = initial evaluation).
    pub iter: u32,
    /// Estimated area of the *current accepted* design.
    pub area_mm2: f64,
    /// Estimated power.
    pub power_mw: f64,
    /// Objective perf²/mm².
    pub objective: f64,
    /// Aggregate performance (geomean IPC across kernels).
    pub perf: f64,
    /// Whether this step's mutation was accepted.
    pub accepted: bool,
    /// Why the step was rejected (`None` when accepted). Lets post-hoc
    /// analysis distinguish "evaluated worse" from "crashed / timed out /
    /// infeasible" candidates.
    pub rejected_reason: Option<RejectReason>,
    /// Stochastic scheduling passes executed during this step
    /// (deterministic).
    pub sched_passes: u64,
    /// Schedule-cache hits (exact + footprint) observed during this step
    /// (deterministic).
    pub cache_hits: u64,
    /// Schedule-cache misses observed during this step (deterministic).
    pub cache_misses: u64,
    /// Wall-clock time of this step in milliseconds. **Excluded from
    /// equality** — timing is the one field allowed to differ between
    /// otherwise identical runs.
    pub wall_ms: f64,
}

impl PartialEq for IterRecord {
    /// All fields except `wall_ms` (see the type-level docs).
    fn eq(&self, other: &Self) -> bool {
        self.iter == other.iter
            && self.area_mm2 == other.area_mm2
            && self.power_mw == other.power_mw
            && self.objective == other.objective
            && self.perf == other.perf
            && self.accepted == other.accepted
            && self.rejected_reason == other.rejected_reason
            && self.sched_passes == other.sched_passes
            && self.cache_hits == other.cache_hits
            && self.cache_misses == other.cache_misses
    }
}

/// Final result of an exploration run.
#[derive(Debug, Clone)]
pub struct DseResult {
    /// The best design found (across all shards).
    pub best_adg: Adg,
    /// Its evaluation.
    pub best: DsePoint,
    /// The initial design's evaluation (as seen by the winning shard).
    pub initial: DsePoint,
    /// Full per-step trace of the winning shard.
    pub trace: Vec<IterRecord>,
    /// Every shard's full trace, indexed by shard number (a shard that
    /// panicked wholesale contributes an empty trace). For a serial run
    /// this is a single-element vector equal to [`DseResult::trace`].
    pub shard_traces: Vec<Vec<IterRecord>>,
    /// `Some` when the run stopped early at a [`RunControl`] boundary
    /// (cancellation or deadline) rather than converging naturally. The
    /// result is still a coherent best-so-far.
    pub stopped: Option<StopCause>,
}

impl DseResult {
    /// Area saved versus the initial hardware (the paper reports a mean of
    /// 42%, §VIII).
    #[must_use]
    pub fn area_saving(&self) -> f64 {
        1.0 - self.best.cost.area_mm2 / self.initial.cost.area_mm2.max(1e-12)
    }

    /// Objective improvement factor over the initial hardware (mean 12×
    /// in the paper).
    #[must_use]
    pub fn objective_gain(&self) -> f64 {
        self.best.objective / self.initial.objective.max(1e-12)
    }
}

/// Evaluation of one candidate design.
#[derive(Debug, Clone, PartialEq)]
pub struct DsePoint {
    /// perf² / mm².
    pub objective: f64,
    /// Geomean IPC across kernels (best legal version each).
    pub perf: f64,
    /// Area/power estimate from the regression model.
    pub cost: HwCost,
    /// Chosen version and IPC per kernel (`None` when no version mapped).
    pub per_kernel: Vec<Option<(usize, f64)>>,
}

/// The design-space explorer: owns the evolving design and the schedules
/// mapped onto it, the compiled kernel versions, and the schedule
/// memoization cache.
#[derive(Debug)]
pub struct Explorer {
    cfg: DseConfig,
    /// The current design and its mapping state.
    design: Design,
    /// Every kernel's compiled versions, shared by all forked shards.
    versions: Arc<Versions>,
    cache: ScheduleCache,
    /// Stochastic scheduling passes actually executed (cache misses).
    sched_invocations: u64,
    /// Schedules whose encoded configuration failed bitstream round-trip
    /// verification (each one a version written off, never simulated).
    config_rejections: u64,
    /// Memoized recovered-throughput factors, keyed by
    /// `(adg fingerprint, kernel hash)` — content-addressed, never stale.
    reliability_cache: HashMap<(u64, u64), f64>,
    rng: StdRng,
    area_model: AreaPowerModel,
    perf_model: PerfModel,
    /// Which shard this explorer is (0 for the serial / root explorer);
    /// stamped onto telemetry events.
    shard_index: usize,
    /// Telemetry handle — disabled by default, so instrumentation costs
    /// one branch per emission site. Cloned into every forked shard.
    telemetry: Telemetry,
    /// Disk-backed artifact-store tier for the schedule cache (warm start
    /// across processes). `None` (the default) keeps the explorer purely
    /// in-memory. Shared by every forked shard — sound because the
    /// scheduler seed is part of the store key.
    store: Option<ArtifactStore>,
    /// Cooperative cancellation/deadline control, checked at iteration
    /// boundaries. Shared (cloned) into every forked shard.
    control: RunControl,
    /// The failure the unit tests force, and the exploration step at which
    /// it strikes.
    #[cfg(test)]
    forced: Option<(u32, tests::ForcedFailure)>,
}

/// A design and the schedules mapped onto it: what a rejected step
/// reverts to and what the best design remembers.
#[derive(Debug, Clone)]
struct Design {
    adg: Adg,
    /// The outcome each `(kernel, version)` last adopted: its schedule
    /// (kept even when illegal, so repair can start from it) and, when
    /// legal, its footprint on the ADG it was adopted on.
    mapped: HashMap<(usize, usize), CacheEntry>,
}

/// Every kernel's compiled versions and what the explorer derives from
/// them once.
#[derive(Debug)]
struct Versions {
    /// Per kernel, the versions compiled against [`compile_features`].
    compiled: Vec<Vec<CompiledKernel>>,
    /// `CompiledKernel::content_hash` per version — half the cache key.
    hashes: Vec<Vec<u64>>,
    /// Every opcode some version uses: what mutation and the opening trim
    /// must keep.
    used_ops: OpSet,
}

/// A coherent snapshot of every explorer statistic, taken at one instant.
///
/// All counters are **cumulative since [`Explorer::new`]** and, after a
/// sharded [`Explorer::run`], **aggregated across every shard** (each
/// shard starts from fresh counters; the reduction absorbs them all, so
/// totals cover the whole run regardless of shard/thread layout).
/// Calling [`Explorer::run`] or [`Explorer::evaluate`] again keeps
/// accumulating — subtract two snapshots for per-run deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetrySnapshot {
    /// Schedule-cache hit/miss counters.
    pub cache: CacheStats,
    /// Stochastic scheduling passes executed (every cache hit is a pass
    /// *not* counted here).
    pub sched_invocations: u64,
    /// Schedules rejected by bitstream round-trip verification.
    pub config_rejections: u64,
}

impl TelemetrySnapshot {
    /// Field-wise difference (`self − earlier`) for per-run deltas.
    #[must_use]
    pub fn delta_since(&self, earlier: &TelemetrySnapshot) -> TelemetrySnapshot {
        TelemetrySnapshot {
            cache: CacheStats {
                exact_hits: self.cache.exact_hits - earlier.cache.exact_hits,
                footprint_hits: self.cache.footprint_hits - earlier.cache.footprint_hits,
                store_hits: self.cache.store_hits - earlier.cache.store_hits,
                misses: self.cache.misses - earlier.cache.misses,
                insertions: self.cache.insertions - earlier.cache.insertions,
            },
            sched_invocations: self.sched_invocations - earlier.sched_invocations,
            config_rejections: self.config_rejections - earlier.config_rejections,
        }
    }
}

impl std::fmt::Display for TelemetrySnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sched passes {} · cache {:.1}% hit ({} exact + {} footprint + {} store / {} \
lookups) · config rejections {}",
            self.sched_invocations,
            self.cache.hit_rate() * 100.0,
            self.cache.exact_hits,
            self.cache.footprint_hits,
            self.cache.store_hits,
            self.cache.lookups(),
            self.config_rejections
        )
    }
}
impl Explorer {
    /// Compiles every kernel into its candidate versions (against a
    /// maximal feature set, so versions survive hardware mutations) and
    /// prepares the explorer.
    #[must_use]
    pub fn new(adg: Adg, kernels: &[Kernel], cfg: DseConfig) -> Self {
        let features = compile_features(&adg);
        let compiled: Vec<Vec<CompiledKernel>> = kernels
            .iter()
            .map(|kernel| {
                enumerate_configs(kernel, &features, cfg.max_unroll)
                    .into_iter()
                    .filter_map(|config| compile_kernel(kernel, &config, &features).ok())
                    .collect()
            })
            .collect();
        let versions = Versions {
            hashes: compiled
                .iter()
                .map(|vs| vs.iter().map(CompiledKernel::content_hash).collect())
                .collect(),
            used_ops: compiled
                .iter()
                .flatten()
                .fold(OpSet::new(), |ops, ck| ops.union(ck.requires.ops)),
            compiled,
        };
        Explorer::fresh(cfg, adg, Arc::new(versions))
    }

    /// An explorer over `versions` about to search from `adg`: nothing
    /// mapped, an empty cache, zeroed counters and `cfg.seed` in the
    /// mutation RNG. It is shard 0, with telemetry disabled, no store and
    /// no run control, until a builder or [`Explorer::fork_shard`] says
    /// otherwise.
    fn fresh(cfg: DseConfig, adg: Adg, versions: Arc<Versions>) -> Explorer {
        Explorer {
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            design: Design {
                adg,
                mapped: HashMap::new(),
            },
            versions,
            cache: ScheduleCache::default(),
            sched_invocations: 0,
            config_rejections: 0,
            reliability_cache: HashMap::new(),
            area_model: AreaPowerModel::default(),
            perf_model: PerfModel::default(),
            shard_index: 0,
            telemetry: Telemetry::disabled(),
            store: None,
            control: RunControl::default(),
            #[cfg(test)]
            forced: None,
        }
    }

    /// Attaches a telemetry handle. The handle is cloned into every
    /// forked shard, so events from a sharded run share one sink (Chrome
    /// traces get one lane per worker thread). Instrumentation never
    /// changes exploration results — only observes them.
    #[must_use]
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.telemetry = tel;
        self
    }

    /// Attaches a disk-backed artifact store as an extra schedule-cache
    /// tier: in-memory misses consult the store (and re-verify whatever
    /// they load), and fresh scheduling results are persisted back.
    /// Entries are keyed by `(adg fingerprint, kernel hash, scheduler
    /// seed)`, so determinism in `(seed, shards)` is preserved — a store
    /// can never replay a schedule minted under a different seed.
    #[must_use]
    pub fn with_store(mut self, store: ArtifactStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Installs cooperative run control (cancellation token and/or
    /// deadline), checked at iteration boundaries of every shard.
    #[must_use]
    pub fn with_control(mut self, control: RunControl) -> Self {
        self.control = control;
        self
    }

    /// The current (accepted) design.
    #[must_use]
    pub fn adg(&self) -> &Adg {
        &self.design.adg
    }

    /// Schedule-cache hit/miss counters — cumulative since
    /// [`Explorer::new`], aggregated across shards after a sharded
    /// [`Explorer::run`] (see [`TelemetrySnapshot`] for the exact
    /// semantics shared with the other getters).
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Stochastic scheduling passes executed — cumulative since
    /// [`Explorer::new`], aggregated across shards after a sharded run.
    /// Every cache hit is a pass *not* counted here — the quantity the
    /// memoization exists to minimize.
    #[must_use]
    pub fn sched_invocations(&self) -> u64 {
        self.sched_invocations
    }

    /// All explorer statistics read at one instant, with one shared
    /// semantics (cumulative, shard-aggregated — see
    /// [`TelemetrySnapshot`]). Prefer this over calling the individual
    /// getters when reporting, so counters can never be mixed across
    /// moments.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            cache: self.cache.stats(),
            sched_invocations: self.sched_invocations,
            config_rejections: self.config_rejections,
        }
    }

    /// The record of step `iter`: `best` is the best point after it, the
    /// step was accepted unless `rejected` says why not, and its work
    /// counters are those accrued since `mark`, the instant and statistics
    /// at its top (deterministic, except `wall_ms`, which trace equality
    /// ignores). Emits the record as a `dse/iteration` event — free when
    /// telemetry is disabled — and returns it.
    fn record(
        &self,
        iter: u32,
        best: &DsePoint,
        rejected: Option<RejectReason>,
        (at, before): (Instant, TelemetrySnapshot),
    ) -> IterRecord {
        let step = self.telemetry_snapshot().delta_since(&before);
        let rec = IterRecord {
            iter,
            area_mm2: best.cost.area_mm2,
            power_mw: best.cost.power_mw,
            objective: best.objective,
            perf: best.perf,
            accepted: rejected.is_none(),
            rejected_reason: rejected,
            sched_passes: step.sched_invocations,
            cache_hits: step.cache.exact_hits + step.cache.footprint_hits,
            cache_misses: step.cache.misses,
            wall_ms: at.elapsed().as_secs_f64() * 1e3,
        };
        let m = self.telemetry.metrics();
        if m.is_enabled() {
            m.add("dse.iterations", 1);
            match rejected {
                None => m.add("dse.accepted", 1),
                Some(reason) => m.add(&format!("dse.rejections.{reason}"), 1),
            }
        }
        if let Some(reason) = rejected {
            self.telemetry.recorder().record("dse", || {
                (
                    "rejected".to_string(),
                    format!(
                        "iter={iter} shard={} reason={reason} objective={:.6}",
                        self.shard_index, rec.objective
                    ),
                )
            });
        }
        self.telemetry.emit(|| {
            let mut ev = EventData::new("dse", "iteration")
                .arg("iter", u64::from(rec.iter))
                .arg("shard", self.shard_index as u64)
                .arg("accepted", rec.accepted)
                .arg("objective", rec.objective)
                .arg("area_mm2", rec.area_mm2)
                .arg("perf", rec.perf)
                .arg("sched_passes", rec.sched_passes)
                .arg("cache_hits", rec.cache_hits)
                .arg("cache_misses", rec.cache_misses)
                .arg("wall_ms", rec.wall_ms);
            if let Some(reason) = rejected {
                ev = ev.arg("rejected", reason.to_string());
            }
            ev
        });
        rec
    }

    /// Deterministic opening trim (the paper's iteration 2: "the redundant
    /// features, including known unneeded functional units … are removed",
    /// §VIII-B): shrink every PE's opcode set to the union the compiled
    /// kernel versions can ever use. Pure area/power win; performance is
    /// untouched because no needed FU disappears.
    fn trim_redundant_features(&mut self) {
        let used = self.versions.used_ops;
        // Does any compiled version operate on sub-word data? If not, FU
        // and switch decomposability is pure overhead.
        let needs_subword = self.versions.compiled.iter().flatten().any(|v| {
            v.regions.iter().any(|r| {
                r.in_streams
                    .iter()
                    .chain(&r.out_streams)
                    .any(|s| s.elem_bytes < 8)
            })
        });
        let adg = &mut self.design.adg;
        let ids: Vec<_> = adg.pes().chain(adg.switches()).collect();
        for id in ids {
            match adg.node_mut(id).map(|node| &mut node.kind) {
                Some(dsagen_adg::NodeKind::Pe(pe)) => {
                    let trimmed = pe.ops.intersection(used);
                    if !trimmed.is_empty() {
                        pe.ops = trimmed;
                    }
                    pe.decomposable &= needs_subword;
                }
                Some(dsagen_adg::NodeKind::Switch(sw)) if !needs_subword => sw.decompose_to = None,
                _ => {}
            }
        }
    }

    /// Evaluates the current (already mutated) candidate behind a panic
    /// shield and budget checks.
    ///
    /// A panic anywhere in the compile → schedule → model chain is caught
    /// and converted into [`RejectReason::Panicked`]; the caller reverts to
    /// the backed-up design, so one pathological candidate can never abort
    /// the exploration. Evaluations that outrun
    /// [`DseConfig::eval_budget_ms`] are likewise rejected.
    fn evaluate_candidate(&mut self, iter: u32) -> Result<DsePoint, RejectReason> {
        let started = Instant::now();
        #[cfg(test)]
        if self.forced == Some((iter, tests::ForcedFailure::ConfigMismatch)) {
            self.config_rejections += 1;
            return Err(RejectReason::ConfigMismatch);
        }
        let config_rejections_before = self.config_rejections;
        let point = match catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            if self.forced == Some((iter, tests::ForcedFailure::Panic)) {
                panic!("forced panic at iteration {iter}");
            }
            self.evaluate()
        })) {
            Ok(point) => point,
            Err(_) => {
                self.telemetry
                    .recorder()
                    .record("dse", || ("panicked".to_string(), format!("iter={iter}")));
                let _ = self.telemetry.recorder().dump_on_error("dse_panicked");
                return Err(RejectReason::Panicked);
            }
        };
        // Any encoder/decoder disagreement during this evaluation rejects
        // the whole candidate: a design we cannot provably program is a
        // design we refuse to score.
        if self.config_rejections > config_rejections_before {
            return Err(RejectReason::ConfigMismatch);
        }
        if let Some(budget_ms) = self.cfg.eval_budget_ms {
            if started.elapsed() > Duration::from_millis(budget_ms) {
                self.telemetry.recorder().record("dse", || {
                    (
                        "timed_out".to_string(),
                        format!("iter={iter} budget_ms={budget_ms}"),
                    )
                });
                let _ = self.telemetry.recorder().dump_on_error("dse_timed_out");
                return Err(RejectReason::TimedOut);
            }
        }
        Ok(point)
    }

    /// Whether `cost` exceeds the area or power budget.
    fn over_budget(&self, cost: &HwCost) -> bool {
        cost.area_mm2 > self.cfg.area_budget_mm2 || cost.power_mw > POWER_BUDGET_MW
    }

    /// Why an evaluated-but-not-accepted candidate lost.
    fn classify_rejection(&self, point: &DsePoint) -> RejectReason {
        if self.over_budget(&point.cost) {
            RejectReason::OverBudget
        } else if point.per_kernel.iter().any(Option::is_none) {
            RejectReason::Unmappable
        } else {
            RejectReason::WorseObjective
        }
    }

    /// The serial exploration loop (§V steps 1–2e): mutate, evaluate with
    /// repaired + memoized schedules, accept improvements, revert
    /// regressions, stop after `patience` stale steps or `max_iters`.
    ///
    /// Candidate evaluation is panic-isolated and time-budgeted (see
    /// [`Explorer::evaluate_candidate`]); every rejected step carries a
    /// [`RejectReason`] in its [`IterRecord`], so a run always completes
    /// with a full trace even if individual candidates crash.
    fn run_serial(&mut self) -> DseResult {
        let mark = (Instant::now(), self.telemetry_snapshot());
        let initial = self.evaluate();
        let mut trace = vec![self.record(0, &initial, None, mark)];
        // Opening trim, then re-evaluate: this is the loop's baseline. A
        // trim that loses objective is undone, so the best design is always
        // the one the best point was measured on.
        let mark = (Instant::now(), self.telemetry_snapshot());
        let untrimmed = self.design.clone();
        self.trim_redundant_features();
        let trimmed = self.evaluate();
        #[cfg(test)]
        let trimmed = match self.forced {
            Some((0, tests::ForcedFailure::TrimLoses)) => DsePoint {
                objective: initial.objective / 2.0,
                ..trimmed
            },
            _ => trimmed,
        };
        let mut best = if trimmed.objective >= initial.objective {
            trimmed
        } else {
            self.design = untrimmed;
            initial.clone()
        };
        trace.push(self.record(0, &best, None, mark));
        let mut best_design = self.design.clone();
        let mut stale = 0u32;
        let mut stopped = None;

        for iter in 1..=self.cfg.max_iters {
            // Cooperative stop: cancellation and deadline are honored at
            // iteration boundaries only, so the trace never ends inside a
            // half-evaluated step.
            if let Some(cause) = self.control.should_stop() {
                stopped = Some(cause);
                self.telemetry.metrics().add("dse.stopped", 1);
                self.telemetry.recorder().record("dse", || {
                    (
                        "stopped".to_string(),
                        format!("iter={iter} shard={} cause={cause}", self.shard_index),
                    )
                });
                break;
            }
            let mark = (Instant::now(), self.telemetry_snapshot());
            let backup = self.design.clone();
            // Mutate (redraw until something applies, bounded).
            let used_ops = self.versions.used_ops;
            let mutated =
                (0..12).any(|_| mutate(&mut self.design.adg, &mut self.rng, &used_ops).is_some());
            let rejected = if !mutated {
                Some(RejectReason::NoMutation)
            } else {
                match self.evaluate_candidate(iter) {
                    Ok(point) if point.objective > best.objective => {
                        best = point;
                        best_design = self.design.clone();
                        None
                    }
                    Ok(point) => Some(self.classify_rejection(&point)),
                    // The candidate crashed or outran its budget mid-way;
                    // the explorer state may be half-updated, and the
                    // restore below puts the backed-up design back whole.
                    Err(reason) => Some(reason),
                }
            };
            if rejected.is_some() {
                self.design = backup;
                stale += 1;
            } else {
                stale = 0;
            }
            trace.push(self.record(iter, &best, rejected, mark));
            if stale >= self.cfg.patience {
                break;
            }
        }

        self.design = best_design.clone();
        DseResult {
            best_adg: best_design.adg,
            best,
            initial,
            shard_traces: vec![trace.clone()],
            trace,
            stopped,
        }
    }
}

/// Convenience: explore `kernels` starting from `initial`.
pub fn explore(initial: Adg, kernels: &[Kernel], cfg: DseConfig) -> DseResult {
    Explorer::new(initial, kernels, cfg).run()
}

/// The feature set kernel versions compile against: `adg`'s own, widened
/// to everything a mutation may add, so versions survive hardware
/// mutations.
fn compile_features(adg: &Adg) -> FeatureSet {
    let mut features = adg.features();
    features.indirect_memory = true;
    features.atomic_update = true;
    features.banked_memory = true;
    features.stream_join_pes = features.stream_join_pes.max(8);
    features.op_union = OpSet::all();
    features
}

#[cfg(test)]
pub(crate) mod tests {
    use dsagen_adg::{presets, BitWidth, Opcode, SwitchSpec};
    use dsagen_dfg::{AffineExpr, KernelBuilder, MemClass, TripCount};
    use dsagen_scheduler::{Problem, Schedule};

    use super::*;
    use crate::cache::schedule_footprint;

    /// A failure forced inside candidate evaluation, to exercise the rollback
    /// paths without a candidate that genuinely panics or an encoder that
    /// genuinely disagrees with its decoder.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum ForcedFailure {
        /// Panic inside the panic shield.
        Panic,
        /// Report the candidate's configuration as failing bitstream round-trip
        /// verification.
        ConfigMismatch,
        /// Score the opening trim (step 0) below the untrimmed design.
        TrimLoses,
    }

    /// Builds the two test kernels, propagating builder errors instead of
    /// unwrapping so a malformed fixture reports *what* failed.
    fn try_small_kernels() -> Result<Vec<Kernel>, dsagen_dfg::DfgError> {
        let mut out = Vec::new();
        // axpy
        let mut k = KernelBuilder::new("axpy");
        let a = k.array("a", BitWidth::B64, 256, MemClass::MainMemory);
        let b = k.array("b", BitWidth::B64, 256, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(256), true);
        let va = r.load(a, AffineExpr::var(i));
        let vb = r.load(b, AffineExpr::var(i));
        let two = r.imm(2);
        let m = r.bin(Opcode::Mul, va, two);
        let s = r.bin(Opcode::Add, m, vb);
        r.store(b, AffineExpr::var(i), s);
        k.finish_region(r);
        out.push(k.build()?);
        // dot
        let mut k = KernelBuilder::new("dot");
        let a = k.array("a", BitWidth::B64, 256, MemClass::MainMemory);
        let b = k.array("b", BitWidth::B64, 256, MemClass::MainMemory);
        let c = k.array("c", BitWidth::B64, 1, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(256), true);
        let va = r.load(a, AffineExpr::var(i));
        let vb = r.load(b, AffineExpr::var(i));
        let p = r.bin(Opcode::Mul, va, vb);
        let acc = r.reduce(Opcode::Add, p, i);
        r.store(c, AffineExpr::constant(0), acc);
        k.finish_region(r);
        out.push(k.build()?);
        Ok(out)
    }

    pub(crate) fn small_kernels() -> Vec<Kernel> {
        match try_small_kernels() {
            Ok(ks) => ks,
            Err(e) => panic!("test kernel fixture failed to build: {e}"),
        }
    }

    fn quick_cfg() -> DseConfig {
        DseConfig {
            max_iters: 20,
            patience: 20,
            sched_iters: 40,
            max_unroll: 4,
            ..DseConfig::default()
        }
    }

    /// `quick_cfg` pinned to one shard on one thread — for tests whose
    /// assertions are about the serial trace shape.
    fn serial_cfg() -> DseConfig {
        DseConfig {
            shards: 1,
            threads: 1,
            ..quick_cfg()
        }
    }

    /// [`explore`] with `failure` forced at exploration step `at`.
    fn explore_forcing(at: u32, failure: ForcedFailure, cfg: DseConfig) -> DseResult {
        let mut ex = Explorer::new(presets::dse_initial(), &small_kernels(), cfg);
        ex.forced = Some((at, failure));
        ex.run()
    }

    #[test]
    fn initial_evaluation_is_feasible() {
        let mut ex = Explorer::new(presets::dse_initial(), &small_kernels(), quick_cfg());
        let p = ex.evaluate();
        assert!(p.objective > 0.0, "point: {p:?}");
        assert!(p.per_kernel.iter().all(Option::is_some));
    }

    #[test]
    fn reliability_mode_is_deterministic_and_only_shrinks_perf() {
        let mode = ReliabilityMode {
            faults: 1,
            horizon: 1024,
            ..ReliabilityMode::default()
        };
        let cfg = DseConfig {
            reliability: Some(mode),
            ..serial_cfg()
        };
        let pa = Explorer::new(presets::dse_initial(), &small_kernels(), cfg).evaluate();
        let pb = Explorer::new(presets::dse_initial(), &small_kernels(), cfg).evaluate();
        assert_eq!(
            pa.objective, pb.objective,
            "reliability scoring must be deterministic"
        );
        assert_eq!(pa.perf, pb.perf);
        assert!(pa.objective.is_finite() && pa.objective >= 0.0);

        // Recovered throughput can never exceed fault-free throughput.
        let plain_cfg = DseConfig {
            reliability: None,
            ..cfg
        };
        let pc = Explorer::new(presets::dse_initial(), &small_kernels(), plain_cfg).evaluate();
        assert!(
            pa.perf <= pc.perf + 1e-9,
            "reliability perf {} exceeds fault-free perf {}",
            pa.perf,
            pc.perf
        );

        // weight = 0 degenerates to the classic objective exactly.
        let neutral_cfg = DseConfig {
            reliability: Some(ReliabilityMode {
                weight: 0.0,
                ..mode
            }),
            ..cfg
        };
        let pn = Explorer::new(presets::dse_initial(), &small_kernels(), neutral_cfg).evaluate();
        assert_eq!(pn.perf, pc.perf, "weight=0 must not perturb the objective");
        assert_eq!(pn.objective, pc.objective);
    }

    #[test]
    fn blast_radius_pressure_is_deterministic_and_only_shrinks_perf() {
        let base = ReliabilityMode {
            faults: 1,
            horizon: 1024,
            blast_weight: 0.0,
            ..ReliabilityMode::default()
        };
        let pressured = ReliabilityMode {
            blast_weight: 1.0,
            ..base
        };
        let eval_with = |mode| {
            Explorer::new(
                presets::dse_initial(),
                &small_kernels(),
                DseConfig {
                    reliability: Some(mode),
                    ..serial_cfg()
                },
            )
            .evaluate()
        };
        let plain = eval_with(base);
        let blast = eval_with(pressured);
        // The isolation scale is ≤ 1, so blast pressure can only shrink
        // perceived performance, never inflate it.
        assert!(
            blast.perf <= plain.perf + 1e-9,
            "blast-pressured perf {} exceeds unpressured perf {}",
            blast.perf,
            plain.perf
        );
        assert!(blast.objective.is_finite() && blast.objective >= 0.0);
        let again = eval_with(pressured);
        assert_eq!(
            blast.objective, again.objective,
            "blast scoring must be deterministic"
        );
    }

    #[test]
    fn exploration_never_regresses_best() {
        let result = explore(presets::dse_initial(), &small_kernels(), quick_cfg());
        let mut prev = 0.0;
        for rec in &result.trace {
            assert!(rec.objective + 1e-12 >= prev, "objective regressed");
            prev = rec.objective;
        }
        assert!(result.best.objective >= result.initial.objective);
    }

    #[test]
    fn exploration_is_deterministic() {
        let a = explore(presets::dse_initial(), &small_kernels(), quick_cfg());
        let b = explore(presets::dse_initial(), &small_kernels(), quick_cfg());
        assert_eq!(a.best.objective, b.best.objective);
        assert_eq!(a.trace.len(), b.trace.len());
    }

    #[test]
    fn budget_zero_rejects_everything() {
        let cfg = DseConfig {
            area_budget_mm2: 0.0,
            ..quick_cfg()
        };
        let mut ex = Explorer::new(presets::dse_initial(), &small_kernels(), cfg);
        let p = ex.evaluate();
        assert_eq!(p.objective, 0.0);
    }

    #[test]
    fn opening_trim_strips_decomposability_for_wide_kernels() {
        // All test kernels are 64-bit, so FU/switch decomposability is a
        // redundant feature the opening trim must remove.
        let cfg = DseConfig {
            max_iters: 2,
            patience: 2,
            sched_iters: 30,
            max_unroll: 2,
            ..DseConfig::default()
        };
        let mut ex = Explorer::new(presets::dse_initial(), &small_kernels(), cfg);
        assert!(presets::dse_initial().features().decomposable);
        let _ = ex.run();
        assert!(
            !ex.adg().features().decomposable,
            "trim should strip decomposability"
        );
    }

    #[test]
    fn repair_mode_tracks_schedules_across_steps() {
        let cfg = DseConfig {
            max_iters: 6,
            ..quick_cfg()
        };
        let mut ex = Explorer::new(presets::dse_initial(), &small_kernels(), cfg);
        let _ = ex.run();
        assert!(!ex.design.mapped.is_empty());
    }

    #[test]
    fn forced_panic_is_isolated_and_recorded_in_trace() {
        // A candidate evaluation that panics must not abort the search: the
        // step is rejected with `RejectReason::Panicked` and exploration
        // continues through the remaining iterations.
        let cfg = DseConfig {
            max_iters: 6,
            ..serial_cfg()
        };
        let result = explore_forcing(2, ForcedFailure::Panic, cfg);
        let panicked: Vec<_> = result
            .trace
            .iter()
            .filter(|r| r.rejected_reason == Some(RejectReason::Panicked))
            .collect();
        assert_eq!(panicked.len(), 1, "exactly one forced panic expected");
        assert_eq!(panicked[0].iter, 2);
        assert!(!panicked[0].accepted);
        // Exploration ran past the panicking iteration.
        let last = result.trace.last().map_or(0, |r| r.iter);
        assert!(last > 2, "search stopped at iter {last}, expected > 2");
        assert!(result.best.objective > 0.0, "best point stays feasible");
    }

    #[test]
    fn panic_rollback_keeps_search_deterministic() {
        // After a caught panic the explorer restores the pre-step ADG and
        // schedules, so the surviving iterations match a panic-free run
        // step-for-step (modulo the panicked record itself). Pinned to a
        // single serial shard: the comparison is about one search's
        // history, not about shard reduction.
        let clean = explore(presets::dse_initial(), &small_kernels(), serial_cfg());
        let faulty = explore_forcing(3, ForcedFailure::Panic, serial_cfg());
        assert_eq!(clean.trace.len(), faulty.trace.len());
        for (c, f) in clean.trace.iter().zip(&faulty.trace) {
            if f.rejected_reason == Some(RejectReason::Panicked) {
                continue; // the panicked step rejects where the clean run may accept
            }
            // Objectives can only diverge if the panicked step would have
            // been accepted in the clean run; the best never regresses.
            assert!(f.objective <= c.objective + 1e-12, "iter {}", f.iter);
        }
        assert!(faulty.best.objective > 0.0);
    }

    #[test]
    fn zero_time_budget_times_out_every_candidate() {
        let cfg = DseConfig {
            max_iters: 4,
            eval_budget_ms: Some(0),
            ..serial_cfg()
        };
        let result = explore(presets::dse_initial(), &small_kernels(), cfg);
        // The initial evaluation is exempt (it seeds the search), but every
        // mutation step must be rejected as timed-out.
        let steps: Vec<_> = result.trace.iter().filter(|r| r.iter > 0).collect();
        assert!(!steps.is_empty());
        for rec in steps {
            assert!(!rec.accepted);
            assert!(
                matches!(
                    rec.rejected_reason,
                    Some(RejectReason::TimedOut) | Some(RejectReason::NoMutation)
                ),
                "iter {}: {:?}",
                rec.iter,
                rec.rejected_reason
            );
        }
        // Only the iter-0 seeding (initial evaluation + opening trim) may
        // have contributed to the best point; no timed-out step did.
        let best_seed = result
            .trace
            .iter()
            .filter(|r| r.iter == 0)
            .map(|r| r.objective)
            .fold(0.0_f64, f64::max);
        assert_eq!(result.best.objective, best_seed);
    }

    #[test]
    fn reject_reasons_render_stable_labels() {
        for (reason, label) in [
            (RejectReason::Panicked, "panicked"),
            (RejectReason::TimedOut, "timed-out"),
            (RejectReason::OverBudget, "over-budget"),
            (RejectReason::Unmappable, "unmappable"),
            (RejectReason::WorseObjective, "worse-objective"),
            (RejectReason::NoMutation, "no-mutation"),
            (RejectReason::ConfigMismatch, "config-mismatch"),
        ] {
            assert_eq!(reason.to_string(), label);
        }
    }

    #[test]
    fn healthy_exploration_never_rejects_on_config_integrity() {
        // Every schedule the explorer accepts has passed bitstream
        // round-trip verification; on a sane encoder/decoder pair the
        // rejection counter stays at zero.
        let mut ex = Explorer::new(presets::dse_initial(), &small_kernels(), quick_cfg());
        let p = ex.evaluate();
        assert!(p.per_kernel.iter().all(Option::is_some));
        assert_eq!(
            ex.telemetry_snapshot().config_rejections,
            0,
            "encoder/decoder disagreed on a healthy design"
        );
    }

    #[test]
    fn forced_config_failure_is_a_first_class_rejection() {
        // The forced failure stands in for a round-trip verification
        // failure: the step must be rejected with `ConfigMismatch`, the
        // design reverted, and the search continue.
        let cfg = DseConfig {
            max_iters: 6,
            ..serial_cfg()
        };
        let result = explore_forcing(2, ForcedFailure::ConfigMismatch, cfg);
        let rejected: Vec<_> = result
            .trace
            .iter()
            .filter(|r| r.rejected_reason == Some(RejectReason::ConfigMismatch))
            .collect();
        assert_eq!(rejected.len(), 1, "exactly one forced config failure");
        assert_eq!(rejected[0].iter, 2);
        assert!(!rejected[0].accepted);
        let last = result.trace.last().map_or(0, |r| r.iter);
        assert!(last > 2, "search stopped at iter {last}, expected > 2");
        assert!(result.best.objective > 0.0, "best point stays feasible");
    }

    #[test]
    fn config_failure_rollback_keeps_search_deterministic() {
        // After a config rejection the explorer restores the pre-step
        // design, so the surviving iterations match a clean run's best
        // trajectory (the rejected step can only lose an acceptance).
        let clean = explore(presets::dse_initial(), &small_kernels(), serial_cfg());
        let faulty = explore_forcing(3, ForcedFailure::ConfigMismatch, serial_cfg());
        assert_eq!(clean.trace.len(), faulty.trace.len());
        for (c, f) in clean.trace.iter().zip(&faulty.trace) {
            if f.rejected_reason == Some(RejectReason::ConfigMismatch) {
                continue;
            }
            assert!(f.objective <= c.objective + 1e-12, "iter {}", f.iter);
        }
        assert!(faulty.best.objective > 0.0);
    }

    #[test]
    fn a_losing_opening_trim_keeps_the_untrimmed_design() {
        // When the trimmed design scores below the untrimmed one, the
        // baseline is the untrimmed point, so the best design must be the
        // untrimmed one too.
        let cfg = DseConfig {
            max_iters: 0,
            ..serial_cfg()
        };
        let result = explore_forcing(0, ForcedFailure::TrimLoses, cfg);
        assert_eq!(result.best, result.initial);
        assert!(
            presets::dse_initial().features().decomposable,
            "the trim has work to do"
        );
        assert_eq!(result.best_adg, presets::dse_initial());

        let mut ex = Explorer::new(presets::dse_initial(), &small_kernels(), cfg);
        ex.forced = Some((0, ForcedFailure::TrimLoses));
        let _ = ex.run();
        assert_eq!(ex.adg(), &presets::dse_initial());
        // The mapping state went back with the design: re-evaluating it
        // replays every version exactly.
        let hits = ex.cache_stats().exact_hits;
        assert_eq!(ex.evaluate(), result.initial);
        assert!(ex.cache_stats().exact_hits > hits);
    }

    #[test]
    fn store_tier_rejects_an_impostor() {
        use dsagen_store::{open_default, Artifact, ArtifactKey};

        let root = std::env::temp_dir().join(format!("dsagen-dse-impostor-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = open_default(&root).expect("open a scratch store");
        let cfg = quick_cfg();
        let mut ex =
            Explorer::new(presets::dse_initial(), &small_kernels(), cfg).with_store(store.clone());

        // The first version `evaluate` will look up, under the exact key
        // the store tier reads.
        let features = ex.design.adg.features();
        let key = ex.versions.compiled[0]
            .iter()
            .position(|v| v.requires.satisfied_by(&features))
            .map(|vi| (0, vi))
            .expect("axpy has a version for the initial design");
        let version = &ex.versions.compiled[key.0][key.1];
        // The impostor piles every entity onto one PE and routes nothing.
        let pe = ex
            .design
            .adg
            .pes()
            .next()
            .expect("the initial design has PEs");
        let entities = Problem::new(&ex.design.adg, version).entities.len();
        let impostor = Schedule {
            placement: vec![Some(pe); entities],
            routes: std::collections::BTreeMap::new(),
        };
        let store_key = ArtifactKey {
            adg_fp: ex.design.adg.fingerprint(),
            kernel_hash: ex.versions.hashes[key.0][key.1],
            sched_seed: cfg.seed ^ 0x5EED,
        };
        store
            .put(&Artifact {
                key: store_key,
                schedule: impostor.clone(),
                perf: Some(1e9),
                footprint: None,
                config_words: Vec::new(),
            })
            .expect("put the impostor");
        assert!(
            store.get(store_key).expect("read back").is_some(),
            "the store serves it"
        );

        let _ = ex.evaluate();
        let stats = ex.cache_stats();
        let _ = std::fs::remove_dir_all(&root);
        assert_eq!(stats.store_hits, 0, "the impostor was served: {stats:?}");
        assert_eq!(
            stats.misses,
            stats.lookups(),
            "every lookup ran a fresh pass"
        );
        assert!(ex.sched_invocations() > 0);
        assert_ne!(ex.design.mapped[&key].schedule, impostor);
    }

    #[test]
    fn shard_zero_keeps_the_configured_seed() {
        assert_eq!(shard_seed(0xD5E, 0), 0xD5E);
        // Later shards diverge, and distinct shards get distinct seeds.
        let seeds: Vec<u64> = (0..8).map(|s| shard_seed(0xD5E, s)).collect();
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b, "shard seeds must not collide");
            }
        }
    }

    #[test]
    fn single_shard_run_matches_legacy_serial_run() {
        // `shards = 1` must reproduce the serial explorer exactly — the
        // compatibility contract that keeps historical traces comparable.
        let serial = explore(presets::dse_initial(), &small_kernels(), serial_cfg());
        let auto = explore(
            presets::dse_initial(),
            &small_kernels(),
            DseConfig {
                shards: 1,
                threads: 4, // executor width is irrelevant at one shard
                ..quick_cfg()
            },
        );
        assert_eq!(serial.trace, auto.trace);
        assert_eq!(serial.best.objective, auto.best.objective);
        assert_eq!(auto.shard_traces.len(), 1);
        assert_eq!(auto.shard_traces[0], auto.trace);
    }

    #[test]
    fn sharded_run_is_thread_count_invariant() {
        // Same (seed, shards), different executor widths: byte-identical.
        let mk = |threads: usize| {
            explore(
                presets::dse_initial(),
                &small_kernels(),
                DseConfig {
                    shards: 3,
                    threads,
                    max_iters: 8,
                    patience: 8,
                    ..quick_cfg()
                },
            )
        };
        let one = mk(1);
        let four = mk(4);
        assert_eq!(one.trace, four.trace);
        assert_eq!(one.shard_traces, four.shard_traces);
        assert_eq!(one.best.objective.to_bits(), four.best.objective.to_bits());
        assert_eq!(one.best_adg, four.best_adg);
        assert_eq!(one.shard_traces.len(), 3);
    }

    #[test]
    fn default_shard_count_does_not_follow_the_thread_count() {
        // `threads` is only an executor width: the default configuration
        // runs the same search however many workers it is given.
        let mk = |threads: usize| {
            let cfg = DseConfig {
                max_iters: 4,
                patience: 4,
                sched_iters: 30,
                max_unroll: 1,
                threads,
                ..DseConfig::default()
            };
            explore(presets::dse_initial(), &small_kernels(), cfg)
        };
        let (one, two) = (mk(1), mk(2));
        assert_eq!(one.shard_traces.len(), 1);
        assert_eq!(one.shard_traces, two.shard_traces);
        assert_eq!(one.best.objective.to_bits(), two.best.objective.to_bits());
        assert_eq!(one.best_adg, two.best_adg);
    }

    #[test]
    fn sharded_best_is_at_least_the_serial_best() {
        // Shard 0 *is* the serial search, so adding shards can only help.
        let serial = explore(presets::dse_initial(), &small_kernels(), serial_cfg());
        let sharded = explore(
            presets::dse_initial(),
            &small_kernels(),
            DseConfig {
                shards: 2,
                threads: 2,
                ..quick_cfg()
            },
        );
        assert!(
            sharded.best.objective >= serial.best.objective - 1e-12,
            "sharded {} < serial {}",
            sharded.best.objective,
            serial.best.objective
        );
    }

    #[test]
    fn revisited_designs_replay_from_the_cache() {
        // Evaluating the same design twice must answer every version
        // lookup from the cache the second time, with an identical point
        // and no extra stochastic scheduling passes.
        let mut ex = Explorer::new(presets::dse_initial(), &small_kernels(), quick_cfg());
        let first = ex.evaluate();
        let invocations = ex.sched_invocations();
        assert!(invocations > 0);
        let second = ex.evaluate();
        assert_eq!(first, second, "cached replay must be bit-identical");
        assert_eq!(
            ex.sched_invocations(),
            invocations,
            "no new scheduling passes on a revisited design"
        );
        assert!(ex.cache_stats().exact_hits > 0);
    }

    #[test]
    fn mutation_outside_mapped_footprint_skips_rescheduling() {
        // Regression: `evaluate` used to re-run the stochastic scheduler
        // for every kernel even when a mutation only touched components no
        // schedule was mapped onto. Now the footprint fast path rebases
        // the previous schedules and the scheduling-pass count stays flat.
        let mut ex = Explorer::new(presets::dse_initial(), &small_kernels(), quick_cfg());
        let first = ex.evaluate();
        assert!(first.per_kernel.iter().all(Option::is_some));
        let invocations = ex.sched_invocations();

        // Mutate hardware no kernel can be mapped onto: an unconnected
        // switch changes the graph fingerprint but no schedule footprint.
        ex.design.adg.add_switch(SwitchSpec::new(BitWidth::B64));
        let second = ex.evaluate();
        assert!(second.per_kernel.iter().all(Option::is_some));
        assert_eq!(
            ex.sched_invocations(),
            invocations,
            "footprint-intact mutation must not re-run the scheduler"
        );
        let stats = ex.cache_stats();
        assert!(
            stats.footprint_hits > 0,
            "expected footprint rebases, got {stats:?}"
        );
        assert!(stats.hit_rate() > 0.0);
    }

    #[test]
    fn disabling_the_cache_restores_raw_scheduling() {
        let cfg = DseConfig {
            use_cache: false,
            ..quick_cfg()
        };
        let mut ex = Explorer::new(presets::dse_initial(), &small_kernels(), cfg);
        let _ = ex.evaluate();
        let invocations = ex.sched_invocations();
        let _ = ex.evaluate();
        assert!(
            ex.sched_invocations() > invocations,
            "cache disabled: every evaluation schedules afresh"
        );
        assert_eq!(ex.cache_stats().lookups(), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(6))]

        /// Footprint-rebase negative path: a memoized schedule whose
        /// footprint *fingerprint* still matches the mutated ADG but which
        /// is not actually rebasable (here: an impostor piling every op
        /// onto one node, simulating a fingerprint collision) must fall
        /// through to a cache miss and a fresh scheduling pass — never be
        /// served as a footprint hit.
        #[test]
        fn poisoned_footprint_collision_falls_through_to_miss(seed in 0u64..64) {
            use rand::SeedableRng;

            let mut ex = Explorer::new(presets::dse_initial(), &small_kernels(), quick_cfg());
            let clean = ex.evaluate();
            proptest::prop_assert!(clean.per_kernel.iter().all(Option::is_some));

            // Mutate the hardware with the explorer's own operator so the
            // graph fingerprint changes (no exact replay is possible).
            let original_fp = ex.design.adg.fingerprint();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut mutated = false;
            for _ in 0..3 {
                mutated |= mutate(&mut ex.design.adg, &mut rng, &ex.versions.used_ops).is_some();
            }
            if !mutated || ex.design.adg.fingerprint() == original_fp {
                // Vacuous: nothing changed (or the mutations cancelled
                // out, making exact replay the correct answer).
                return Ok(());
            }

            // Keys `evaluate` will actually visit on the mutated hardware
            // (a mutation may leave a version's feature requirements
            // unsatisfied, in which case it is skipped without any lookup).
            let features = ex.design.adg.features();
            let mut visitable: Vec<(usize, usize)> = Vec::new();
            for (ki, versions) in ex.versions.compiled.iter().enumerate() {
                for (vi, version) in versions.iter().enumerate() {
                    if version.requires.satisfied_by(&features) {
                        visitable.push((ki, vi));
                    }
                }
            }

            // Poison every memoized schedule with the impostor, pinning
            // the recorded footprint fingerprint to the impostor's own so
            // the fingerprint equality check passes.
            let mut poisoned: HashMap<(usize, usize), Schedule> = HashMap::new();
            let keys: Vec<_> = ex.design.mapped.keys().copied().collect();
            for key in keys {
                let mut garbage = ex.design.mapped[&key].schedule.clone();
                let Some(first) = garbage.placement.iter().copied().flatten().next() else {
                    continue;
                };
                for slot in &mut garbage.placement {
                    if slot.is_some() {
                        *slot = Some(first);
                    }
                }
                garbage.routes.clear();
                let Some(fp) = schedule_footprint(&ex.design.adg, &garbage) else {
                    continue;
                };
                let mapped = ex.design.mapped.get_mut(&key).expect("key listed above");
                mapped.schedule = garbage.clone();
                mapped.footprint = Some(fp);
                poisoned.insert(key, garbage);
            }
            let expect_miss: Vec<_> = visitable
                .iter()
                .filter(|k| poisoned.contains_key(k))
                .collect();
            if expect_miss.is_empty() {
                return Ok(()); // no poisoned key will be visited under this seed
            }

            let misses_before = ex.cache_stats().misses;
            let invocations_before = ex.sched_invocations();
            let second = ex.evaluate();

            // A kernel may legitimately fail to map on the mutated
            // hardware (per_kernel None) — what must never happen is the
            // impostor being *served*: every visited poisoned key
            // registers a miss and a fresh scheduling pass.
            let _ = second;
            proptest::prop_assert!(
                ex.cache_stats().misses >= misses_before + expect_miss.len() as u64,
                "every visited poisoned key must register a miss \
    (before {misses_before}, after {}, poisoned visited {})",
                ex.cache_stats().misses,
                expect_miss.len()
            );
            proptest::prop_assert!(
                ex.sched_invocations() > invocations_before,
                "poisoned keys must trigger fresh scheduling passes"
            );
            // ...and no impostor may survive as the memoized schedule.
            for (key, garbage) in &poisoned {
                if let Some(now) = ex.design.mapped.get(key) {
                    proptest::prop_assert!(
                        &now.schedule != garbage,
                        "impostor schedule served for {key:?}"
                    );
                }
            }
        }
    }
}
