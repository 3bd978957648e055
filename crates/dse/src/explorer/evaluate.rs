//! Candidate evaluation: the four tiers, their shared check, and adopt.

use std::cell::OnceCell;
use std::sync::Arc;

use dsagen_dfg::CompiledKernel;
use dsagen_faults::FaultSchedule;
use dsagen_hwgen::{generate_config_paths, verify_round_trip_timed, VerifiedConfig};
use dsagen_model::objective;
use dsagen_scheduler::{
    evaluate as evaluate_schedule, schedule, Evaluation, Problem, Schedule, SchedulerConfig, Start,
};
use dsagen_store::{Artifact, ArtifactKey};
use dsagen_telemetry::{log, Level};

use super::{DsePoint, Explorer, ReliabilityMode};
use crate::cache::{schedule_footprint, CacheEntry, Tier};

/// What every version lookup of one [`Explorer::evaluate`] shares.
struct Lookup {
    adg_fp: u64,
    sched_cfg: SchedulerConfig,
    /// The design's longest configuration path, built on first use: an
    /// evaluation that only replays exact hits never reads it.
    config_len: OnceCell<u32>,
}

impl Lookup {
    /// The artifact-store key of the version whose content hash is `hash`.
    fn store_key(&self, hash: u64) -> ArtifactKey {
        ArtifactKey {
            adg_fp: self.adg_fp,
            kernel_hash: hash,
            sched_seed: self.sched_cfg.seed,
        }
    }
}

/// Why a schedule failed [`Explorer::check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unfit {
    /// It does not evaluate feasible on the current design.
    Infeasible,
    /// Its encoded bitstream does not decode back to it.
    ConfigMismatch,
}

impl Explorer {
    /// Evaluates the current design: schedules every satisfiable version
    /// of every kernel (repairing previous schedules where enabled), picks
    /// the best legal version per kernel by modeled performance, and
    /// computes perf²/mm² (§V steps 2b–2d).
    ///
    /// Each version is answered by the first tier that can — exact
    /// replay, artifact store, footprint rebase, fresh pass; the first
    /// three only with the cache on — and every answer is adopted the
    /// same way: into the mapping state, the cache and the tier's
    /// [`CacheStats`](crate::CacheStats) counter.
    pub fn evaluate(&mut self) -> DsePoint {
        let features = self.design.adg.features();
        let cost = self.area_model.estimate_adg(&self.design.adg);
        let lookup = Lookup {
            adg_fp: self.design.adg.fingerprint(),
            sched_cfg: SchedulerConfig {
                max_iters: self.cfg.sched_iters,
                seed: self.cfg.seed ^ 0x5EED,
                ..SchedulerConfig::default()
            },
            config_len: OnceCell::new(),
        };

        let versions = Arc::clone(&self.versions);
        let mut per_kernel = Vec::with_capacity(versions.compiled.len());
        for (ki, kernel_versions) in versions.compiled.iter().enumerate() {
            let mut best: Option<(usize, f64)> = None;
            for (vi, version) in kernel_versions.iter().enumerate() {
                if !version.requires.satisfied_by(&features) {
                    continue;
                }
                let key = (ki, vi);
                let hash = versions.hashes[ki][vi];
                let found = if self.cfg.use_cache {
                    let exact = self.cache.lookup(lookup.adg_fp, hash).cloned();
                    exact
                        .map(|entry| (Tier::Exact, entry))
                        .or_else(|| Some((Tier::Store, self.load_stored(version, hash, &lookup)?)))
                        .or_else(|| Some((Tier::Footprint, self.rebase(key, version, &lookup)?)))
                } else {
                    None
                };
                let (tier, entry) = found.unwrap_or_else(|| {
                    (
                        Tier::Fresh,
                        self.schedule_afresh(key, version, hash, &lookup),
                    )
                });
                if let Some(perf) = self.adopt(key, hash, tier, entry, &lookup) {
                    if best.is_none_or(|(_, p)| perf > p) {
                        best = Some((vi, perf));
                    }
                }
            }
            per_kernel.push(best);
        }

        // Aggregate after the version loop so reliability scoring (which
        // needs `&mut self` for its memo cache) can run per winner.
        let mut log_perf_sum = 0.0;
        for (ki, entry) in per_kernel.iter().enumerate() {
            if let Some((vi, perf)) = *entry {
                let mult = match self.cfg.reliability {
                    Some(mode) => self.reliability_multiplier((ki, vi), mode, &lookup),
                    None => 1.0,
                };
                log_perf_sum += (perf * mult).max(1e-9).ln();
            }
        }

        let n = per_kernel.len().max(1) as f64;
        let perf = if per_kernel.iter().any(Option::is_none) {
            1e-6 // unmappable kernels make the design essentially worthless
        } else {
            (log_perf_sum / n).exp()
        };
        let obj = if self.over_budget(&cost) {
            0.0 // over budget: never accepted
        } else {
            objective(perf, cost.area_mm2)
        };
        DsePoint {
            objective: obj,
            perf,
            cost,
            per_kernel,
        }
    }

    /// Adopts `entry` as version `key`'s outcome on the current design and
    /// returns its modeled performance (`None` when it does not map): the
    /// mapping state takes it, and with the cache on the cache memoizes it
    /// (an exact hit is already there) and `tier`'s counter and
    /// `dse.cache.*` metric count it.
    fn adopt(
        &mut self,
        key: (usize, usize),
        hash: u64,
        tier: Tier,
        entry: CacheEntry,
        lookup: &Lookup,
    ) -> Option<f64> {
        if self.cfg.use_cache {
            self.cache.note(tier);
            let (metric, kind) = match tier {
                Tier::Exact => ("dse.cache.hits", "exact"),
                Tier::Store => ("dse.cache.store_hits", "store"),
                Tier::Footprint => ("dse.cache.hits", "footprint"),
                Tier::Fresh => ("dse.cache.misses", "fresh"),
            };
            self.telemetry.metrics().add(metric, 1);
            if tier != Tier::Fresh {
                self.telemetry.recorder().record("dse", || {
                    (
                        "cache_hit".to_string(),
                        format!("kernel={} version={} kind={kind}", key.0, key.1),
                    )
                });
            }
            if tier != Tier::Exact {
                self.cache.insert(lookup.adg_fp, hash, entry.clone());
            }
        }
        let perf = entry.perf;
        self.design.mapped.insert(key, entry);
        perf
    }

    /// The store tier: an earlier process scheduled this exact (hardware,
    /// kernel, scheduler seed) triple and persisted the result. The store
    /// has re-verified framing, key and schedule digest; here the schedule
    /// must still pass [`Explorer::check`] on this design. An artifact
    /// that does not is logged and falls through to the next tier.
    fn load_stored(
        &self,
        version: &CompiledKernel,
        hash: u64,
        lookup: &Lookup,
    ) -> Option<CacheEntry> {
        let key = lookup.store_key(hash);
        let art = self.store.as_ref()?.get(key).ok().flatten()?;
        if let Ok((perf, _)) = self.check(version, &art.schedule, None, lookup) {
            return Some(CacheEntry {
                footprint: schedule_footprint(&self.design.adg, &art.schedule),
                schedule: art.schedule,
                perf: Some(perf),
            });
        }
        let why = "failed re-verification; falling through to a full scheduling pass";
        log(Level::Warn, format!("dse: store artifact for {key} {why}"));
        None
    }

    /// The footprint tier: the hardware changed, but every node and edge
    /// this version's previous legal schedule occupies is byte-identical,
    /// so the schedule is re-checked on the mutated graph instead of
    /// searched for again. A bitstream mismatch counts as a config
    /// rejection; either failure falls through to a fresh pass.
    fn rebase(
        &mut self,
        key: (usize, usize),
        version: &CompiledKernel,
        lookup: &Lookup,
    ) -> Option<CacheEntry> {
        let prev = self.design.mapped.get(&key)?;
        let footprint = prev.footprint?;
        if schedule_footprint(&self.design.adg, &prev.schedule) != Some(footprint) {
            return None;
        }
        match self.check(version, &prev.schedule, None, lookup) {
            // Taken out of the mapping state, which adopt writes back.
            Ok((perf, _)) => self.design.mapped.remove(&key).map(|prev| CacheEntry {
                schedule: prev.schedule,
                perf: Some(perf),
                footprint: Some(footprint),
            }),
            Err(unfit) => {
                self.count_unfit(unfit);
                None
            }
        }
    }

    /// The fresh tier: a full stochastic scheduling pass — a repair of the
    /// version's last schedule when repair is on and one exists — checked
    /// like the other tiers. A bitstream mismatch counts as a config
    /// rejection and the version maps nowhere. A verified outcome is
    /// persisted so a future process warm-starts from it; a store failure
    /// (including an injected crash) costs only the warm start.
    fn schedule_afresh(
        &mut self,
        key: (usize, usize),
        version: &CompiledKernel,
        hash: u64,
        lookup: &Lookup,
    ) -> CacheEntry {
        self.sched_invocations += 1;
        self.telemetry.metrics().add("dse.sched_invocations", 1);
        let prev = self
            .cfg
            .use_repair
            .then(|| self.design.mapped.remove(&key))
            .flatten();
        let (adg, sched_cfg) = (&self.design.adg, &lookup.sched_cfg);
        // Repair with bounded retry-with-escalation: a fault- or
        // mutation-degraded graph gets a second, doubled-budget attempt
        // before the version is written off as illegal.
        let start = prev.as_ref().map_or(Start::Empty, |prev| Start::Repair {
            previous: &prev.schedule,
            scope: None,
            max_attempts: 2,
        });
        let result = schedule(adg, version, &start, sched_cfg, &self.telemetry)
            .expect("an unscoped start pins nothing");
        let (perf, footprint) =
            match self.check(version, &result.schedule, Some(&result.eval), lookup) {
                Ok((perf, verified)) => {
                    let footprint = schedule_footprint(&self.design.adg, &result.schedule);
                    if let Some(store) = &self.store {
                        let art = Artifact {
                            key: lookup.store_key(hash),
                            schedule: result.schedule.clone(),
                            perf: Some(perf),
                            footprint,
                            config_words: verified.words().to_vec(),
                        };
                        if let Err(e) = store.put(&art) {
                            log(Level::Warn, format!("dse: artifact put failed: {e}"));
                        }
                    }
                    (Some(perf), footprint)
                }
                Err(unfit) => {
                    self.count_unfit(unfit);
                    (None, None)
                }
            };
        CacheEntry {
            schedule: result.schedule,
            perf,
            footprint,
        }
    }

    /// The re-check every tier but an exact replay passes before its
    /// schedule may count (§VI integrity gate): the schedule must evaluate
    /// feasible on the current design (under `eval` when the scheduler
    /// already evaluated it), its encoded bitstream must decode back to
    /// exactly it, and then the perf model prices it.
    fn check(
        &self,
        version: &CompiledKernel,
        schedule: &Schedule,
        eval: Option<&Evaluation>,
        lookup: &Lookup,
    ) -> Result<(f64, VerifiedConfig), Unfit> {
        if eval.is_some_and(|eval| !eval.feasible) {
            return Err(Unfit::Infeasible);
        }
        let problem = Problem::new(&self.design.adg, version);
        let evaluated;
        let eval = match eval {
            Some(eval) => eval,
            None => {
                evaluated = evaluate_schedule(&problem, schedule, &lookup.sched_cfg.weights);
                &evaluated
            }
        };
        if !eval.feasible {
            return Err(Unfit::Infeasible);
        }
        let verified = {
            let _span = self.telemetry.span("config", "verify");
            verify_round_trip_timed(&problem, schedule, eval)
        }
        .map_err(|_| Unfit::ConfigMismatch)?;
        let perf = {
            let _span = self.telemetry.span("model", "estimate");
            let config_len = self.longest_config_path(&lookup.config_len);
            self.perf_model
                .estimate(&self.design.adg, version, schedule, eval, config_len)
                .perf()
        };
        Ok((perf, verified))
    }

    /// Counts `unfit` as a config rejection when the bitstream did not
    /// round-trip: a design we cannot provably program is one we refuse to
    /// score (see [`Explorer::evaluate_candidate`]).
    fn count_unfit(&mut self, unfit: Unfit) {
        if unfit == Unfit::ConfigMismatch {
            self.config_rejections += 1;
            self.telemetry.metrics().add("dse.config_rejections", 1);
        }
    }

    /// Longest configuration path of the current design (§VI, the
    /// configuration latency the perf model charges), generated once per
    /// [`Explorer::evaluate`] on first use and memoised in `memo`.
    fn longest_config_path(&self, memo: &OnceCell<u32>) -> u32 {
        *memo.get_or_init(|| {
            let _span = self.telemetry.span("hwgen", "config_paths");
            generate_config_paths(&self.design.adg, 4, self.cfg.seed).longest() as u32
        })
    }

    /// The reliability-mode scoring multiplier for the winning version
    /// `key`: `(1 − weight) + weight × factor`, where `factor` is the
    /// recovered-throughput fraction
    /// `fault-free cycles / recovered total cycles` of the design under a
    /// sampled fault schedule ([`ReliabilityMode::failure_factor`] when
    /// recovery fails). Memoized by `(adg fingerprint, kernel hash)`;
    /// deterministic regardless of shard/thread layout.
    fn reliability_multiplier(
        &mut self,
        key: (usize, usize),
        mode: ReliabilityMode,
        lookup: &Lookup,
    ) -> f64 {
        let hash = self.versions.hashes[key.0][key.1];
        let factor = match self.reliability_cache.get(&(lookup.adg_fp, hash)) {
            Some(&f) => f,
            None => {
                let f = self.recovered_throughput(key, mode, hash, lookup);
                self.reliability_cache.insert((lookup.adg_fp, hash), f);
                f
            }
        };
        let w = mode.weight.clamp(0.0, 1.0);
        (1.0 - w) + w * factor
    }

    /// Simulates version `key` under a sampled runtime fault schedule with
    /// the full recovery flow and returns the fraction of fault-free
    /// throughput that survives.
    fn recovered_throughput(
        &self,
        key: (usize, usize),
        mode: ReliabilityMode,
        hash: u64,
        lookup: &Lookup,
    ) -> f64 {
        let failed = mode.failure_factor.clamp(0.0, 1.0);
        let adg = &self.design.adg;
        let version = &self.versions.compiled[key.0][key.1];
        let Some(CacheEntry {
            schedule: sched, ..
        }) = self.design.mapped.get(&key)
        else {
            return failed;
        };
        let problem = Problem::new(adg, version);
        let eval = evaluate_schedule(&problem, sched, &lookup.sched_cfg.weights);
        if !eval.feasible {
            return failed;
        }
        let config_len = self.longest_config_path(&lookup.config_len);
        let sim_cfg = dsagen_sim::SimConfig::default();
        let Ok(fault_free) = dsagen_sim::simulate(adg, version, sched, &eval, config_len, &sim_cfg)
        else {
            return failed;
        };
        // Sample deterministically per design point; arrivals beyond the
        // run length strike after completion and cost nothing, which is
        // honest — short kernels dodge late faults.
        let horizon = mode.horizon.max(2).min(fault_free.cycles.max(2));
        let faults = FaultSchedule::random(mode.seed ^ hash, mode.faults, horizon);
        let policy = dsagen_sim::RecoveryPolicy {
            scheduler: SchedulerConfig {
                max_iters: lookup.sched_cfg.max_iters,
                seed: lookup.sched_cfg.seed ^ 0xFA17,
                ..SchedulerConfig::default()
            },
            repair_attempts: 2,
            ..dsagen_sim::RecoveryPolicy::default()
        };
        let raw = match dsagen_sim::run_with_recovery(
            adg,
            version,
            sched,
            &eval,
            config_len,
            &sim_cfg,
            &faults,
            &policy,
            &self.telemetry,
        ) {
            // A degraded-mode finish is scored by what actually survives
            // — the measured throughput fraction — rather than the blunt
            // `failure_factor` the fail-stop path used to charge.
            Ok(rep) => {
                if rep.total_cycles > 0 {
                    (fault_free.cycles as f64 / rep.total_cycles as f64).clamp(0.0, 1.0)
                } else {
                    1.0
                }
            }
            Err(_) => failed,
        };
        // Blast-radius pressure: scale by how well the mapping isolates
        // faults. Deterministic in the same (adg, kernel, schedule)
        // triple that keys the cache, so memoization stays sound.
        let bw = mode.blast_weight.clamp(0.0, 1.0);
        if bw <= 0.0 {
            return raw;
        }
        let doms = dsagen_sim::RecoveryDomains::derive(adg, version, sched);
        let regions = doms.region_count().max(1) as f64;
        let worst = doms.max_domain_regions().max(1) as f64;
        let isolation = (regions - worst + 1.0) / regions;
        raw * ((1.0 - bw) + bw * isolation)
    }
}
