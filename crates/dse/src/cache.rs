//! Schedule memoization for the design-space explorer.
//!
//! The DSE loop revisits designs constantly: every rejected mutation is
//! reverted to the previous ADG, parallel shards converge on the same
//! structures, and many mutations touch hardware no kernel is mapped onto.
//! Re-running the stochastic scheduler in all of those cases is pure
//! waste — scheduling is deterministic given `(ADG, compiled kernel,
//! scheduler seed)`, so the result of a previous run can be replayed.
//!
//! [`ScheduleCache`] memoizes scheduling outcomes keyed by
//! `(Adg::fingerprint, CompiledKernel::content_hash)`. The explorer
//! answers each version lookup from the first [`Tier`] that can — exact
//! replay, artifact store, footprint rebase, fresh pass — then records the
//! tier with [`ScheduleCache::note`] and inserts the entry (an exact hit is
//! already there).
//!
//! Caches are per-explorer (and per-shard in parallel runs): the scheduler
//! seed participates in the memoized computation, so entries must not leak
//! across explorers with different seeds.

use std::collections::{BTreeSet, HashMap};

use dsagen_adg::{Adg, EdgeId, NodeId};
use dsagen_scheduler::Schedule;

/// Hit/miss accounting for a [`ScheduleCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered wholesale from a memoized `(adg, kernel)` entry.
    pub exact_hits: u64,
    /// Lookups answered by rebasing a prior schedule whose hardware
    /// footprint survived the mutation intact (objective recomputed).
    pub footprint_hits: u64,
    /// Lookups answered from the disk-backed artifact-store tier (warm
    /// start across processes; the loaded schedule is re-verified before
    /// it counts).
    pub store_hits: u64,
    /// Lookups that fell through to a full stochastic scheduling pass.
    pub misses: u64,
    /// Entries written: one per miss, store hit or footprint rebase (an
    /// exact hit writes nothing).
    pub insertions: u64,
}

impl CacheStats {
    /// Total lookups observed.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.exact_hits + self.footprint_hits + self.store_hits + self.misses
    }

    /// Fraction of lookups that avoided a stochastic scheduling pass
    /// (exact + footprint + store hits). Zero when no lookup has happened.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            (self.exact_hits + self.footprint_hits + self.store_hits) as f64 / total as f64
        }
    }

    /// Fraction of lookups answered by the disk-backed store tier alone
    /// (the warm-start figure the service benchmark reports).
    #[must_use]
    pub fn store_hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.store_hits as f64 / total as f64
        }
    }

    /// Accumulates another stats block into this one (shard reduction).
    pub fn absorb(&mut self, other: &CacheStats) {
        self.exact_hits += other.exact_hits;
        self.footprint_hits += other.footprint_hits;
        self.store_hits += other.store_hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
    }
}

/// Which tier of the explorer's schedule lookup answered a version, in
/// the order the tiers are tried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tier {
    /// The `(hardware, kernel)` pair was scheduled before (typically after
    /// a reverted mutation); the cached schedule *and* modeled performance
    /// are replayed wholesale. Sound because the scheduler and the
    /// performance/config-path models are deterministic functions of the
    /// fingerprinted inputs and the explorer-fixed seed.
    Exact,
    /// An earlier process persisted the schedule for the same `(hardware,
    /// kernel, scheduler seed)` in an artifact store; it is re-checked on
    /// this design before it counts.
    Store,
    /// The ADG changed, but the subgraph the previous schedule occupies
    /// ([`schedule_footprint`]) is byte-identical
    /// ([`Adg::footprint_fingerprint`]): the schedule is *rebased* onto the
    /// mutated graph and re-checked, skipping only the stochastic search.
    /// A rebase that fails the check falls through to a fresh pass, so
    /// footprint reuse can never mask a broken schedule.
    Footprint,
    /// A full stochastic scheduling pass (a cache miss); its outcome, legal
    /// or not, is cached for the future.
    Fresh,
}

/// One memoized scheduling outcome.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The schedule the scheduler produced (possibly partial/illegal —
    /// kept either way so repair can start from it after a revert).
    pub schedule: Schedule,
    /// Modeled kernel performance when the schedule was legal; `None`
    /// records a *negative* result (this version does not map onto this
    /// hardware), which spares revisits the same doomed search.
    pub perf: Option<f64>,
    /// [`schedule_footprint`] of the schedule on the ADG it was minted
    /// against (legal schedules only).
    pub footprint: Option<u64>,
}

/// Memoized scheduling outcomes keyed by
/// `(Adg::fingerprint, CompiledKernel::content_hash)`.
#[derive(Debug, Clone, Default)]
pub struct ScheduleCache {
    entries: HashMap<(u64, u64), CacheEntry>,
    stats: CacheStats,
}

impl ScheduleCache {
    /// The outcome memoized for `(adg_fp, kernel_hash)`, if any. Counts
    /// nothing: the explorer records whichever tier answered the lookup.
    pub fn lookup(&self, adg_fp: u64, kernel_hash: u64) -> Option<&CacheEntry> {
        self.entries.get(&(adg_fp, kernel_hash))
    }

    /// Records that `tier` answered one lookup.
    pub(crate) fn note(&mut self, tier: Tier) {
        let counter = match tier {
            Tier::Exact => &mut self.stats.exact_hits,
            Tier::Store => &mut self.stats.store_hits,
            Tier::Footprint => &mut self.stats.footprint_hits,
            Tier::Fresh => &mut self.stats.misses,
        };
        *counter += 1;
    }

    /// Inserts (or overwrites) the outcome for `(adg_fp, kernel_hash)`.
    pub fn insert(&mut self, adg_fp: u64, kernel_hash: u64, entry: CacheEntry) {
        self.stats.insertions += 1;
        self.entries.insert((adg_fp, kernel_hash), entry);
    }

    /// Hit/miss counters so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Folds another cache's counters into this one (shard reduction).
    pub fn absorb_stats(&mut self, other: &CacheStats) {
        self.stats.absorb(other);
    }
}

/// The stable fingerprint of the hardware subgraph `schedule` occupies on
/// `adg`: every placed node, every routed ADG edge, and each routed edge's
/// endpoint nodes (so a re-parameterized intermediate switch is detected
/// even when the edge itself survives). Returns `None` when any part of
/// the footprint no longer exists — the schedule cannot be rebased.
#[must_use]
pub fn schedule_footprint(adg: &Adg, schedule: &Schedule) -> Option<u64> {
    let mut nodes: BTreeSet<NodeId> = schedule.placement.iter().copied().flatten().collect();
    let mut edges: BTreeSet<EdgeId> = BTreeSet::new();
    for path in schedule.routes.values() {
        for &eid in path {
            edges.insert(eid);
            let e = adg.edge(eid)?;
            nodes.insert(e.src);
            nodes.insert(e.dst);
        }
    }
    adg.footprint_fingerprint(nodes, edges)
}

#[cfg(test)]
mod tests {
    use dsagen_adg::{presets, BitWidth, SwitchSpec};
    use dsagen_dfg::{compile_kernel, TransformConfig};
    use dsagen_scheduler::{schedule, SchedulerConfig, Start};
    use dsagen_telemetry::Telemetry;

    use super::*;
    use crate::explorer::tests::small_kernels;

    #[test]
    fn stats_hit_rate_arithmetic() {
        let mut s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.exact_hits = 3;
        s.footprint_hits = 1;
        s.misses = 4;
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        let mut t = CacheStats::default();
        t.absorb(&s);
        assert_eq!(t, s);
    }

    #[test]
    fn lookup_insert_roundtrip_counts() {
        let mut c = ScheduleCache::default();
        assert!(c.lookup(1, 2).is_none());
        c.note(Tier::Fresh);
        c.insert(
            1,
            2,
            CacheEntry {
                schedule: Schedule::default(),
                perf: Some(1.5),
                footprint: None,
            },
        );
        let hit = c.lookup(1, 2).expect("entry just inserted");
        assert_eq!(hit.perf, Some(1.5));
        c.note(Tier::Exact);
        let stats = c.stats();
        assert_eq!(stats.exact_hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 1);
    }

    #[test]
    fn footprint_survives_unrelated_mutation_and_dies_with_its_hardware() {
        let adg = presets::softbrain();
        let kernel = &small_kernels()[0];
        let ck = compile_kernel(kernel, &TransformConfig::fallback(), &adg.features())
            .expect("axpy compiles on softbrain");
        let (cfg, tel) = (SchedulerConfig::default(), Telemetry::disabled());
        let result = schedule(&adg, &ck, &Start::Empty, &cfg, &tel).expect("nothing is pinned");
        assert!(result.is_legal(), "fixture must schedule");
        let fp = schedule_footprint(&adg, &result.schedule).expect("live footprint");

        // An unconnected switch elsewhere leaves the footprint intact.
        let mut grown = adg.clone();
        grown.add_switch(SwitchSpec::new(BitWidth::B64));
        assert_eq!(schedule_footprint(&grown, &result.schedule), Some(fp));

        // Removing a placed node destroys it.
        let mut cut = adg.clone();
        let placed = result
            .schedule
            .placement
            .iter()
            .copied()
            .flatten()
            .next()
            .expect("legal schedule places something");
        let _ = cut.remove_node(placed);
        assert_eq!(schedule_footprint(&cut, &result.schedule), None);
    }
}
