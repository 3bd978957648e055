//! Post-run DSE timeline: convergence summary, rejection histogram, and
//! machine-readable artifact.
//!
//! [`DseTimeline::from_result`] folds a [`DseResult`] trace (plus the
//! explorer's [`TelemetrySnapshot`]) into per-run aggregates; [`render`]
//! (see [`DseTimeline::render`]) prints a human-readable convergence
//! report and [`DseTimeline::to_json`] emits the same data as a JSON
//! artifact suitable for CI upload or plotting.
//!
//! Everything here except the wall-clock columns is deterministic for a
//! fixed `(seed, shards)` — the timeline is a pure function of the trace.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::explorer::{DseResult, IterRecord, TelemetrySnapshot};

/// Aggregates for one exploration shard, folded from its trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSummary {
    /// Shard number (0 keeps the configured seed unchanged).
    pub shard: usize,
    /// Trace records produced (0 when the shard panicked wholesale).
    pub iters: usize,
    /// Accepted steps (including the two baseline iter-0 records).
    pub accepted: usize,
    /// Objective of the shard's final accepted design.
    pub final_objective: f64,
    /// Stochastic scheduling passes the shard executed (deterministic).
    pub sched_passes: u64,
    /// Schedule-cache hits the shard observed (deterministic).
    pub cache_hits: u64,
    /// Schedule-cache misses the shard observed (deterministic).
    pub cache_misses: u64,
    /// Shard wall-clock total in milliseconds (non-deterministic).
    pub wall_ms: f64,
}

/// Convergence summary of one DSE run — see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct DseTimeline {
    /// Winning-shard trace length.
    pub iters: usize,
    /// Winning-shard accepted steps.
    pub accepted: usize,
    /// Rejection histogram over the winning-shard trace, keyed by the
    /// [`RejectReason`](crate::RejectReason) display label, sorted by key.
    pub rejections: Vec<(String, u64)>,
    /// Initial design objective (perf²/mm²).
    pub initial_objective: f64,
    /// Best design objective.
    pub best_objective: f64,
    /// `best / initial` objective ratio.
    pub objective_gain: f64,
    /// Fractional area saved versus the initial hardware.
    pub area_saving: f64,
    /// Explorer work counters at the end of the run (cumulative,
    /// shard-aggregated — see [`TelemetrySnapshot`]).
    pub snapshot: TelemetrySnapshot,
    /// Per-shard aggregates, indexed by shard number.
    pub shards: Vec<ShardSummary>,
}

/// Folds one shard trace into its [`ShardSummary`].
fn fold_shard(shard: usize, trace: &[IterRecord]) -> ShardSummary {
    ShardSummary {
        shard,
        iters: trace.len(),
        accepted: trace.iter().filter(|r| r.accepted).count(),
        final_objective: trace.last().map_or(0.0, |r| r.objective),
        sched_passes: trace.iter().map(|r| r.sched_passes).sum(),
        cache_hits: trace.iter().map(|r| r.cache_hits).sum(),
        cache_misses: trace.iter().map(|r| r.cache_misses).sum(),
        wall_ms: trace.iter().map(|r| r.wall_ms).sum(),
    }
}

impl DseTimeline {
    /// Builds the timeline from a finished run and the explorer's
    /// end-of-run counter snapshot
    /// ([`Explorer::telemetry_snapshot`](crate::Explorer::telemetry_snapshot)).
    #[must_use]
    pub fn from_result(result: &DseResult, snapshot: TelemetrySnapshot) -> Self {
        let mut rejections: BTreeMap<String, u64> = BTreeMap::new();
        for rec in &result.trace {
            if let Some(reason) = rec.rejected_reason {
                *rejections.entry(reason.to_string()).or_insert(0) += 1;
            }
        }
        DseTimeline {
            iters: result.trace.len(),
            accepted: result.trace.iter().filter(|r| r.accepted).count(),
            rejections: rejections.into_iter().collect(),
            initial_objective: result.initial.objective,
            best_objective: result.best.objective,
            objective_gain: result.objective_gain(),
            area_saving: result.area_saving(),
            snapshot,
            shards: result
                .shard_traces
                .iter()
                .enumerate()
                .map(|(s, t)| fold_shard(s, t))
                .collect(),
        }
    }

    /// Renders the human-readable convergence report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "DSE timeline");
        let _ = writeln!(
            out,
            "  steps {:>5}   accepted {:>4}   objective {:.4} -> {:.4} ({:.2}x)   area saved {:.1}%",
            self.iters,
            self.accepted,
            self.initial_objective,
            self.best_objective,
            self.objective_gain,
            100.0 * self.area_saving,
        );
        let _ = writeln!(out, "  work: {}", self.snapshot);
        if !self.rejections.is_empty() {
            let _ = writeln!(out, "  rejections (winning shard):");
            for (label, n) in &self.rejections {
                let _ = writeln!(out, "    {label:<16} {n:>6}");
            }
        }
        let _ = writeln!(
            out,
            "  {:>5} {:>6} {:>9} {:>14} {:>12} {:>11} {:>13} {:>10}",
            "shard",
            "iters",
            "accepted",
            "final obj",
            "sched",
            "cache hit",
            "cache miss",
            "wall ms"
        );
        for s in &self.shards {
            let _ = writeln!(
                out,
                "  {:>5} {:>6} {:>9} {:>14.4} {:>12} {:>11} {:>13} {:>10.1}",
                s.shard,
                s.iters,
                s.accepted,
                s.final_objective,
                s.sched_passes,
                s.cache_hits,
                s.cache_misses,
                s.wall_ms,
            );
        }
        out
    }

    /// Emits the timeline as a JSON artifact (stable key order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"iters\":{},\"accepted\":{},\"initial_objective\":{},\"best_objective\":{},\
             \"objective_gain\":{},\"area_saving\":{},\"sched_invocations\":{},\
             \"cache_hits\":{},\"cache_misses\":{},\"config_rejections\":{},\"rejections\":{{",
            self.iters,
            self.accepted,
            self.initial_objective,
            self.best_objective,
            self.objective_gain,
            self.area_saving,
            self.snapshot.sched_invocations,
            self.snapshot.cache.exact_hits + self.snapshot.cache.footprint_hits,
            self.snapshot.cache.misses,
            self.snapshot.config_rejections,
        );
        for (i, (label, n)) in self.rejections.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{label}\":{n}");
        }
        out.push_str("},\"shards\":[");
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"shard\":{},\"iters\":{},\"accepted\":{},\"final_objective\":{},\
                 \"sched_passes\":{},\"cache_hits\":{},\"cache_misses\":{},\"wall_ms\":{}}}",
                s.shard,
                s.iters,
                s.accepted,
                s.final_objective,
                s.sched_passes,
                s.cache_hits,
                s.cache_misses,
                s.wall_ms,
            );
        }
        out.push_str("]}");
        out
    }
}
