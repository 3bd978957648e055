//! Executing a run: one serial shard, or forked shards and their reduction.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use super::{shard_seed, DseConfig, DseResult, Explorer, IterRecord};

impl Explorer {
    /// Runs the exploration. With one (effective) shard this is the classic
    /// serial loop; with more, shards run as independent deterministic
    /// searches on up to [`DseConfig::threads`] worker threads and merge
    /// in shard index order. Either way the result depends
    /// only on `(seed, shards)` — never on thread count or scheduling.
    pub fn run(&mut self) -> DseResult {
        let shards = self.cfg.shards.max(1);
        let mut span = self.telemetry.span("phase", "dse");
        span.arg("shards", shards);
        span.arg("seed", self.cfg.seed);
        let result = if shards <= 1 {
            self.run_serial()
        } else {
            self.run_sharded(shards)
        };
        span.arg("iters", result.trace.len());
        span.arg("best_objective", result.best.objective);
        span.arg("objective_gain", result.objective_gain());
        span.end();
        result
    }

    /// Builds the independent explorer that shard `shard` runs: same
    /// prepared kernel versions and starting ADG, fresh schedules/cache,
    /// and the shard-perturbed seed (see [`shard_seed`]).
    fn fork_shard(&self, shard: usize) -> Explorer {
        let cfg = DseConfig {
            seed: shard_seed(self.cfg.seed, shard),
            shards: 1,
            threads: 1,
            ..self.cfg
        };
        Explorer {
            shard_index: shard,
            // Shards share the event sink and flight recorder but fork the
            // metrics registry, so per-shard counters merge deterministically
            // in shard index order at reduction time.
            telemetry: self.telemetry.fork_shard(),
            // The store is shared (clones share one directory and counter
            // set) — sound because the scheduler seed is in the store key,
            // and each shard schedules under its own perturbed seed.
            store: self.store.clone(),
            control: self.control.clone(),
            #[cfg(test)]
            forced: self.forced,
            ..Explorer::fresh(cfg, self.design.adg.clone(), Arc::clone(&self.versions))
        }
    }

    /// Runs `shards` independent searches on up to `cfg.threads` workers
    /// and reduces. Shards go round-robin into one bucket per worker;
    /// bucket 0 runs on the calling thread and the others on scoped
    /// threads, each shard inside its own panic shield. Shard results are
    /// independent of which worker ran them.
    fn run_sharded(&mut self, shards: usize) -> DseResult {
        let threads = self.cfg.threads.max(1).min(shards);
        let mut buckets: Vec<Vec<(usize, Explorer)>> = (0..threads).map(|_| Vec::new()).collect();
        for s in 0..shards {
            buckets[s % threads].push((s, self.fork_shard(s)));
        }
        // A shard that panics wholesale drops out; the others survive.
        let run_bucket = |bucket: Vec<(usize, Explorer)>| {
            bucket
                .into_iter()
                .filter_map(|(s, mut ex)| {
                    let res = catch_unwind(AssertUnwindSafe(|| ex.run_serial())).ok()?;
                    Some((s, ex, res))
                })
                .collect::<Vec<_>>()
        };
        let mut buckets = buckets.into_iter();
        let first = buckets.next().unwrap_or_default();
        let mut survivors = std::thread::scope(|scope| {
            let handles: Vec<_> = buckets
                .map(|bucket| scope.spawn(move || run_bucket(bucket)))
                .collect();
            let mut survivors = run_bucket(first);
            for handle in handles {
                survivors.extend(handle.join().unwrap_or_default());
            }
            survivors
        });
        survivors.sort_by_key(|(s, _, _)| *s);
        self.reduce_shards(shards, survivors)
    }

    /// Deterministic shard reduction: the winner is the shard with the
    /// highest best objective; ties break toward the smaller shard seed,
    /// then the earlier accepting iteration — an ordering independent of
    /// which thread finished first. The explorer adopts the winner's
    /// design/schedules and aggregates every shard's cache counters.
    /// `survivors` are the shards that did not panic wholesale, by shard
    /// index; the others contribute an empty trace.
    fn reduce_shards(
        &mut self,
        shards: usize,
        mut survivors: Vec<(usize, Explorer, DseResult)>,
    ) -> DseResult {
        let mut shard_traces: Vec<Vec<IterRecord>> = vec![Vec::new(); shards];
        for (s, _, res) in &survivors {
            shard_traces[*s] = res.trace.clone();
        }
        assert!(
            !survivors.is_empty(),
            "all {shards} DSE shards panicked wholesale"
        );

        // Ties break toward the smaller shard seed, then the earlier last
        // iteration at which a shard's best improved.
        let tie_key = |s: usize, res: &DseResult| {
            let improved = res.trace.iter().rfind(|r| r.accepted).map_or(0, |r| r.iter);
            (shard_seed(self.cfg.seed, s), improved)
        };
        let mut win = 0usize;
        for i in 1..survivors.len() {
            let (ws, _, wr) = &survivors[win];
            let (cs, _, cr) = &survivors[i];
            let better = match cr.best.objective.partial_cmp(&wr.best.objective) {
                Some(std::cmp::Ordering::Greater) => true,
                Some(std::cmp::Ordering::Equal) => tie_key(*cs, cr) < tie_key(*ws, wr),
                _ => false,
            };
            if better {
                win = i;
            }
        }

        // Aggregate counters from every shard, then adopt the winner.
        // Survivors are sorted by shard index, so metric absorption is
        // order-deterministic (and every merge operator commutes anyway).
        for (_, ex, _) in &survivors {
            self.cache.absorb_stats(&ex.cache.stats());
            self.sched_invocations += ex.sched_invocations;
            self.config_rejections += ex.config_rejections;
            self.telemetry
                .metrics()
                .absorb(&ex.telemetry.metrics().snapshot());
        }
        // Any shard observing a stop is reported (shards share one
        // control, so normally all agree); the winner's cause wins ties.
        let any_stopped = survivors.iter().find_map(|(_, _, r)| r.stopped);
        let (_, wex, wres) = survivors.swap_remove(win);
        self.design = wex.design;
        DseResult {
            best_adg: wres.best_adg,
            best: wres.best,
            initial: wres.initial,
            trace: wres.trace,
            shard_traces,
            stopped: wres.stopped.or(any_stopped),
        }
    }
}
