//! The benchmark's contract: workload and metric names, units, directions
//! and bounds. `BENCHMARK.json` at the repository root states the same
//! tables for the driver; a unit test keeps the two identical.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// How long one run measures on the reference machine (2 cores), and the
/// `--seconds` the one-command modes use.
pub const RUN_SECONDS: u64 = 14;
/// The seed of `run.sh` without `--seed`.
pub const DEFAULT_SEED: u64 = 20_200_530;
/// A seed never used while the benchmark was written; claims must also
/// hold on it (choosing-metrics §6).
pub const HELD_OUT_SEED: u64 = 77_001;

pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "compile-cold",
        "20 Table-I kernels x 3 presets, each scheduled from scratch, verified, simulated: scheduler::schedule is 3/4 of it; cache, store, service bypassed, so explorer-side work must show no change",
    ),
    (
        "dse-explore",
        "serial Explorer::run rounds over PolyBench from dse_initial: repairing scheduler, ScheduleCache, mutate and the models; cache or pruning work shows here and not on compile-cold",
    ),
    (
        "dse-sharded",
        "4 shards on 2 threads over pool, classifier, histogram, join, sparse-cnn: shard/reduce executor, shared telemetry handle, allocator contention; a threading fix shows only here",
    ),
    (
        "service-mix",
        "closed loop, 2 clients, 70% requests the store has seen and 30% unseen, on one on-disk store: the only path through service+store, reads beside writes",
    ),
    (
        "fabric-runtime",
        "fault-free simulation plus transient and permanent fault recovery on compiled fixtures: sim tick loop, checkpoint/rollback and scoped mask repair; cache and store are bypassed",
    ),
];

/// Metrics a user of the system sees, measured with tracing off. Every
/// workload reports every one of them; the bound is the share of the
/// parent's median by which the metric may worsen.
pub const END_TO_END: [(MetricSpec, f64); 7] = [
    (m("setup_s", "s", Better::Lower), 0.25),
    (m("ops_per_s", "1/s", Better::Higher), 0.25),
    (m("op_p50_ms", "ms", Better::Lower), 0.20),
    (m("op_p95_ms", "ms", Better::Lower), 0.25),
    (m("peak_rss_mb", "MB", Better::Lower), 0.10),
    (m("best_objective", "perf2/mm2", Better::Higher), 0.12),
    (m("sim_cycles", "cycles", Better::Lower), 0.06),
];

/// Metrics of single layers (layer = crate), from the traced run. `_us` is
/// the mean time of one call; `_calls`, and the other counts, are taken in
/// the traced timed section; `_us_per_call` comes from a probe of N calls
/// on the workload's own fixtures. A metric a workload never exercises
/// reads 0.
pub const PER_LAYER: [MetricSpec; 72] = [
    m("adg.fingerprint_us_per_call", "us", Better::Lower),
    m("adg.features_us_per_call", "us", Better::Lower),
    m("adg.validate_us_per_call", "us", Better::Lower),
    m("dfg.compile_kernel_us", "us", Better::Lower),
    m("dfg.versions", "count", Better::Lower),
    m("dfg.insts", "count", Better::Lower),
    m("dfg.interp_us", "us", Better::Lower),
    m("scheduler.schedule_us", "us", Better::Lower),
    m("scheduler.schedule_calls", "count", Better::Lower),
    m("scheduler.legal_share", "share", Better::Higher),
    m("scheduler.reseeds", "count", Better::Lower),
    m("scheduler.repair_us", "us", Better::Lower),
    m("scheduler.repair_calls", "count", Better::Lower),
    m("scheduler.route_us_per_call", "us", Better::Lower),
    m("scheduler.evaluate_us_per_call", "us", Better::Lower),
    m("scheduler.problem_new_us_per_call", "us", Better::Lower),
    m("scheduler.path_search_iters", "count", Better::Lower),
    m("scheduler.path_search_expansions", "count", Better::Lower),
    m("model.perf_estimate_us_per_call", "us", Better::Lower),
    m("model.area_estimate_us_per_call", "us", Better::Lower),
    m("model.area_fit_us", "us", Better::Lower),
    m("hwgen.encode_us", "us", Better::Lower),
    m("hwgen.verify_us", "us", Better::Lower),
    m("hwgen.verify_words_per_s", "1/s", Better::Higher),
    m("hwgen.frame_ns_per_word", "ns", Better::Lower),
    m("hwgen.config_paths_us", "us", Better::Lower),
    m("hwgen.rtl_us", "us", Better::Lower),
    m("hwgen.session_us", "us", Better::Lower),
    m("hwgen.words", "count", Better::Lower),
    m("sim.run_us", "us", Better::Lower),
    m("sim.mcycles_per_s", "Mcycles/s", Better::Higher),
    m("sim.functional_us", "us", Better::Lower),
    m("sim.recover_transient_us", "us", Better::Lower),
    m("sim.recover_permanent_us", "us", Better::Lower),
    m("sim.recoveries", "count", Better::Lower),
    m("sim.recovered_share", "share", Better::Higher),
    m("sim.degraded_share", "share", Better::Lower),
    m("sim.mttr_cycles_mean", "cycles", Better::Lower),
    m("dse.iter_ms_p50", "ms", Better::Lower),
    m("dse.iterations", "count", Better::Higher),
    m("dse.accept_share", "share", Better::Higher),
    m("dse.sched_invocations", "count", Better::Lower),
    m("dse.cache_hit_share", "share", Better::Higher),
    m("dse.explorer_new_us", "us", Better::Lower),
    m("dse.initial_eval_us", "us", Better::Lower),
    m("dse.mutate_us_per_call", "us", Better::Lower),
    m("dse.shard_imbalance", "ratio", Better::Lower),
    m("dse.thread_speedup", "ratio", Better::Higher),
    m("dse.time_to_90pct_s", "s", Better::Lower),
    m("store.put_us_p50", "us", Better::Lower),
    m("store.get_hit_us_p50", "us", Better::Lower),
    m("store.get_miss_us_p50", "us", Better::Lower),
    m("store.open_us", "us", Better::Lower),
    m("store.bytes_per_artifact", "bytes", Better::Lower),
    m("store.puts", "count", Better::Lower),
    m("store.hits", "count", Better::Higher),
    m("store.misses", "count", Better::Lower),
    m("store.quarantined", "count", Better::Lower),
    m("service.queue_ms_p50", "ms", Better::Lower),
    m("service.queue_ms_p95", "ms", Better::Lower),
    m("service.warm_ms_p50", "ms", Better::Lower),
    m("service.cold_ms_p50", "ms", Better::Lower),
    m("service.warm_share", "share", Better::Higher),
    m("service.submit_us_p50", "us", Better::Lower),
    m("service.shed", "count", Better::Lower),
    m("service.drain_ms", "ms", Better::Lower),
    m("core.compile_us", "us", Better::Lower),
    m("core.generate_us", "us", Better::Lower),
    m("faults.injected", "count", Better::Higher),
    m("telemetry.trace_overhead_share", "share", Better::Lower),
    m("telemetry.events", "count", Better::Lower),
    m("bench.span_coverage_share", "share", Better::Higher),
];

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better }
}

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsagen_bench::json::{parse, JsonValue};

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn names_units_and_counts_stay_inside_the_contract() {
        assert!(WORKLOADS.len() <= 8 && END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why has {} chars",
                why.len()
            );
        }
        for spec in END_TO_END.iter().map(|(s, _)| s).chain(PER_LAYER.iter()) {
            assert!(
                name_ok(spec.name) && seen.insert(spec.name),
                "{}",
                spec.name
            );
            assert!(unit_ok(spec.unit), "{}: unit {}", spec.name, spec.unit);
        }
        for (spec, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25, "{}", spec.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|(s, _)| s.name == "setup_s")
            .expect("setup_s");
        assert!(setup.0.unit == "s" && setup.0.better == Better::Lower);
        assert!(
            END_TO_END.iter().all(|(_, b)| *b <= setup.1),
            "setup_s has the largest bound"
        );
    }

    fn metric_rows(doc: &JsonValue, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("{key} missing"))
            .iter()
            .map(|row| {
                let field = |k: &str| row.get(k).and_then(JsonValue::as_str).expect(k).to_string();
                (
                    field("name"),
                    field("unit"),
                    field("better"),
                    row.get("bound").and_then(JsonValue::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_states_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let doc = parse(&text).expect("valid JSON");
        let JsonValue::Obj(members) = &doc else {
            panic!("object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(JsonValue::as_f64),
            Some(RUN_SECONDS as f64)
        );

        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                let field = |k: &str| w.get(k).and_then(JsonValue::as_str).expect(k).to_string();
                (field("name"), field("why"))
            })
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, want);

        let want: Vec<_> = END_TO_END
            .iter()
            .map(|(s, b)| {
                (
                    s.name.to_string(),
                    s.unit.to_string(),
                    s.better.as_str().to_string(),
                    Some(*b),
                )
            })
            .collect();
        assert_eq!(metric_rows(&doc, "end_to_end"), want);
        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|s| {
                (
                    s.name.to_string(),
                    s.unit.to_string(),
                    s.better.as_str().to_string(),
                    None,
                )
            })
            .collect();
        assert_eq!(metric_rows(&doc, "per_layer"), want);
    }
}
