//! Property-based tests (proptest) over the core data structures and
//! invariants: ADG validity under mutation, affine-expression algebra,
//! bitstream roundtrips, configuration-path coverage, and stream-pattern
//! accounting.

use dsagen::adg::{presets, Adg, BitWidth, OpSet, Opcode};
use dsagen::dfg::{AffineExpr, CompiledKernel, LoopVar, StreamPattern, TripCount};
use dsagen::hwgen::{generate_config_paths, Bitstream, InstrConfig, NodeConfig, RouteConfig, SyncConfig};
use dsagen::scheduler::{ScheduleResult, SchedulerConfig, Start};
use dsagen::telemetry::Telemetry;
use proptest::prelude::*;

/// `ck` scheduled onto `adg` from scratch, untraced.
fn fresh(adg: &Adg, ck: &CompiledKernel, cfg: &SchedulerConfig) -> ScheduleResult {
    dsagen::scheduler::schedule(adg, ck, &Start::Empty, cfg, &Telemetry::disabled())
        .expect("nothing is pinned")
}

proptest! {
    // Structural properties are cheap; a moderate case count keeps the
    // suite fast in debug builds while covering wide input ranges.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bitwidth_accepts_exactly_powers_of_two(bits in 0u16..=u16::MAX) {
        let ok = bits != 0 && bits.is_power_of_two() && bits <= 4096;
        prop_assert_eq!(BitWidth::new(bits).is_ok(), ok);
    }

    #[test]
    fn affine_eval_is_linear(
        c1 in -100i64..100, k1 in -8i64..8,
        c2 in -100i64..100, k2 in -8i64..8,
        x in -50i64..50, y in -50i64..50,
    ) {
        let a = AffineExpr::var(LoopVar(0)).scaled(k1).plus_const(c1);
        let b = AffineExpr::var(LoopVar(1)).scaled(k2).plus_const(c2);
        let sum = a.clone().plus(&b);
        let vals = [x, y];
        prop_assert_eq!(sum.eval(&vals), a.eval(&vals) + b.eval(&vals));
        let scaled = a.clone().scaled(3);
        prop_assert_eq!(scaled.eval(&vals), 3 * a.eval(&vals));
    }

    #[test]
    fn affine_stride_matches_finite_difference(
        k0 in -8i64..8, k1 in -8i64..8, c in -100i64..100,
        x in -10i64..10, y in -10i64..10,
    ) {
        let e = AffineExpr::var(LoopVar(0)).scaled(k0)
            .plus(&AffineExpr::var(LoopVar(1)).scaled(k1))
            .plus_const(c);
        prop_assert_eq!(e.eval(&[x + 1, y]) - e.eval(&[x, y]), e.stride_of(LoopVar(0)));
        prop_assert_eq!(e.eval(&[x, y + 1]) - e.eval(&[x, y]), e.stride_of(LoopVar(1)));
    }

    #[test]
    fn trip_count_total_is_sum_of_ats(base in 0i64..64, per in -4i64..4, outer in 1u64..32) {
        let t = TripCount::inductive(base, per);
        let total: u64 = (0..outer as i64).map(|o| t.at(o)).sum();
        prop_assert_eq!(t.total_over(outer), total);
    }

    #[test]
    fn opset_union_intersection_laws(bits_a in any::<u64>(), bits_b in any::<u64>()) {
        let a: OpSet = Opcode::ALL.iter().enumerate()
            .filter(|(i, _)| bits_a & (1 << i) != 0).map(|(_, op)| *op).collect();
        let b: OpSet = Opcode::ALL.iter().enumerate()
            .filter(|(i, _)| bits_b & (1 << i) != 0).map(|(_, op)| *op).collect();
        let u = a.union(b);
        let i = a.intersection(b);
        prop_assert!(u.is_superset(a) && u.is_superset(b));
        prop_assert!(a.is_superset(i) && b.is_superset(i));
        prop_assert_eq!(u.len() + i.len(), a.len() + b.len());
    }

    #[test]
    fn stream_pattern_line_requests_bounded(
        elems in 1.0f64..100_000.0,
        stride in prop::sample::select(vec![0i64, 8, 16, 64, 512]),
    ) {
        let p = StreamPattern::linear(elems, stride);
        let reqs = p.line_requests(64, 8);
        // Never fewer than perfectly-coalesced, never more than per-element.
        let coalesced = (elems * 8.0 / 64.0).ceil();
        prop_assert!(reqs + 1e-9 >= coalesced.min(elems) || stride == 0);
        prop_assert!(reqs <= elems + 1.0);
    }

    #[test]
    fn mutations_preserve_adg_validity(seed in any::<u64>(), steps in 1usize..40) {
        let mut adg = presets::dse_initial();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let used = OpSet::integer_alu().union(OpSet::floating_point());
        for _ in 0..steps {
            let _ = dsagen::dse::mutate(&mut adg, &mut rng, &used);
        }
        prop_assert!(adg.validate().is_ok());
    }

    #[test]
    fn config_paths_cover_any_mesh(rows in 2usize..5, cols in 2usize..5, p in 1usize..6, seed in any::<u64>()) {
        let pe = dsagen::adg::PeSpec::new(
            dsagen::adg::Scheduling::Static,
            dsagen::adg::Sharing::Dedicated,
            OpSet::integer_alu(),
        );
        let adg: Adg = dsagen::adg::presets::mesh(&dsagen::adg::presets::MeshConfig::new("m", rows, cols, pe));
        let configurable = adg.nodes().filter(|n| n.kind.is_configurable()).count();
        let cp = generate_config_paths(&adg, p, seed);
        prop_assert_eq!(cp.covered().len(), configurable);
        prop_assert!(cp.longest() >= dsagen::hwgen::ConfigPaths::ideal(configurable, cp.paths.len()));
    }

    #[test]
    fn bitstream_words_roundtrip_arbitrary_configs(
        n_nodes in 1usize..8,
        data in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 0..6),
        sync_lanes in any::<u8>(),
        sync_delay in 0u16..4096,
    ) {
        let mut bs = Bitstream::default();
        for node in 0..n_nodes {
            let mut cfg = NodeConfig::default();
            for (op, a, b, c) in &data {
                cfg.instrs.push(InstrConfig {
                    opcode: *op,
                    operands: [*a, *b, *c],
                    delay: a.wrapping_add(*b),
                    tag: *c,
                });
                cfg.routes.push(RouteConfig { in_port: *a, out_port: *b });
            }
            if node % 2 == 0 {
                cfg.sync = Some(SyncConfig { lanes: sync_lanes, delay: sync_delay, group: 3 });
            }
            bs.configs.insert(dsagen::adg::NodeId::from_index(node), cfg);
        }
        let words = bs.to_words();
        let decoded = Bitstream::from_words(&words).unwrap();
        prop_assert_eq!(bs, decoded);
    }

    #[test]
    fn removing_nodes_keeps_other_ids_stable(victims in prop::collection::vec(0usize..40, 1..8)) {
        let mut adg = presets::softbrain();
        let ids: Vec<_> = adg.pes().collect();
        let mut removed = std::collections::HashSet::new();
        for v in victims {
            let id = ids[v % ids.len()];
            if removed.insert(id) && adg.pes().count() > 1 {
                let _ = adg.remove_node(id);
            }
        }
        for node in adg.nodes() {
            prop_assert!(adg.node(node.id()).is_some());
        }
        for id in removed {
            prop_assert!(adg.node(id).is_none());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Config paths over a `mutate` chain, with 0–2 unlinked PEs added
    /// afterwards so the disconnected case is drawn too (no chain from
    /// these presets disconnects the configurable subgraph on its own):
    /// every step of every path is a link of the configurable undirected
    /// adjacency except where a node was placed off-walk; the paths cover
    /// exactly the configurable nodes; the output is a function of the
    /// seed; and the strict variant reports `DisconnectedNode` — the first
    /// off-walk node — exactly when the lenient run placed one.
    #[test]
    fn config_paths_walk_the_configurable_fabric(
        seed in any::<u64>(),
        start in 0usize..3,
        steps in 0usize..40,
        islands in 0usize..3,
        p in 1usize..9,
    ) {
        use dsagen::adg::{NodeId, PeSpec, Scheduling, Sharing};
        use dsagen::hwgen::{try_generate_config_paths, ConfigPathError};
        use std::collections::BTreeSet;

        let mut adg = [presets::dse_initial(), presets::softbrain(), presets::spu()][start].clone();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let used = OpSet::integer_alu().union(OpSet::floating_point());
        for _ in 0..steps {
            let _ = dsagen::dse::mutate(&mut adg, &mut rng, &used);
        }
        for _ in 0..islands {
            adg.add_pe(PeSpec::new(Scheduling::Static, Sharing::Dedicated, OpSet::integer_alu()));
        }
        let configurable = |id: NodeId| adg.kind(id).is_ok_and(|k| k.is_configurable());
        let adjacent: BTreeSet<(NodeId, NodeId)> = adg
            .edges()
            .filter(|e| configurable(e.src) && configurable(e.dst))
            .flat_map(|e| [(e.src, e.dst), (e.dst, e.src)])
            .collect();
        let mut nodes: Vec<NodeId> = adg.nodes().map(|n| n.id()).filter(|&id| configurable(id)).collect();
        nodes.sort();

        let cp = generate_config_paths(&adg, p, seed);
        prop_assert_eq!(&cp, &generate_config_paths(&adg, p, seed));
        prop_assert_eq!(cp.covered(), nodes);
        let off_walk: BTreeSet<NodeId> = cp
            .paths
            .iter()
            .flat_map(|path| path.windows(2))
            .filter(|w| !adjacent.contains(&(w[0], w[1])))
            .map(|w| w[1])
            .collect();
        let strict = try_generate_config_paths(&adg, p, seed);
        match off_walk.first() {
            None => prop_assert_eq!(strict, Ok(cp)),
            Some(&node) => prop_assert_eq!(strict, Err(ConfigPathError::DisconnectedNode { node })),
        }
        prop_assert_eq!(off_walk.is_empty(), islands == 0);
    }
}

#[test]
fn regression_model_underestimates_synthesis_by_a_few_percent() {
    // The deterministic heart of Fig 15's validation claim.
    let model = dsagen::model::AreaPowerModel::default();
    for adg in [presets::softbrain(), presets::spu(), presets::dse_initial()] {
        let est = model.estimate_adg(&adg);
        let syn = dsagen::model::synthesize_adg(&adg);
        let gap = (syn.area_mm2 - est.area_mm2) / syn.area_mm2;
        assert!((0.0..0.12).contains(&gap), "{}: gap {gap}", adg.name());
    }
}

proptest! {
    // Heavy properties: each case runs real scheduling work, so keep the
    // case count modest (they still cover plenty of seeds).
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn text_format_roundtrips_mutated_graphs(seed in any::<u64>(), steps in 0usize..25) {
        let mut adg = presets::spu();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let used = OpSet::all();
        for _ in 0..steps {
            let _ = dsagen::dse::mutate(&mut adg, &mut rng, &used);
        }
        let rendered = dsagen::adg::text::to_text(&adg);
        let parsed = dsagen::adg::text::from_text(&rendered)
            .map_err(|e| proptest::test_runner::TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(adg, parsed);
    }

    #[test]
    fn repair_of_unchanged_hardware_never_regresses(seed in any::<u64>()) {
        use dsagen::scheduler::{schedule, SchedulerConfig, Start};
        use dsagen::dfg::{compile_kernel, TransformConfig};
        let adg = presets::softbrain();
        let kernel = dsagen::workloads::polybench::mvt();
        let ck = compile_kernel(&kernel, &TransformConfig::fallback(), &adg.features())
            .expect("compiles");
        let cfg = SchedulerConfig { max_iters: 60, seed, ..SchedulerConfig::default() };
        let first = fresh(&adg, &ck, &cfg);
        let start = Start::Repair { previous: &first.schedule, scope: None, max_attempts: 1 };
        let again = schedule(&adg, &ck, &start, &cfg, &Telemetry::disabled()).unwrap();
        prop_assert!(again.eval.objective <= first.eval.objective + 1e-9);
        if first.is_legal() {
            prop_assert!(again.is_legal());
        }
    }

    #[test]
    fn window_offset_detection(k0 in -8i64..8, c0 in -40i64..40, c1 in -40i64..40) {
        use dsagen::dfg::{AffineExpr, LoopVar};
        let a = AffineExpr::var(LoopVar(0)).scaled(k0).plus_const(c0);
        let b = AffineExpr::var(LoopVar(0)).scaled(k0).plus_const(c1);
        prop_assert_eq!(a.offset_from(&b), Some(c0 - c1));
        if k0 != k0 + 1 {
            let c = AffineExpr::var(LoopVar(0)).scaled(k0 + 1).plus_const(c1);
            prop_assert_eq!(a.offset_from(&c), None);
        }
    }
}

proptest! {
    // Fault-injection properties over every preset: structural cases are
    // cheap, so a generous case count covers many (preset, plan) pairs.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fault_injection_always_yields_valid_hardware(
        seed in any::<u64>(),
        count in 0usize..12,
        which in 0usize..7,
    ) {
        use dsagen::faults::{inject, inject_with_telemetry, FaultPlan};
        use dsagen::telemetry::Telemetry;
        let all = [
            presets::softbrain(),
            presets::spu(),
            presets::dse_initial(),
            presets::maeri(),
            presets::triggered(),
            presets::revel(),
            presets::plasticine(),
        ];
        let adg = &all[which];
        let plan = FaultPlan::random(seed, count);
        let tel = Telemetry::in_memory();
        let (faulty, report) = inject_with_telemetry(adg, &plan, &tel);
        // Degraded hardware is still legal hardware.
        prop_assert!(faulty.validate().is_ok(), "{}: {:?}", adg.name(), faulty.validate());
        // Every requested fault is accounted for: applied or skipped-with-reason.
        prop_assert_eq!(report.applied.len() + report.skipped.len(), plan.faults.len());
        // Log/plan equivalence: telemetry logged exactly one `fault` event
        // per plan entry, in plan order, kinds matching the plan, with the
        // injected/skipped split mirroring the report.
        let log: Vec<_> = tel.events().into_iter().filter(|e| e.cat == "fault").collect();
        prop_assert_eq!(log.len(), plan.faults.len());
        for (i, ev) in log.iter().enumerate() {
            let kind = ev.args.iter().find(|(k, _)| *k == "kind")
                .map(|(_, v)| v.to_string()).unwrap_or_default();
            prop_assert_eq!(kind.trim_matches('"'), plan.faults[i].to_string());
        }
        prop_assert_eq!(
            log.iter().filter(|e| e.name == "injected").count(),
            report.applied.len()
        );
        prop_assert_eq!(
            log.iter().filter(|e| e.name == "skipped").count(),
            report.skipped.len()
        );
        // Injection never touches the input graph.
        prop_assert!(adg.validate().is_ok());
        // Determinism + telemetry invisibility: the plain, uninstrumented
        // call reproduces the same degraded graph and report.
        let (again, report2) = inject(adg, &plan);
        prop_assert_eq!(&faulty, &again);
        prop_assert_eq!(&report, &report2);
    }
}

proptest! {
    // Each case schedules + repairs + simulates, so keep the count small.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn codesign_pipeline_never_panics_under_faults(seed in any::<u64>(), count in 1usize..8) {
        use dsagen::dfg::{compile_kernel, TransformConfig};
        use dsagen::faults::{inject, FaultPlan};
        use dsagen::scheduler::{schedule, SchedulerConfig, Start};
        use dsagen::sim::{simulate, SimConfig};

        let adg = presets::softbrain();
        let kernel = dsagen::workloads::polybench::mvt();
        let ck = compile_kernel(&kernel, &TransformConfig::fallback(), &adg.features())
            .map_err(|e| proptest::test_runner::TestCaseError::fail(e.to_string()))?;
        let cfg = SchedulerConfig { max_iters: 40, patience: 40, ..SchedulerConfig::default() };
        let first = fresh(&adg, &ck, &cfg);

        let plan = FaultPlan::random(seed, count);
        let (faulty, _report) = inject(&adg, &plan);

        // Repair on degraded hardware must terminate without panicking,
        // legal or not.
        let start = Start::Repair { previous: &first.schedule, scope: None, max_attempts: 2 };
        let repaired = schedule(&faulty, &ck, &start, &cfg, &Telemetry::disabled()).unwrap();
        if repaired.is_legal() {
            // A legal repaired schedule simulates cleanly on the degraded
            // hardware.
            let sim = simulate(
                &faulty, &ck, &repaired.schedule, &repaired.eval, 4, &SimConfig::default(),
            );
            prop_assert!(sim.is_ok(), "legal schedule rejected: {:?}", sim.err());
        }
        // The *stale* pre-fault schedule must produce a typed result on the
        // degraded hardware — an error is fine, an index panic is not.
        let _ = simulate(&faulty, &ck, &first.schedule, &first.eval, 4, &SimConfig::default());
    }

    /// Whole-kernel repair is scoped repair whose scope is every region:
    /// one search loop, one incumbent rule, so on the same faulted fabric
    /// and seed the two starts return the same mapping.
    #[test]
    fn repair_over_every_region_is_whole_kernel_repair(seed in any::<u64>(), count in 1usize..4) {
        use dsagen::dfg::{compile_kernel, TransformConfig};
        use dsagen::faults::{inject, FaultPlan};
        use dsagen::hwgen::schedule_digest;
        use dsagen::scheduler::{schedule, SchedulerConfig, Scope, Start};

        let adg = presets::softbrain();
        let kernel = dsagen::workloads::polybench::mvt();
        let ck = compile_kernel(&kernel, &TransformConfig::fallback(), &adg.features())
            .map_err(|e| proptest::test_runner::TestCaseError::fail(e.to_string()))?;
        let cfg = SchedulerConfig { max_iters: 40, seed, ..SchedulerConfig::default() };
        let first = fresh(&adg, &ck, &cfg);
        let (faulty, _report) = inject(&adg, &FaultPlan::random(seed, count));

        let tel = Telemetry::disabled();
        let start = Start::Repair { previous: &first.schedule, scope: None, max_attempts: 2 };
        let whole = schedule(&faulty, &ck, &start, &cfg, &tel).unwrap();
        let every_region = (0..ck.regions.len()).collect();
        let scope = Some(Scope { regions: &every_region, from_scratch: false });
        let start = Start::Repair { previous: &first.schedule, scope, max_attempts: 2 };
        let scoped = schedule(&faulty, &ck, &start, &cfg, &tel)
            .expect("with every region in scope nothing is pinned");
        prop_assert_eq!(schedule_digest(&whole.schedule), schedule_digest(&scoped.schedule));
        prop_assert_eq!(whole.iterations, scoped.iterations);
        prop_assert_eq!(whole.outcome, scoped.outcome);
    }
}

proptest! {
    // Each case runs full (small) DSE evaluations; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Cache soundness: memoization is an optimization, never a semantic
    /// change. For any seed, an explorer with the schedule cache enabled
    /// evaluates the same design to the same `DsePoint` as one with the
    /// cache disabled — and re-evaluating with a warm cache replays the
    /// identical point without invoking the stochastic scheduler again.
    #[test]
    fn schedule_cache_is_semantically_invisible(seed in any::<u64>()) {
        use dsagen::dse::{DseConfig, Explorer};

        let kernels = vec![dsagen::workloads::polybench::atax()];
        let cfg = |use_cache: bool| DseConfig {
            seed,
            use_cache,
            shards: 1,
            threads: 1,
            max_iters: 4,
            patience: 4,
            sched_iters: 40,
            max_unroll: 2,
            ..DseConfig::default()
        };

        let mut raw = Explorer::new(presets::dse_initial(), &kernels, cfg(false));
        let mut cached = Explorer::new(presets::dse_initial(), &kernels, cfg(true));

        let p_raw = raw.evaluate();
        let p_cached = cached.evaluate();
        prop_assert_eq!(&p_raw, &p_cached);

        // Warm replay: bit-identical point, zero new scheduler passes.
        let passes_before = cached.sched_invocations();
        let p_again = cached.evaluate();
        prop_assert_eq!(&p_cached, &p_again);
        prop_assert_eq!(cached.sched_invocations(), passes_before);
        prop_assert!(cached.cache_stats().exact_hits > 0);

        // The raw explorer is itself deterministic (the baseline the
        // cache must reproduce).
        prop_assert_eq!(&p_raw, &raw.evaluate());
    }

    /// Thread-count invariance: for a fixed `(seed, shards)` the sharded
    /// explorer returns byte-identical traces and the same selected best
    /// whatever the executor width.
    #[test]
    fn sharded_exploration_is_thread_count_invariant(seed in any::<u64>()) {
        use dsagen::dse::{explore, DseConfig};

        let kernels = vec![dsagen::workloads::polybench::atax()];
        let cfg = |threads: usize| DseConfig {
            seed,
            shards: 3,
            threads,
            max_iters: 6,
            patience: 6,
            sched_iters: 40,
            max_unroll: 2,
            ..DseConfig::default()
        };

        let narrow = explore(presets::dse_initial(), &kernels, cfg(1));
        let wide = explore(presets::dse_initial(), &kernels, cfg(4));

        prop_assert_eq!(
            narrow.best.objective.to_bits(),
            wide.best.objective.to_bits()
        );
        prop_assert_eq!(&narrow.trace, &wide.trace);
        prop_assert_eq!(&narrow.shard_traces, &wide.shard_traces);
        prop_assert_eq!(
            narrow.best_adg.fingerprint(),
            wide.best_adg.fingerprint()
        );
    }
}

proptest! {
    // Framing properties are pure word-shuffling — cheap, so cover many
    // (stream, flip) pairs.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single-bit flip anywhere in a CRC-framed stream — payload,
    /// sequence number, or checksum bits alike — is *detected*: deframing
    /// never silently accepts a corrupted stream.
    #[test]
    fn single_bit_flip_in_framed_stream_is_detected(
        payloads in prop::collection::vec(any::<u64>(), 1..24),
        word_pick in any::<usize>(),
        bit in 0u32..64,
    ) {
        use dsagen::hwgen::{deframe_words, frame_words};
        let framed = frame_words(&payloads);
        // Sanity: the clean stream deframes to the original payloads.
        let clean = deframe_words(&framed, payloads.len())
            .map_err(|e| proptest::test_runner::TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&clean, &payloads);
        // One flipped bit, anywhere: never silently accepted.
        let mut corrupt = framed.clone();
        let w = word_pick % corrupt.len();
        corrupt[w] ^= 1u64 << bit;
        prop_assert!(
            deframe_words(&corrupt, payloads.len()).is_err(),
            "flip of bit {} in word {} went undetected",
            bit,
            w
        );
    }
}

proptest! {
    // Each case runs a real scheduling pass before encoding; keep the
    // count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// encode → decode → re-encode is bit-identical for random
    /// (preset, scheduling-seed) pairs, and verification mints a token
    /// bound to exactly that schedule — the contract `simulate` and the
    /// explorer gate on.
    #[test]
    fn encode_decode_reencode_is_bit_identical(seed in any::<u64>(), which in 0usize..4) {
        use dsagen::dfg::{compile_kernel, TransformConfig};
        use dsagen::hwgen::{verify_round_trip, verify_round_trip_timed};
        use dsagen::scheduler::{Problem, SchedulerConfig};

        let all = [
            presets::softbrain(),
            presets::spu(),
            presets::revel(),
            presets::dse_initial(),
        ];
        let adg = &all[which];
        let kernel = dsagen::workloads::polybench::mvt();
        let ck = compile_kernel(&kernel, &TransformConfig::fallback(), &adg.features())
            .map_err(|e| proptest::test_runner::TestCaseError::fail(e.to_string()))?;
        let cfg = SchedulerConfig { max_iters: 40, seed, ..SchedulerConfig::default() };
        let s = fresh(adg, &ck, &cfg);
        let problem = Problem::new(adg, &ck);
        // Whatever schedule the stochastic search produced (legal or not),
        // encode∘decode must be the identity on it.
        let config = verify_round_trip(&problem, &s.schedule)
            .map_err(|e| proptest::test_runner::TestCaseError::fail(e.to_string()))?;
        prop_assert!(config.matches(&s.schedule));
        let words = dsagen::hwgen::Bitstream::encode(&problem, &s.schedule).to_words();
        prop_assert_eq!(config.words(), &words[..]);
        // The timing-annotated encode round-trips too.
        let timed = verify_round_trip_timed(&problem, &s.schedule, &s.eval)
            .map_err(|e| proptest::test_runner::TestCaseError::fail(e.to_string()))?;
        prop_assert!(timed.matches(&s.schedule));
    }

    /// A transient single-bit flip on the configuration channel is
    /// recovered within the session retry budget: the corrupted frame is
    /// detected (CRC), re-requested, and the session still reaches
    /// `Verified` — never a silent misconfiguration, never a panic.
    #[test]
    fn transient_bit_flip_recovers_within_retry_budget(
        seed in any::<u64>(),
        flip_word in any::<usize>(),
        bit in 0u32..64,
    ) {
        use dsagen::dfg::{compile_kernel, TransformConfig};
        use dsagen::hwgen::{Bitstream, ProgrammingSession, SessionConfig, SessionState};
        use dsagen::scheduler::{Problem, SchedulerConfig};

        let adg = presets::softbrain();
        let kernel = dsagen::workloads::polybench::mvt();
        let ck = compile_kernel(&kernel, &TransformConfig::fallback(), &adg.features())
            .map_err(|e| proptest::test_runner::TestCaseError::fail(e.to_string()))?;
        let cfg = SchedulerConfig { max_iters: 40, seed, ..SchedulerConfig::default() };
        let s = fresh(&adg, &ck, &cfg);
        let problem = Problem::new(&adg, &ck);
        let bs = Bitstream::encode(&problem, &s.schedule);

        let mut session = ProgrammingSession::new(&bs, SessionConfig::default());
        let report = session.program(|round, frames| {
            let mut out = frames.to_vec();
            if round == 0 && !out.is_empty() {
                let idx = flip_word % out.len();
                out[idx] ^= 1u64 << bit;
            }
            out
        });
        prop_assert!(report.is_verified(), "{}", report);
        prop_assert_eq!(session.state(), SessionState::Verified);
        prop_assert!(report.crc_failures >= 1, "the flip must be detected");
        prop_assert!(
            report.attempts <= 1 + SessionConfig::default().max_retries,
            "attempts {} exceed the retry budget",
            report.attempts
        );
    }
}

proptest! {
    // Each case compiles, schedules, and simulates three timelines; keep
    // the count modest (3 presets × several seeds is still wide coverage).
    #![proptest_config(ProptestConfig::with_cases(9))]

    /// Stream checkpointing is invisible: with no faults scheduled,
    /// pausing a run at an arbitrary wall cycle, snapshotting it with
    /// `checkpoint()`, and resuming the *snapshot* produces a final
    /// report bit-identical to (a) the paused original run continuing
    /// and (b) a plain uninterrupted `simulate` of the same
    /// configuration — for random scheduling seeds across three presets.
    #[test]
    fn checkpoint_resume_is_identity_without_faults(
        seed in any::<u64>(),
        which in 0usize..3,
        pause_num in 1u64..8,
    ) {
        use dsagen::dfg::{compile_kernel, TransformConfig};
        use dsagen::faults::FaultSchedule;
        use dsagen::scheduler::SchedulerConfig;
        use dsagen::sim::{simulate, RuntimeConfig, RuntimeSim, SimConfig, StepOutcome};

        let all = [presets::softbrain(), presets::spu(), presets::revel()];
        let adg = &all[which];
        let kernel = dsagen::workloads::polybench::mvt();
        let ck = compile_kernel(&kernel, &TransformConfig::fallback(), &adg.features())
            .map_err(|e| proptest::test_runner::TestCaseError::fail(e.to_string()))?;
        let cfg = SchedulerConfig { max_iters: 60, seed, ..SchedulerConfig::default() };
        let s = fresh(adg, &ck, &cfg);
        if !s.is_legal() {
            // An occasional unlucky stochastic seed is not this property's
            // concern; legality is covered elsewhere.
            return Ok(());
        }

        let sim_cfg = SimConfig::default();
        let plain = simulate(adg, &ck, &s.schedule, &s.eval, 4, &sim_cfg)
            .map_err(|e| proptest::test_runner::TestCaseError::fail(e.to_string()))?;

        let fresh = || {
            RuntimeSim::new(
                adg, &ck, &s.schedule, &s.eval, 4,
                sim_cfg, RuntimeConfig::default(), &FaultSchedule::new(0),
            )
        };
        // Pause somewhere strictly inside the run (1/8 .. 7/8 of it).
        let pause_at = (plain.cycles * pause_num / 8).max(1);
        let mut rt = fresh().map_err(|e| proptest::test_runner::TestCaseError::fail(e.to_string()))?;
        let early = rt.run_for(pause_at);
        let ckpt = rt.checkpoint();
        prop_assert_eq!(ckpt.wall(), rt.wall());

        // Timeline A: the paused original continues to completion.
        if early.is_none() {
            prop_assert_eq!(rt.run_until_event(), StepOutcome::Finished);
        }
        let from_pause = rt.report();

        // Timeline B: a *different* instance resumes from the snapshot.
        let mut resumed = fresh().map_err(|e| proptest::test_runner::TestCaseError::fail(e.to_string()))?;
        resumed.restore(&ckpt);
        prop_assert_eq!(resumed.wall(), ckpt.wall());
        prop_assert_eq!(resumed.run_until_event(), StepOutcome::Finished);
        let from_snapshot = resumed.report();

        // All three timelines agree bit-for-bit.
        prop_assert_eq!(&from_pause, &plain);
        prop_assert_eq!(&from_snapshot, &plain);
    }
}

proptest! {
    // Masked-repair properties: each case builds schedules on masked
    // fabrics, so keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Port-level repair is a *refinement* of node decommission: the
    /// port-masked fabric keeps strictly more hardware than the
    /// node-masked one, so any schedule that is legal after
    /// decommissioning a link's endpoint must still evaluate feasible on
    /// the fabric that only masked the link. (This is why the ladder may
    /// try the cheap rung first: it can never be *less* repairable.)
    #[test]
    fn port_mask_repair_refines_node_decommission(
        seed in any::<u64>(),
        pick in any::<u64>(),
    ) {
        use dsagen::dfg::{compile_kernel, TransformConfig};
        use dsagen::scheduler::{evaluate, CapabilityMask, Problem, SchedulerConfig, Weights};

        let adg = presets::softbrain();
        let kernel = dsagen::workloads::polybench::mvt();
        let ck = compile_kernel(&kernel, &TransformConfig::fallback(), &adg.features())
            .map_err(|e| proptest::test_runner::TestCaseError::fail(e.to_string()))?;

        // Pick a maskable link: both the port mask (edge only) and the
        // node mask (edge's dst) must structurally validate.
        let candidates: Vec<_> = adg
            .edges()
            .filter(|e| {
                let port = CapabilityMask::new().with_edge(e.id());
                let node = CapabilityMask::new().with_node(e.dst);
                port.apply(&adg).is_ok() && node.apply(&adg).is_ok()
            })
            .map(|e| (e.id(), e.dst))
            .collect();
        if candidates.is_empty() {
            return Ok(());
        }
        let (eid, dst) = candidates[(pick as usize) % candidates.len()];

        let node_masked = CapabilityMask::new().with_node(dst).apply(&adg).expect("validated");
        let port_masked = CapabilityMask::new().with_edge(eid).apply(&adg).expect("validated");

        let cfg = SchedulerConfig { max_iters: 60, seed, ..SchedulerConfig::default() };
        let under_node = fresh(&node_masked, &ck, &cfg);
        if !under_node.is_legal() {
            // The decommissioned fabric may genuinely be too small; the
            // refinement claim is vacuous for this draw.
            return Ok(());
        }

        let problem = Problem::new(&port_masked, &ck);
        let eval = evaluate(&problem, &under_node.schedule, &Weights::default());
        prop_assert!(
            eval.feasible,
            "schedule legal without the node must stay feasible with only the port masked"
        );
    }
}

/// Partial re-placement is a *refinement* of node decommission, the way
/// port masking refines it one rung earlier (see
/// `port_mask_repair_refines_node_decommission`): wherever whole-kernel
/// repair after decommissioning a link's endpoint finds a legal schedule,
/// the partial-replace rung — which masks only the link and re-places
/// only the afflicted recovery domain from scratch, every other domain
/// pinned — must also find one, and its result must leave the pinned
/// domains bit-identical. The finer rung never trades away repairability
/// for containment.
#[test]
fn partial_replacement_refines_node_decommission() {
    use std::collections::{BTreeMap, BTreeSet};

    use dsagen::adg::EdgeId;
    use dsagen::dfg::{compile_kernel, TransformConfig};
    use dsagen::scheduler::{schedule, CapabilityMask, Entity, Problem, SchedulerConfig, Scope, Start};
    use dsagen::sim::RecoveryDomains;

    let mut exercised = 0usize;
    'search: for adg in [presets::softbrain(), presets::revel(), presets::spu()] {
        let kernel = dsagen::workloads::polybench::mvt();
        let ck = compile_kernel(&kernel, &TransformConfig::fallback(), &adg.features())
            .expect("mvt compiles");
        for seed in 0u64..6 {
            let cfg = SchedulerConfig { max_iters: 120, seed, ..SchedulerConfig::default() };
            let s = fresh(&adg, &ck, &cfg);
            if !s.is_legal() {
                continue;
            }
            let domains = RecoveryDomains::derive(&adg, &ck, &s.schedule);
            if domains.len() < 2 {
                continue;
            }
            // Routed links used by exactly one (proper-subset) domain:
            // the fault class whose blast radius the partition bounds.
            let problem = Problem::new(&adg, &ck);
            let mut edge_regions: BTreeMap<EdgeId, BTreeSet<usize>> = BTreeMap::new();
            for (idx, path) in &s.schedule.routes {
                let Some(ri) = problem
                    .edges
                    .get(*idx)
                    .and_then(|v| problem.entities.get(v.src))
                    .map(Entity::region)
                else {
                    continue;
                };
                for eid in path {
                    edge_regions.entry(*eid).or_default().insert(ri);
                }
            }
            for (eid, regions) in &edge_regions {
                let rvec: Vec<usize> = regions.iter().copied().collect();
                let Some(dom) = domains.domain_of_regions(&rvec) else { continue };
                let afflicted: BTreeSet<usize> =
                    domains.regions_in(dom).iter().copied().collect();
                if afflicted.len() >= domains.region_count() {
                    continue;
                }
                let Some(dst) = adg.edge(*eid).map(|e| e.dst) else { continue };
                let node_mask = CapabilityMask::new().with_node(dst);
                let edge_mask = CapabilityMask::new().with_edge(*eid);
                if node_mask.apply(&adg).is_err() || edge_mask.apply(&adg).is_err() {
                    continue;
                }
                // Coarse rung: decommission the endpoint, repair the
                // whole kernel. Skip candidates it cannot handle — the
                // refinement claim is about where it *succeeds*.
                let coarse_adg = node_mask.apply(&adg).expect("validated");
                let start = Start::Repair { previous: &s.schedule, scope: None, max_attempts: 4 };
                let coarse = schedule(&coarse_adg, &ck, &start, &cfg, &Telemetry::disabled())
                    .expect("an unscoped start pins nothing");
                if !coarse.is_legal() {
                    continue;
                }
                // Fine rung: mask only the link, re-place only the
                // afflicted domain from scratch with the others pinned.
                let pr_cfg = SchedulerConfig { max_iters: 800, ..cfg };
                let fine_adg = edge_mask.apply(&adg).expect("validated");
                let scope = Some(Scope { regions: &afflicted, from_scratch: true });
                let start = Start::Repair { previous: &s.schedule, scope, max_attempts: 4 };
                let fine = schedule(&fine_adg, &ck, &start, &pr_cfg, &Telemetry::disabled())
                    .expect("pins hold: the masked link is used only inside the scope");
                assert!(
                    fine.is_legal(),
                    "{}: decommission of {dst:?} repairs, so partial re-placement of \
domain {dom} around {eid:?} must too (eval: {:?})",
                    adg.name(),
                    fine.eval
                );
                assert!(
                    fine.schedule.agrees_outside(&problem, &s.schedule, &afflicted),
                    "{}: partial re-placement must leave pinned domains bit-identical",
                    adg.name()
                );
                exercised += 1;
                continue 'search;
            }
        }
    }
    assert!(
        exercised > 0,
        "no (preset, seed) produced a multi-domain mapping with a decommission-repairable \
single-domain link — the refinement claim was never exercised"
    );
}

/// The search scores its schedules against a link table it keeps in step
/// with every route edit; public `evaluate` builds that table from the bare
/// schedule. Whatever entry point produced a result, the evaluation it
/// carries must be the one `evaluate` gives for its schedule, field for
/// field — the in-loop path and the public path are one definition.
#[test]
fn returned_evaluation_is_the_public_evaluation_of_the_returned_schedule() {
    use std::collections::BTreeSet;

    use dsagen::dfg::{compile_kernel, TransformConfig};
    use dsagen::scheduler::{
        evaluate, schedule, EntityKind, Problem, ScheduleError, ScheduleResult, SchedulerConfig,
        Scope, Start,
    };

    let mut scoped = 0usize;
    for adg in [presets::softbrain(), presets::spu(), presets::revel(), presets::dse_initial()] {
        for kernel in [dsagen::workloads::polybench::mvt(), dsagen::workloads::machsuite::mm()] {
            let ck = compile_kernel(&kernel, &TransformConfig::fallback(), &adg.features())
                .expect("fallback versions compile everywhere");
            for seed in [3u64, 77001] {
                let cfg = SchedulerConfig { max_iters: 60, seed, ..SchedulerConfig::default() };
                let agrees = |on: &Adg, what: &str, result: &ScheduleResult| {
                    let public = evaluate(&Problem::new(on, &ck), &result.schedule, &cfg.weights);
                    assert_eq!(public, result.eval, "{} {} seed {seed}: {what}", on.name(), kernel.name);
                };
                let first = fresh(&adg, &ck, &cfg);
                agrees(&adg, "schedule", &first);
                // Take away a PE the mapping uses, as the digest table does.
                let problem = Problem::new(&adg, &ck);
                let Some(faulted) = problem
                    .entities
                    .iter()
                    .zip(&first.schedule.placement)
                    .filter(|(e, _)| matches!(e.kind, EntityKind::Op { .. }))
                    .filter_map(|(_, node)| *node)
                    .find_map(|node| {
                        let mut faulted = adg.clone();
                        faulted.remove_node(node).ok()?;
                        faulted.validate().ok().map(|()| faulted)
                    })
                else {
                    continue;
                };
                let tel = Telemetry::disabled();
                let start = Start::Repair { previous: &first.schedule, scope: None, max_attempts: 2 };
                agrees(&faulted, "repair", &schedule(&faulted, &ck, &start, &cfg, &tel).unwrap());
                let regions = BTreeSet::from([0]);
                let scope = Some(Scope { regions: &regions, from_scratch: true });
                let start = Start::Repair { previous: &first.schedule, scope, max_attempts: 2 };
                match schedule(&faulted, &ck, &start, &cfg, &tel) {
                    Ok(result) => {
                        agrees(&faulted, "scoped repair from scratch", &result);
                        scoped += 1;
                    }
                    Err(ScheduleError::PinsBroken) => {}
                }
            }
        }
    }
    assert!(scoped > 0, "no scoped repair kept its pins: scoped repair was never exercised");
}

proptest! {
    // Each case runs two cycle-accurate timelines (fault-free and
    // recovered) per preset draw; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The blast-radius isolation invariant: a fault whose victim sits in
    /// one recovery domain leaves every *other* domain's per-cycle firing
    /// trace bit-identical to the fault-free run. Rollback is sliced (or
    /// replayed deterministically), repair pins the untouched domains'
    /// placements, so nothing outside the afflicted domain may observe
    /// the fault — across presets and fault seeds.
    #[test]
    fn fault_in_one_domain_leaves_other_domains_bit_identical(
        seed in any::<u64>(),
        which in 0usize..3,
        arrival_num in 1u64..8,
    ) {
        use dsagen::dfg::{compile_kernel, TransformConfig};
        use dsagen::faults::{FaultKind, FaultLifetime, FaultSchedule};
        use dsagen::scheduler::SchedulerConfig;
        use dsagen::sim::{
            run_with_recovery, simulate, RecoveryDomains, RecoveryPolicy, RuntimeConfig,
            RuntimeSim, SimConfig, StepOutcome,
        };

        let all = [presets::softbrain(), presets::spu(), presets::revel()];
        let adg = &all[which];
        // mvt: two independent pipeline regions — the smallest kernel on
        // which the partition can produce more than one domain.
        let kernel = dsagen::workloads::polybench::mvt();
        let ck = compile_kernel(&kernel, &TransformConfig::fallback(), &adg.features())
            .map_err(|e| proptest::test_runner::TestCaseError::fail(e.to_string()))?;
        let s = fresh(adg, &ck, &SchedulerConfig::default());
        if !s.is_legal() {
            return Ok(());
        }
        let domains = RecoveryDomains::derive(adg, &ck, &s.schedule);
        if domains.len() < 2 {
            // Single-domain mappings have no "other" domain to protect;
            // the invariant is vacuous for this draw.
            return Ok(());
        }

        let rt = RuntimeConfig { record_traces: true, ..RuntimeConfig::default() };
        let sim_cfg = SimConfig::default();
        let plain = simulate(adg, &ck, &s.schedule, &s.eval, 4, &sim_cfg)
            .map_err(|e| proptest::test_runner::TestCaseError::fail(e.to_string()))?;

        // Fault-free baseline traces.
        let mut base_sim = RuntimeSim::new(
            adg, &ck, &s.schedule, &s.eval, 4, sim_cfg, rt, &FaultSchedule::new(0),
        )
        .map_err(|e| proptest::test_runner::TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(base_sim.run_until_event(), StepOutcome::Finished);
        let baseline: Vec<Vec<(usize, u64)>> =
            base_sim.firing_traces().expect("record_traces on").to_vec();

        // One permanent fault strictly inside the run.
        let arrival = (plain.cycles * arrival_num / 8).max(1);
        let faults = FaultSchedule::new(seed)
            .with(arrival, FaultLifetime::Permanent, FaultKind::DeadPe);
        let policy = RecoveryPolicy { rt, ..RecoveryPolicy::default() };
        let tel = dsagen::telemetry::Telemetry::disabled();
        let rep = match run_with_recovery(
            adg, &ck, &s.schedule, &s.eval, 4, &sim_cfg, &faults, &policy, &tel,
        ) {
            Ok(rep) => rep,
            // A typed failure (e.g. the degraded fabric cannot host the
            // kernel) is outside this property's scope.
            Err(_) => return Ok(()),
        };
        // Late arrivals may land after the run finished; nothing to check.
        if rep.events.is_empty() {
            return Ok(());
        }
        // The invariant is stated for single-domain faults resolved at
        // domain scope: a whole-kernel reschedule (or a victim spanning
        // domains) legitimately moves every region.
        if rep.events.iter().any(|e| e.domain.is_none() || e.action.label() == "full-reschedule")
        {
            return Ok(());
        }
        // Restrict to single-event runs so `domains` (derived from the
        // original mapping) still describes the partition each event saw.
        let [event] = &rep.events[..] else { return Ok(()) };
        let afflicted = event.domain.expect("checked above");
        let traces = rep.firing_traces.as_ref().expect("record_traces on");
        prop_assert_eq!(traces.len(), baseline.len());
        for region in 0..domains.region_count() {
            if domains.domain_of(region) == Some(afflicted) {
                continue;
            }
            prop_assert!(
                traces[region] == baseline[region],
                "region {} (outside afflicted domain {}) must be bit-identical",
                region,
                afflicted
            );
        }
    }
}

proptest! {
    // Each case runs several cycle-accurate timelines through the
    // degraded rung; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Checkpoint/restore identity across a degraded-mode resume: on a
    /// saturated fabric (decommission is never feasible) a permanent
    /// fault forces the degraded rung, which resumes from the checkpoint
    /// ring. The run must terminate typed, lose no work versus the
    /// fault-free baseline, and replay bit-identically — for arbitrary
    /// fault seeds and arrival points.
    #[test]
    fn degraded_mode_resume_preserves_checkpoint_identity(
        seed in any::<u64>(),
        arrival_num in 1u64..8,
    ) {
        use dsagen::adg::{PeSpec, Scheduling, Sharing};
        use dsagen::faults::{FaultKind, FaultLifetime, FaultSchedule};
        use dsagen::sim::{
            run_with_degradation, simulate, RecoveryAction, RecoveryPolicy, SimConfig,
        };
        use dsagen::dfg::{
            compile_kernel, AffineExpr, KernelBuilder, MemClass, TransformConfig, TripCount,
        };
        use dsagen::scheduler::SchedulerConfig;

        let pe = PeSpec::new(
            Scheduling::Static,
            Sharing::Dedicated,
            OpSet::integer_alu().union(OpSet::integer_mul()),
        );
        let adg = presets::mesh(&presets::MeshConfig::new("prop-tiny", 1, 2, pe));
        let mut k = KernelBuilder::new("prop-dot");
        let a = k.array("a", BitWidth::B64, 512, MemClass::MainMemory);
        let b = k.array("b", BitWidth::B64, 512, MemClass::MainMemory);
        let c = k.array("c", BitWidth::B64, 1, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(512), true);
        let va = r.load(a, AffineExpr::var(i));
        let vb = r.load(b, AffineExpr::var(i));
        let p = r.bin(Opcode::Mul, va, vb);
        let acc = r.reduce(Opcode::Add, p, i);
        r.store(c, AffineExpr::constant(0), acc);
        k.finish_region(r);
        let kernel = k.build().expect("dot builds");
        let ck = compile_kernel(&kernel, &TransformConfig::fallback(), &adg.features())
            .map_err(|e| proptest::test_runner::TestCaseError::fail(e.to_string()))?;
        let s = fresh(&adg, &ck, &SchedulerConfig::default());
        if !s.is_legal() {
            return Ok(());
        }

        let sim_cfg = SimConfig::default();
        let plain = simulate(&adg, &ck, &s.schedule, &s.eval, 0, &sim_cfg)
            .map_err(|e| proptest::test_runner::TestCaseError::fail(e.to_string()))?;
        // Strike strictly inside the run so the checkpoint ring has
        // state to resume from.
        let arrival = (plain.cycles * arrival_num / 8).max(1);
        let faults = FaultSchedule::new(seed)
            .with(arrival, FaultLifetime::Permanent, FaultKind::DeadPe);

        let policy = RecoveryPolicy::default();
        let tel = dsagen::telemetry::Telemetry::disabled();
        let run = || {
            run_with_degradation(
                &adg, &ck, &s.schedule, &s.eval, 0, &sim_cfg, &faults, &policy, &tel,
            )
        };
        let out = run().map_err(|e| proptest::test_runner::TestCaseError::fail(e.to_string()))?;
        let report = out.report();
        // The fault may land after the run finished (late arrival_num on
        // short runs); when it strikes, the saturated fabric forces the
        // degraded rung.
        if !report.events.is_empty() {
            prop_assert!(out.is_degraded(), "saturated fabric must degrade, got {}", out);
            let rescheduled = matches!(
                report.events[0].action,
                RecoveryAction::DegradedReschedule { .. }
            );
            prop_assert!(rescheduled, "first event must be a degraded reschedule");
            let ratio = out.throughput_ratio();
            prop_assert!(ratio > 0.0 && ratio <= 1.0, "ratio {}", ratio);
        }
        prop_assert_eq!(&report.report.firings, &plain.firings);

        // Bit-identical replay: checkpoint capture + restore is pure.
        let again = run().map_err(|e| proptest::test_runner::TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(out, again);
    }
}
