//! Workspace integration tests: full compile → schedule → model → simulate
//! flows across crates.

use dsagen::prelude::*;
use dsagen::sim::{simulate, SimConfig};

fn quick_opts() -> CompileOptions {
    CompileOptions {
        max_unroll: 4,
        scheduler: SchedulerConfig {
            max_iters: 200,
            ..SchedulerConfig::default()
        },
        ..CompileOptions::default()
    }
}

fn compile_and_sim(adg: &Adg, kernel: &dsagen::dfg::Kernel) -> (dsagen::Compiled, u64) {
    let compiled = dsagen::compile(adg, kernel, &quick_opts())
        .unwrap_or_else(|e| panic!("{} on {}: {e}", kernel.name, adg.name()));
    let report = simulate(
        adg,
        &compiled.version,
        &compiled.schedule,
        &compiled.eval,
        compiled.config_path_len,
        &SimConfig::default(),
    )
    .unwrap_or_else(|e| panic!("{} on {}: {e}", kernel.name, adg.name()));
    (compiled, report.cycles)
}

#[test]
fn mm_on_softbrain_vectorizes_and_simulates() {
    let adg = dsagen::adg::presets::softbrain();
    let kernel = dsagen::workloads::machsuite::mm();
    let (compiled, cycles) = compile_and_sim(&adg, &kernel);
    // Dense mm should pick an unrolled version on a 16-PE fabric.
    assert!(compiled.version.config.unroll >= 2);
    // 64^3 MACs: at best instances = 64^3 / unroll cycles.
    let min_cycles = 64u64 * 64 * 64 / u64::from(compiled.version.config.unroll);
    assert!(cycles >= min_cycles / 2);
    assert!(
        cycles <= min_cycles * 8,
        "cycles {cycles} vs min {min_cycles}"
    );
}

#[test]
fn join_uses_stream_join_on_spu_but_not_softbrain() {
    let kernel = dsagen::workloads::sparse::join();
    let spu = dsagen::adg::presets::spu();
    let (on_spu, spu_cycles) = compile_and_sim(&spu, &kernel);
    assert!(on_spu.version.config.stream_join);

    let soft = dsagen::adg::presets::softbrain();
    let (on_soft, soft_cycles) = compile_and_sim(&soft, &kernel);
    assert!(!on_soft.version.config.stream_join);
    assert!(
        spu_cycles * 2 < soft_cycles,
        "stream-join hardware should win: spu {spu_cycles} vs softbrain {soft_cycles}"
    );
}

#[test]
fn histogram_uses_atomic_update_on_spu() {
    let kernel = dsagen::workloads::sparse::histogram();
    let spu = dsagen::adg::presets::spu();
    let (compiled, spu_cycles) = compile_and_sim(&spu, &kernel);
    assert!(compiled.version.config.indirect);
    assert!(compiled.version.config.atomic_update);

    let soft = dsagen::adg::presets::softbrain();
    let (fallback, soft_cycles) = compile_and_sim(&soft, &kernel);
    assert!(!fallback.version.config.atomic_update);
    assert!(spu_cycles < soft_cycles);
}

#[test]
fn qr_pipelines_producer_consumer() {
    let adg = dsagen::adg::presets::revel();
    let kernel = dsagen::workloads::dsp::qr();
    let (compiled, cycles) = compile_and_sim(&adg, &kernel);
    assert!(compiled.version.config.forward);
    assert!(compiled.version.regions[0].pipelined_with_next);
    assert!(cycles > 0);
}

#[test]
fn model_tracks_simulation_across_dense_workloads() {
    // Fig 15 bottom: the performance model should track the simulator with
    // modest error on regular kernels.
    let adg = dsagen::adg::presets::softbrain();
    let mut errors = Vec::new();
    for kernel in [
        dsagen::workloads::polybench::mm(),
        dsagen::workloads::nn::classifier(),
        dsagen::workloads::dsp::centro_fir(),
    ] {
        let (compiled, cycles) = compile_and_sim(&adg, &kernel);
        let err = (cycles as f64 - compiled.perf.cycles).abs() / cycles as f64;
        errors.push((kernel.name.clone(), err));
    }
    let mean = errors.iter().map(|(_, e)| e).sum::<f64>() / errors.len() as f64;
    assert!(mean < 0.30, "mean model error {mean:.2}: {errors:?}");
}

#[test]
fn all_table1_workloads_compile_on_the_full_capability_mesh() {
    let adg = dsagen::adg::presets::dse_initial();
    for w in dsagen::workloads::all() {
        let compiled = dsagen::compile(&adg, &w.kernel, &quick_opts())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(compiled.eval.feasible, "{} schedule infeasible", w.name);
    }
}

#[test]
fn generated_artifacts_are_consistent_with_the_schedule() {
    let adg = dsagen::adg::presets::softbrain();
    let kernel = dsagen::workloads::polybench::mvt();
    let compiled = dsagen::compile(&adg, &kernel, &quick_opts()).unwrap();
    let hw = dsagen::generate(&adg, &compiled, 4, 9);
    // Every scheduled instruction appears in the bitstream.
    let encoded_instrs: usize = hw.bitstream.configs.values().map(|c| c.instrs.len()).sum();
    assert_eq!(encoded_instrs, compiled.version.inst_count());
    // Config paths cover all configurable nodes.
    let configurable = adg.nodes().filter(|n| n.kind.is_configurable()).count();
    assert_eq!(hw.config_paths.covered().len(), configurable);
    // The Verilog instantiates the same number of PEs the graph has.
    assert_eq!(
        hw.verilog.matches("dsagen_pe #(").count(),
        adg.pes().count() + 1 // +1 for the leaf module definition
    );
}

#[test]
fn fft_is_slower_per_op_than_fir_due_to_strided_scratchpad_access() {
    // The fft pathology (§VIII-A): small-stride butterfly accesses generate
    // per-element scratchpad requests.
    let adg = dsagen::adg::presets::revel();
    let fft = dsagen::workloads::dsp::fft();
    let fir = dsagen::workloads::dsp::centro_fir();
    let (fft_c, fft_cycles) = compile_and_sim(&adg, &fft);
    let (fir_c, fir_cycles) = compile_and_sim(&adg, &fir);
    let fft_ops: f64 = fft_c
        .version
        .regions
        .iter()
        .map(|r| r.dfg.inst_count() as f64 * r.instances)
        .sum();
    let fir_ops: f64 = fir_c
        .version
        .regions
        .iter()
        .map(|r| r.dfg.inst_count() as f64 * r.instances)
        .sum();
    let fft_cpo = fft_cycles as f64 / fft_ops;
    let fir_cpo = fir_cycles as f64 / fir_ops;
    assert!(
        fft_cpo > fir_cpo,
        "fft cycles/op {fft_cpo:.3} should exceed fir {fir_cpo:.3}"
    );
}

#[test]
fn fir16_packs_subword_only_on_decomposable_fabrics() {
    // §III-A decomposable FUs: 16-bit data packs four lanes per 64-bit PE.
    let kernel = dsagen::workloads::dsp::fir16();
    let decomp = dsagen::adg::presets::dse_initial();
    let (packed, _) = compile_and_sim(&decomp, &kernel);
    assert!(
        packed.version.config.sub_word,
        "decomposable fabric should pick the sub-word version"
    );

    let plain = dsagen::adg::presets::softbrain();
    let (unpacked, _) = compile_and_sim(&plain, &kernel);
    assert!(!unpacked.version.config.sub_word);
    // Packing shrinks the firing count at equal unroll.
    let per_unroll_packed =
        packed.version.regions[0].instances * f64::from(packed.version.config.unroll);
    let per_unroll_plain =
        unpacked.version.regions[0].instances * f64::from(unpacked.version.config.unroll);
    assert!(
        per_unroll_packed < per_unroll_plain,
        "packed {per_unroll_packed} vs plain {per_unroll_plain}"
    );
}

#[test]
fn adg_text_roundtrips_through_compile() {
    // A graph written to the textual format and re-parsed accepts the same
    // schedule-bearing artifacts.
    let adg = dsagen::adg::presets::spu();
    let text = dsagen::adg::text::to_text(&adg);
    let parsed = dsagen::adg::text::from_text(&text).expect("parses");
    assert_eq!(adg, parsed);
    let kernel = dsagen::workloads::sparse::join();
    let c1 = dsagen::compile(&adg, &kernel, &quick_opts()).unwrap();
    let c2 = dsagen::compile(&parsed, &kernel, &quick_opts()).unwrap();
    assert_eq!(c1.perf.cycles, c2.perf.cycles);
    assert_eq!(c1.schedule.placement, c2.schedule.placement);
}
