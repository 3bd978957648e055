//! Figure 15 — Model Validation and Quality of the Generated Hardware.
//!
//! Three parts, as in the paper:
//!  (a) power/area model validation: regression estimate ("Est.") versus
//!      full-fabric synthesis ("Synth") versus technology-scaled prior
//!      publications ("Scaled") — the estimate lands 4–7% below synthesis;
//!  (b) generated hardware versus prior accelerators: perf²/mm² of the
//!      DSE designs against Softbrain/SPU (mean 1.3×) and area/power
//!      versus the scaled DSAs DianNao and SCNN;
//!  (c) performance-model validation: model cycles versus cycle-level
//!      simulation (paper: mean 7% error, max 30% on stencil-3d).
//!
//! Run with: `cargo run --release -p dsagen-bench --bin fig15`

use dsagen_adg::{presets, Adg};
use dsagen_bench::{geomean, harness_opts, rule};
use dsagen_dse::{explore, DseConfig};
use dsagen_model::{scaled, synthesize_adg, AreaPowerModel, HwCost};
use dsagen_sim::{simulate, SimConfig};
use dsagen_workloads::{suite_kernels, Suite};

fn dse(name: &str, kernels: &[dsagen_dfg::Kernel], seed: u64) -> Adg {
    let cfg = DseConfig {
        seed,
        max_iters: 140,
        patience: 70,
        sched_iters: 200,
        max_unroll: 4,
        ..DseConfig::default()
    };
    let mut adg = explore(presets::dse_initial(), kernels, cfg).best_adg;
    adg.set_name(name);
    adg
}

/// Geomean modeled performance (IPC) of `kernels` on `adg`.
fn perf_on(adg: &Adg, kernels: &[dsagen_dfg::Kernel]) -> f64 {
    let perfs: Vec<f64> = kernels
        .iter()
        .filter_map(|k| dsagen::compile(adg, k, &harness_opts()).ok())
        .map(|c| c.perf.ipc)
        .collect();
    geomean(&perfs)
}

fn print_cost_row(name: &str, est: HwCost, synth: HwCost, scaled: Option<HwCost>) {
    let (sa, sp) = scaled.map_or((String::from("-"), String::from("-")), |s| {
        (format!("{:.3}", s.area_mm2), format!("{:.0}", s.power_mw))
    });
    println!(
        "{:<18} {:>9.3} {:>9.3} {:>8} {:>9.0} {:>9.0} {:>8}  {:>5.1}%",
        name,
        est.area_mm2,
        synth.area_mm2,
        sa,
        est.power_mw,
        synth.power_mw,
        sp,
        100.0 * (synth.area_mm2 - est.area_mm2) / synth.area_mm2
    );
}

fn main() {
    let model = AreaPowerModel::default();

    println!("running the three DSE runs (MachSuite / DenseNN / SparseCNN)…");
    let machsuite: Vec<_> = suite_kernels(Suite::MachSuite)
        .into_iter()
        .filter(|k| ["md", "spmv-crs", "stencil-2d", "mm"].contains(&k.name.as_str()))
        .collect();
    let dense = suite_kernels(Suite::DenseNN);
    let sparse = suite_kernels(Suite::SparseCNN);
    let d_mach = dse("DSAGEN_MachSuite", &machsuite, 0xF15A);
    let d_dense = dse("DSAGEN_DenseNN", &dense, 0xF15B);
    let d_sparse = dse("DSAGEN_SparseCNN", &sparse, 0xF15C);

    // ---------------------------------------------------------- part (a)
    println!("\nFIGURE 15a: power/area model validation (Est vs Synth vs Scaled)");
    rule(92);
    println!(
        "{:<18} {:>9} {:>9} {:>8} {:>9} {:>9} {:>8}  {:>6}",
        "design", "area-est", "area-syn", "scaled", "pow-est", "pow-syn", "scaled", "gap"
    );
    rule(92);
    let rows: Vec<(&str, Adg, Option<HwCost>)> = vec![
        ("Softbrain", presets::softbrain(), Some(scaled::softbrain())),
        ("SPU", presets::spu(), Some(scaled::spu())),
        ("DSAGEN_MachSuite", d_mach.clone(), None),
        ("DSAGEN_DenseNN", d_dense.clone(), None),
        ("DSAGEN_SparseCNN", d_sparse.clone(), None),
    ];
    let mut gaps = Vec::new();
    for (name, adg, sc) in &rows {
        let est = model.estimate_adg(adg);
        let synth = synthesize_adg(adg);
        gaps.push((synth.area_mm2 - est.area_mm2) / synth.area_mm2);
        print_cost_row(name, est, synth, *sc);
    }
    rule(92);
    println!(
        "estimate is {:.0}-{:.0}% below synthesis (paper: 4-7%, from whole-fabric timing fixes)",
        100.0 * gaps.iter().copied().fold(f64::INFINITY, f64::min),
        100.0 * gaps.iter().copied().fold(0.0, f64::max)
    );

    // ---------------------------------------------------------- part (b)
    println!("\nFIGURE 15b: generated hardware vs prior accelerators (perf^2/mm^2)");
    rule(88);
    println!(
        "{:<12} {:<18} {:<12} {:>9} {:>9} {:>11}",
        "workloads", "DSAGEN design", "baseline", "perf-ratio", "area-ratio", "obj-ratio"
    );
    rule(88);
    let mut obj_ratios = Vec::new();
    for (wname, design, baseline_name, baseline, kernels) in [
        (
            "MachSuite",
            &d_mach,
            "Softbrain",
            presets::softbrain(),
            &machsuite,
        ),
        (
            "DenseNN",
            &d_dense,
            "Softbrain",
            presets::softbrain(),
            &dense,
        ),
        ("SparseCNN", &d_sparse, "SPU", presets::spu(), &sparse),
    ] {
        let p_new = perf_on(design, kernels);
        let p_old = perf_on(&baseline, kernels);
        let a_new = model.estimate_adg(design).area_mm2;
        let a_old = model.estimate_adg(&baseline).area_mm2;
        let obj_ratio = dsagen_model::objective(p_new, a_new)
            / dsagen_model::objective(p_old, a_old).max(1e-12);
        obj_ratios.push(obj_ratio);
        println!(
            "{:<12} {:<18} {:<12} {:>9.2} {:>9.2} {:>11.2}",
            wname,
            design.name(),
            baseline_name,
            p_new / p_old.max(1e-12),
            a_new / a_old.max(1e-12),
            obj_ratio
        );
    }
    rule(88);
    println!(
        "mean perf^2/mm^2 vs prior programmable accelerators: {:.2}x (paper: 1.3x)",
        geomean(&obj_ratios)
    );
    // Scaled DSA reference points.
    let dn = scaled::diannao();
    let sc = scaled::scnn();
    let dd = model.estimate_adg(&d_dense);
    let ds = model.estimate_adg(&d_sparse);
    println!(
        "DSAGEN_DenseNN vs scaled DianNao: {:.1}x area, {:.1}x power (paper: 2.4x / 2.6x)",
        dd.area_mm2 / dn.area_mm2,
        dd.power_mw / dn.power_mw
    );
    println!(
        "DSAGEN_SparseCNN vs scaled SCNN: {:.1}x area, {:.1}x power (paper: 1.3x / 1.3x)",
        ds.area_mm2 / sc.area_mm2,
        ds.power_mw / sc.power_mw
    );

    // ---------------------------------------------------------- part (c)
    println!("\nFIGURE 15c: performance-model validation (model vs cycle-level simulation)");
    rule(70);
    println!(
        "{:<14} {:<12} {:>12} {:>12} {:>8}",
        "workload", "hardware", "model", "simulated", "error"
    );
    rule(70);
    let mut errors: Vec<(String, f64)> = Vec::new();
    let val_set: Vec<(Adg, dsagen_dfg::Kernel)> = vec![
        (presets::softbrain(), dsagen_workloads::machsuite::mm()),
        (
            presets::softbrain(),
            dsagen_workloads::machsuite::stencil2d(),
        ),
        (
            presets::softbrain(),
            dsagen_workloads::machsuite::stencil3d(),
        ),
        (presets::softbrain(), dsagen_workloads::polybench::mvt()),
        (presets::spu(), dsagen_workloads::sparse::histogram()),
        (presets::spu(), dsagen_workloads::sparse::join()),
        (presets::revel(), dsagen_workloads::dsp::centro_fir()),
        (presets::revel(), dsagen_workloads::dsp::qr()),
    ];
    for (adg, kernel) in val_set {
        let Ok(c) = dsagen::compile(&adg, &kernel, &harness_opts()) else {
            continue;
        };
        let Ok(sim) = simulate(
            &adg,
            &c.version,
            &c.schedule,
            &c.eval,
            c.config_path_len,
            &SimConfig::default(),
        ) else {
            continue;
        };
        let err = (sim.cycles as f64 - c.perf.cycles).abs() / sim.cycles.max(1) as f64;
        errors.push((kernel.name.clone(), err));
        println!(
            "{:<14} {:<12} {:>12.0} {:>12} {:>7.1}%",
            kernel.name,
            adg.name(),
            c.perf.cycles,
            sim.cycles,
            100.0 * err
        );
    }
    rule(70);
    let mean = errors.iter().map(|(_, e)| e).sum::<f64>() / errors.len().max(1) as f64;
    let (worst, max) = errors
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .map(|(n, e)| (n.clone(), *e))
        .unwrap_or_default();
    println!(
        "mean error {:.1}%, max {:.1}% ({worst})   (paper: mean 7%, max 30% on stencil-3d)",
        100.0 * mean,
        100.0 * max
    );
}
