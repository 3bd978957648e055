//! Quickstart: compile a dense matrix multiply onto the Softbrain preset,
//! inspect the chosen version, and simulate it cycle by cycle.
//!
//! Run with: `cargo run --release -p dsagen --example quickstart`

use dsagen::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Pick a target accelerator: a 4×4 mesh of static dedicated PEs
    //    with a non-banked scratchpad (Softbrain, ISCA 2017).
    let adg = dsagen::adg::presets::softbrain();
    println!("target hardware : {adg}");
    let features = adg.features();
    println!(
        "features        : {} PEs, dynamic={}, shared={}, indirect-mem={}",
        features.total_pes(),
        features.has_dynamic_pes(),
        features.has_shared_pes(),
        features.indirect_memory
    );

    // 2. Pick a kernel: MachSuite's 64x64x64 matrix multiply.
    let kernel = dsagen::workloads::machsuite::mm();
    println!(
        "kernel          : {} ({} regions)",
        kernel.name,
        kernel.regions.len()
    );

    // 3. Compile: the modular compiler enumerates transformation
    //    configurations (vectorization degrees here — the kernel is dense),
    //    schedules each onto the fabric, and keeps the fastest legal one.
    let compiled = dsagen::compile(&adg, &kernel, &CompileOptions::default())?;
    println!(
        "chosen version  : unroll={} ({} candidates tried)",
        compiled.version.config.unroll, compiled.candidates_tried
    );
    println!(
        "schedule        : {} network hops, max II {:.2}",
        compiled.eval.hops, compiled.eval.max_ii
    );
    println!(
        "model estimate  : {:.0} cycles (IPC {:.2})",
        compiled.perf.cycles, compiled.perf.ipc
    );

    // 4. Simulate at cycle level and compare against the model.
    let report = dsagen::sim::simulate(
        &adg,
        &compiled.version,
        &compiled.schedule,
        &compiled.eval,
        compiled.config_path_len,
        &dsagen::sim::SimConfig::default(),
    )
    .expect("quickstart schedule simulates");
    let err = (report.cycles as f64 - compiled.perf.cycles).abs() / report.cycles as f64;
    println!(
        "simulated       : {} cycles (IPC {:.2}), model error {:.1}%",
        report.cycles,
        report.ipc,
        100.0 * err
    );

    // 5. Estimate the hardware cost with the regression model.
    let cost = dsagen::model::AreaPowerModel::default().estimate_adg(&adg);
    println!(
        "hardware cost   : {:.3} mm^2, {:.0} mW (estimated)",
        cost.area_mm2, cost.power_mw
    );
    Ok(())
}
