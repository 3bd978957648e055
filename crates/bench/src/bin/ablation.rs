//! Ablations of design choices and of the §III-C "potential features"
//! implemented as extensions:
//!
//!  (1) sliding-window vector-port grouping (compiler design choice —
//!      without it, stencil/filter kernels burn one port per tap);
//!  (2) memory coalescing for strided access (extension; the paper lists
//!      it as a potential feature and notes irregular access is otherwise
//!      served by banking);
//!  (3) FSM control sequencer versus the programmable core (extension;
//!      cheap control for kernels that need no scalar fallback).
//!
//! Run with: `cargo run --release -p dsagen-bench --bin ablation`

use dsagen::CompileOptions;
use dsagen_adg::{presets, NodeKind};
use dsagen_bench::{harness_opts, rule, run_workload};
use dsagen_dfg::{compile_kernel, enumerate_configs};
use dsagen_model::AreaPowerModel;
use dsagen_scheduler::{schedule, Start};
use dsagen_sim::{simulate, SimConfig};
use dsagen_telemetry::Telemetry;

/// Compile + simulate with window-port grouping forced off.
fn run_without_windows(adg: &dsagen_adg::Adg, kernel: &dsagen_dfg::Kernel) -> Option<u64> {
    let features = adg.features();
    let opts: CompileOptions = harness_opts();
    let mut best: Option<u64> = None;
    for mut cfg in enumerate_configs(kernel, &features, opts.max_unroll) {
        cfg.window_ports = false;
        let Ok(version) = compile_kernel(kernel, &cfg, &features) else {
            continue;
        };
        if !version.requires.satisfied_by(&features) {
            continue;
        }
        let result = schedule(
            adg,
            &version,
            &Start::Empty,
            &opts.scheduler,
            &Telemetry::disabled(),
        )
        .expect("an empty start pins nothing");
        if !result.is_legal() {
            continue;
        }
        let Ok(report) = simulate(
            adg,
            &version,
            &result.schedule,
            &result.eval,
            0,
            &SimConfig::default(),
        ) else {
            continue;
        };
        if best.is_none_or(|b| report.cycles < b) {
            best = Some(report.cycles);
        }
    }
    best
}

fn main() {
    let model = AreaPowerModel::default();

    // ------------------------------------------------------------- (1)
    println!("ABLATION 1: sliding-window vector ports (tap grouping)");
    rule(72);
    println!(
        "{:<14} {:<11} {:>12} {:>12}",
        "workload", "hardware", "grouped", "ungrouped"
    );
    rule(72);
    let adg = presets::softbrain();
    for kernel in [
        dsagen::workloads::machsuite::stencil2d(),
        dsagen::workloads::machsuite::stencil3d(),
        dsagen::workloads::dsp::centro_fir(),
    ] {
        let (_, with) = run_workload(&adg, &kernel);
        let without = run_without_windows(&adg, &kernel);
        println!(
            "{:<14} {:<11} {:>12} {:>12}",
            kernel.name,
            adg.name(),
            with.cycles,
            without.map_or("unmappable".into(), |c| c.to_string())
        );
    }
    rule(72);
    println!("without grouping, every tap needs its own vector port; stencils either");
    println!("fail to map (port overuse) or lose throughput to port contention.\n");

    // ------------------------------------------------------------- (2)
    println!("ABLATION 2: memory coalescing for strided access (§III-C extension)");
    rule(72);
    println!(
        "{:<14} {:>12} {:>12} {:>9} {:>11}",
        "workload", "banked-only", "coalescing", "speedup", "area-delta"
    );
    rule(72);
    let base = presets::revel();
    let mut coal = presets::revel();
    let spads: Vec<_> = coal
        .memories()
        .filter(|m| {
            matches!(coal.kind(*m), Ok(NodeKind::Memory(s)) if s.kind == dsagen_adg::MemKind::Scratchpad)
        })
        .collect();
    for id in spads {
        if let Some(node) = coal.node_mut(id) {
            if let NodeKind::Memory(m) = &mut node.kind {
                m.controllers.coalescing = true;
            }
        }
    }
    coal.set_name("revel+coalescing");
    let area_delta = model.estimate_adg(&coal).area_mm2 - model.estimate_adg(&base).area_mm2;
    for kernel in [dsagen::workloads::dsp::fft(), dsagen::workloads::dsp::qr()] {
        let (_, plain) = run_workload(&base, &kernel);
        let (_, merged) = run_workload(&coal, &kernel);
        println!(
            "{:<14} {:>12} {:>12} {:>8.2}x {:>9.4}mm2",
            kernel.name,
            plain.cycles,
            merged.cycles,
            plain.cycles as f64 / merged.cycles.max(1) as f64,
            area_delta
        );
    }
    rule(72);
    println!("coalescing rescues the fft small-stride pathology (§VIII-A) at a small");
    println!("controller-area cost — confirming why the paper lists it as future work.\n");

    // ------------------------------------------------------------- (3)
    println!("ABLATION 3: FSM sequencer vs programmable control core (§III-C extension)");
    rule(72);
    let core = presets::softbrain();
    let mut fsm = presets::softbrain();
    let ctrl = fsm.control().expect("softbrain has a control core");
    if let Some(node) = fsm.node_mut(ctrl) {
        node.kind = NodeKind::Control(dsagen_adg::CtrlSpec::fsm());
    }
    fsm.set_name("softbrain+fsm");
    let c_core = model.estimate_adg(&core);
    let c_fsm = model.estimate_adg(&fsm);
    println!(
        "control core : {:.3} mm^2 / {:.0} mW total",
        c_core.area_mm2, c_core.power_mw
    );
    println!(
        "fsm sequencer: {:.3} mm^2 / {:.0} mW total ({:.0}% area saved)",
        c_fsm.area_mm2,
        c_fsm.power_mw,
        100.0 * (1.0 - c_fsm.area_mm2 / c_core.area_mm2)
    );
    // Which workloads still map? (Those without scalar fallback work.)
    let opts = harness_opts();
    let mut kept = Vec::new();
    let mut lost = Vec::new();
    for w in dsagen::workloads::suite(dsagen::workloads::Suite::PolyBench)
        .into_iter()
        .chain(dsagen::workloads::suite(
            dsagen::workloads::Suite::MachSuite,
        ))
    {
        match dsagen::compile(&fsm, &w.kernel, &opts) {
            Ok(_) => kept.push(w.name),
            Err(_) => lost.push(w.name),
        }
    }
    println!("still map under FSM control : {kept:?}");
    println!("need the programmable core  : {lost:?}");
    println!("(kernels whose best version uses scalar fallback code cannot run on an FSM)");
}
