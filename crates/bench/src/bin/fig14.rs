//! Figure 14 — Automated Design Space Exploration.
//!
//! Three DSE runs from the same initial hardware (the 5×4 full-capability
//! mesh): MachSuite, DenseNN, and SparseCNN. Reports the evolution of
//! area (left bar in the paper), power (right bar), and objective (color
//! intensity) per iteration, and the headline numbers: mean 42% area
//! saved and mean 12× objective improvement over the initial hardware.
//! The objective gain is a geomean over the runs whose initial design maps
//! every kernel within budget. The explorer scores any other design at
//! (near) 0 — an unmapped kernel sets its perf to 1e-6 — so such a run's
//! gain is meaningless; it is listed as excluded, with the reason.
//!
//! Run with: `cargo run --release -p dsagen-bench --bin fig14`

use dsagen_adg::presets;
use dsagen_bench::{geomean, rule};
use dsagen_dse::{explore, DseConfig, DseResult};
use dsagen_workloads::{suite_kernels, Suite};

/// Whether the run's initial design has a meaningful objective: every
/// kernel maps on it and it is within budget.
fn initial_scores(result: &DseResult) -> bool {
    result.initial.objective > 0.0 && result.initial.per_kernel.iter().all(Option::is_some)
}

fn run(name: &str, kernels: &[dsagen_dfg::Kernel], seed: u64) -> DseResult {
    let cfg = DseConfig {
        seed,
        max_iters: 120,
        patience: 50,
        sched_iters: 200,
        max_unroll: 4,
        ..DseConfig::default()
    };
    println!("\n== DSE run: {name} ({} kernels) ==", kernels.len());
    let result = explore(presets::dse_initial(), kernels, cfg);
    println!(
        "{:>5} {:>11} {:>11} {:>12} {:>9}",
        "iter", "area(mm^2)", "power(mW)", "objective", "accepted"
    );
    rule(56);
    for rec in result.trace.iter().step_by(10) {
        println!(
            "{:>5} {:>11.3} {:>11.1} {:>12.3} {:>9}",
            rec.iter, rec.area_mm2, rec.power_mw, rec.objective, rec.accepted
        );
    }
    let last = result.trace.last().expect("nonempty trace");
    println!(
        "{:>5} {:>11.3} {:>11.1} {:>12.3} {:>9}",
        last.iter, last.area_mm2, last.power_mw, last.objective, last.accepted
    );
    let unmapped: Vec<&str> = kernels
        .iter()
        .zip(&result.initial.per_kernel)
        .filter(|(_, best)| best.is_none())
        .map(|(k, _)| k.name.as_str())
        .collect();
    let gain = if initial_scores(&result) {
        format!("{:.1}x", result.objective_gain())
    } else if unmapped.is_empty() {
        "no gain: the initial design is over budget".to_string()
    } else {
        format!(
            "no gain: {} does not map on the initial design",
            unmapped.join(", ")
        )
    };
    println!(
        "area: {:.3} -> {:.3} mm^2 ({:+.0}%), power: {:.0} -> {:.0} mW, objective: {:.3} -> {:.3} ({gain})",
        result.initial.cost.area_mm2,
        result.best.cost.area_mm2,
        -100.0 * result.area_saving(),
        result.initial.cost.power_mw,
        result.best.cost.power_mw,
        result.initial.objective,
        result.best.objective,
    );
    result
}

fn main() {
    println!("FIGURE 14: Automated Design Space Exploration (3 runs from the 5x4 full mesh)");

    let machsuite: Vec<_> = suite_kernels(Suite::MachSuite)
        .into_iter()
        .filter(|k| ["md", "spmv-crs", "stencil-2d", "mm"].contains(&k.name.as_str()))
        .collect();
    let dense = suite_kernels(Suite::DenseNN);
    let sparse = suite_kernels(Suite::SparseCNN);

    let runs = [
        ("MachSuite", run("MachSuite", &machsuite, 0xD5E1)),
        ("DenseNN", run("DenseNN", &dense, 0xD5E2)),
        ("SparseCNN", run("SparseCNN", &sparse, 0xD5E3)),
    ];

    rule(72);
    let mean_saving = runs.iter().map(|(_, r)| r.area_saving()).sum::<f64>() / runs.len() as f64;
    println!(
        "mean area saving: {:.0}%   (paper: mean 42%)",
        100.0 * mean_saving
    );
    let (scored, unscored): (Vec<_>, Vec<_>) = runs.iter().partition(|(_, r)| initial_scores(r));
    let gains: Vec<f64> = scored.iter().map(|(_, r)| r.objective_gain()).collect();
    println!(
        "geomean objective gain: {:.1}x over {} of {} runs (paper: mean 12x)",
        geomean(&gains),
        gains.len(),
        runs.len()
    );
    if !unscored.is_empty() {
        let names: Vec<&str> = unscored.iter().map(|(name, _)| *name).collect();
        println!(
            "excluded {} run(s) whose initial design leaves a kernel unmapped or is over budget, so it scores ~0 and the gain is meaningless: {}",
            unscored.len(),
            names.join(", ")
        );
    }
}
