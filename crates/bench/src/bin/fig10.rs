//! Figure 10 — Compiler versus Manually-Tuned Performance.
//!
//! For each of the five target accelerators (§VII) and its workload set,
//! compile with the modular compiler, then simulate both the compiled
//! version and a manually-tuned variant (peephole control elision + stream
//! fusion + fft-style request peeling). The paper reports the compiler at
//! 80–89% of manual overall, with fft the 2× outlier on REVEL and
//! Triggered Instructions.
//!
//! Run with: `cargo run --release -p dsagen-bench --bin fig10`

use dsagen_bench::{fig10_pairs, geomean, rule, run_manual, run_workload};

fn main() {
    println!("FIGURE 10: Compiler vs Manual-Tuned Performance (cycles; ratio = manual/compiled)");
    rule(84);
    println!(
        "{:<15} {:<13} {:>11} {:>11} {:>8}  note",
        "Accelerator", "Workload", "Compiled", "Manual", "Ratio"
    );
    rule(84);

    let mut ratios = Vec::new();
    let mut fft_ratios = Vec::new();
    for (name, adg, workloads) in fig10_pairs() {
        for w in &workloads {
            let (compiled, report) = run_workload(&adg, &w.kernel);
            let manual = run_manual(&adg, &compiled);
            let ratio = manual.cycles as f64 / report.cycles.max(1) as f64;
            let note = if w.name == "fft" {
                "outlier (§VIII-A)"
            } else {
                ""
            };
            println!(
                "{:<15} {:<13} {:>11} {:>11} {:>8.2}  {}",
                name, w.name, report.cycles, manual.cycles, ratio, note
            );
            if w.name == "fft" {
                fft_ratios.push(ratio);
            } else {
                ratios.push(ratio);
            }
        }
    }
    rule(84);
    // ratio = manual_cycles / compiled_cycles = compiler's relative
    // performance (1.0 = parity, <1.0 = compiler slower).
    let gm = geomean(&ratios);
    println!(
        "geomean: compiler achieves {:.0}% of manually-tuned performance (excl. fft)",
        100.0 * gm
    );
    if let Some(fft) = fft_ratios.first() {
        println!(
            "fft on REVEL: compiler at {:.0}% of manual (paper: ~50%, from small-stride scratchpad requests)",
            100.0 * fft
        );
    }
    println!("paper: compiler achieves 89% of manual overall; mean 1.25x manual execution time");
}
