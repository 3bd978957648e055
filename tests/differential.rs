//! Differential test harness: every workload kernel that compiles and
//! schedules on a preset ADG is executed through the *co-simulator*
//! ([`dsagen::sim::simulate_functional`]) and its functional outputs are
//! compared with a second run of the dataflow reference interpreter
//! ([`dsagen::dfg::interp::execute`]) over the same seeded inputs.
//!
//! The cycle-level engine is value-free, so the differential contract has
//! two halves that must hold together:
//!
//! * **delivery** — the timing engine accepts the schedule and fires every
//!   region exactly its compiled instance count (a stalled or under-fired
//!   region is how real hardware silently drops work);
//! * **values** — the outputs the verified execution reports are
//!   bit-identical to the reference interpreter's. `simulate_functional`
//!   computes those outputs with `interp::execute` itself, so this half
//!   compares `execute` with `execute`: it shows the co-simulator returns
//!   the interpreter's arrays untouched and the interpreter is
//!   deterministic, not that the values are right. The independent value
//!   oracle is `tests/functional.rs`, which checks the interpreter against
//!   hand-written references.
//!
//! Kernels that legitimately fail to map on the target (e.g. no FP units)
//! are recorded as `unmapped`. On softbrain every kernel must verify except
//! those named in `NOT_VERIFIED`, each with its reason. On any failure a
//! per-kernel pass table is printed.

use std::collections::BTreeMap;

use dsagen::adg::Adg;
use dsagen::dfg::interp::execute;
use dsagen::prelude::*;
use dsagen::sim::{simulate_functional, SimConfig};
use dsagen::workloads::{all, Workload};

#[path = "seeded_inputs.rs"]
mod seeded_inputs;
use seeded_inputs::seeded_inputs;

fn opts() -> CompileOptions {
    CompileOptions {
        // Modest enumeration keeps the whole-suite sweep fast; the
        // unroll-heavy versions are covered by the end-to-end tests.
        max_unroll: 2,
        scheduler: SchedulerConfig {
            max_iters: 200,
            ..SchedulerConfig::default()
        },
        ..CompileOptions::default()
    }
}

/// The Table-I kernels that do not verify on softbrain, each with its
/// reason. Every other kernel must verify, and each kernel listed here must
/// still fail to, so a fix shows up here and its entry is deleted.
const NOT_VERIFIED: [(&str, &str); 1] = [(
    "stencil-3d",
    "stores to dst[16384] of 16384 elements whatever the data, so the \
     reference interpreter traps; nothing checks static bounds at build time",
)];

/// Outcome of one (kernel, accelerator) differential run.
#[derive(Debug, Clone, PartialEq)]
enum Status {
    /// Delivery held and outputs matched the reference bit-for-bit.
    Verified { cycles: u64 },
    /// No legal mapping on this accelerator — legitimate, recorded.
    Unmapped(String),
    /// The reference interpreter itself rejected the kernel/input pair;
    /// there is nothing to differentiate against.
    RefError(String),
    /// Divergence: delivery broke or outputs mismatched. Always fatal.
    Failed(String),
}

impl Status {
    fn label(&self) -> String {
        match self {
            Status::Verified { cycles } => format!("verified ({cycles} cycles)"),
            Status::Unmapped(e) => format!("unmapped: {e}"),
            Status::RefError(e) => format!("ref-error: {e}"),
            Status::Failed(e) => format!("FAILED: {e}"),
        }
    }
}

fn first_mismatch(
    got: &BTreeMap<String, Vec<f64>>,
    want: &BTreeMap<String, Vec<f64>>,
) -> Option<String> {
    if got.keys().ne(want.keys()) {
        return Some(format!(
            "output arrays differ: sim {:?} vs ref {:?}",
            got.keys().collect::<Vec<_>>(),
            want.keys().collect::<Vec<_>>()
        ));
    }
    for (name, g) in got {
        let w = &want[name];
        if g.len() != w.len() {
            return Some(format!("{name}: length {} vs {}", g.len(), w.len()));
        }
        for (i, (a, b)) in g.iter().zip(w).enumerate() {
            if a.to_bits() != b.to_bits() {
                return Some(format!("{name}[{i}]: sim {a} vs ref {b}"));
            }
        }
    }
    None
}

/// One differential run: compile onto `adg`, co-simulate with seeded
/// inputs, compare against the independent reference execution.
fn run_one(adg: &Adg, w: &Workload) -> Status {
    let inputs = seeded_inputs(&w.kernel.name, 0);
    let reference = match execute(&w.kernel, &inputs) {
        Ok(r) => r,
        Err(e) => return Status::RefError(e.to_string()),
    };
    let compiled = match dsagen::compile(adg, &w.kernel, &opts()) {
        Ok(c) => c,
        Err(e) => return Status::Unmapped(e.to_string()),
    };
    let report = match simulate_functional(
        adg,
        &w.kernel,
        &compiled.version,
        &compiled.schedule,
        &compiled.eval,
        compiled.config_path_len,
        &SimConfig::default(),
        &inputs,
    ) {
        Ok(r) => r,
        Err(e) => return Status::Failed(e.to_string()),
    };
    match first_mismatch(&report.outputs, &reference) {
        Some(m) => Status::Failed(m),
        None => Status::Verified {
            cycles: report.timing.cycles,
        },
    }
}

/// Renders the per-kernel pass table and logs it at `info` level
/// (visible with `DSAGEN_LOG=info`); failures are still reported through
/// panics, so the table is informational only.
fn print_table(rows: &[(String, &'static str, Status)]) {
    use std::fmt::Write as _;
    let mut table = String::new();
    let _ = write!(
        table,
        "\n{:-<76}\n{:<16} {:<12} result\n{:-<76}",
        "", "kernel", "adg", ""
    );
    for (name, adg, status) in rows {
        let _ = write!(table, "\n{name:<16} {adg:<12} {}", status.label());
    }
    let _ = write!(table, "\n{:-<76}", "");
    dsagen::telemetry::log(dsagen::telemetry::Level::Info, table);
}

#[test]
fn every_workload_matches_the_reference_interpreter() {
    let adg = dsagen::adg::presets::softbrain();
    let mut rows = Vec::new();
    for w in all() {
        let status = run_one(&adg, &w);
        rows.push((w.kernel.name.clone(), "softbrain", status));
    }

    let mut wrong = Vec::new();
    for (kernel, _) in NOT_VERIFIED {
        if !rows.iter().any(|(name, _, _)| name == kernel) {
            wrong.push(format!("{kernel}: on NOT_VERIFIED but not a workload"));
        }
    }
    for (name, _, status) in &rows {
        let listed = NOT_VERIFIED.iter().any(|(kernel, _)| kernel == name);
        match status {
            Status::Verified { .. } if listed => {
                wrong.push(format!(
                    "{name}: verifies now; delete its NOT_VERIFIED entry"
                ));
            }
            Status::Verified { .. } => {}
            Status::Failed(_) => wrong.push(format!("{name}: {}", status.label())),
            _ if !listed => wrong.push(format!(
                "{name}: {}, and not on NOT_VERIFIED",
                status.label()
            )),
            _ => {}
        }
    }
    if !wrong.is_empty() {
        print_table(&rows);
        panic!("differential harness:\n{}", wrong.join("\n"));
    }
}

#[test]
fn delivery_contract_holds_across_accelerators() {
    // A representative slice per idiom family, re-verified on topologies
    // with different capabilities: outputs are hardware-independent, so
    // every accelerator the kernel maps onto must reproduce the identical
    // reference values while honoring the delivery contract on its own
    // (different) schedule.
    let wanted = ["mm", "centro-fir", "histogram", "join", "poly-atax"];
    let accelerators = [dsagen::adg::presets::spu(), dsagen::adg::presets::revel()];
    let mut rows = Vec::new();
    for w in all() {
        if !wanted.contains(&w.kernel.name.as_str()) {
            continue;
        }
        for adg in &accelerators {
            let status = run_one(adg, &w);
            rows.push((
                w.kernel.name.clone(),
                match adg.name() {
                    "spu" => "spu",
                    _ => "revel",
                },
                status,
            ));
        }
    }
    let bad: Vec<_> = rows
        .iter()
        .filter(|(_, _, s)| matches!(s, Status::Failed(_)))
        .collect();
    let verified = rows
        .iter()
        .filter(|(_, _, s)| matches!(s, Status::Verified { .. }))
        .count();
    if !bad.is_empty() || verified < 6 {
        print_table(&rows);
        panic!(
            "cross-accelerator differential: {verified}/{} verified, {} diverged",
            rows.len(),
            bad.len()
        );
    }
}
