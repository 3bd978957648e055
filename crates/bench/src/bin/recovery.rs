//! recovery — runtime fault-recovery macrobenchmark (MTTR + overhead).
//!
//! For each (preset, workload) pair the kernel is compiled once and a
//! fault-free simulation establishes the baseline cycle count. Two
//! mid-execution fault scenarios then run through the full recovery
//! pipeline (`detect → checkpoint rollback → online repair → verified
//! reprogramming → resume`):
//!
//! * **transient** — a `DeadPe` that arrives one third into the run and
//!   clears after 4096 cycles. Must recover by rollback alone (same
//!   configuration, no repair) with firings identical to the fault-free
//!   run.
//! * **permanent** — the same arrival, but the PE never comes back. Must
//!   recover up the degradation ladder (port rungs → decommission →
//!   degraded-mode reschedule), or fail with a typed
//!   [`dsagen::RecoveryError`] (counted, never a panic).
//!
//! Reported per pair: detection latency in cycles, mean time to repair
//! (MTTR) in cycles, and end-to-end overhead versus the fault-free run;
//! degraded-mode finishes also report the surviving throughput fraction.
//! A machine-readable copy of the table is written as JSON (first CLI
//! argument, default `BENCH_recovery.json`) for the CI artifact upload.
//!
//! Run with: `cargo run --release -p dsagen-bench --bin recovery`

use std::fmt::Write as _;

use dsagen::{compile, recover, CompileOptions};
use dsagen_adg::{presets, Adg};
use dsagen_bench::envelope::Envelope;
use dsagen_bench::rule;
use dsagen_faults::{FaultKind, FaultLifetime, FaultSchedule};
use dsagen_sim::{simulate, RecoveryAction, RecoveryPolicy, SimConfig};
use dsagen_telemetry::{log, Level, MetricsRegistry};
use dsagen_workloads::{machsuite, polybench};

/// Fixed seed: every run measures the identical schedules and faults.
const SEED: u64 = 0x5EC0_7E3A;
/// Transient outage length — comfortably above the watchdog bound (64)
/// so detection is guaranteed, short enough that the fault clears before
/// the run ends on every workload below.
const TRANSIENT_CYCLES: u64 = 4096;

struct Row {
    preset: &'static str,
    kernel: String,
    fault_free_cycles: u64,
    /// Transient scenario.
    t_detect: u64,
    t_mttr: f64,
    t_overhead: f64,
    /// Permanent scenario: Some = recovered, None = typed failure.
    p_outcome: Option<PermanentOutcome>,
}

struct PermanentOutcome {
    detect: u64,
    mttr: f64,
    overhead: f64,
    repaired: bool,
    degraded: bool,
    throughput_ratio: f64,
    /// Resolving-rung label of the recovery event (`RecoveryAction::label`).
    rung: String,
    /// Cycles domain-sliced rollback preserved instead of replaying.
    saved: u64,
}

fn fixtures() -> Vec<(&'static str, Adg)> {
    vec![
        ("softbrain", presets::softbrain()),
        ("spu", presets::spu()),
        ("revel", presets::revel()),
    ]
}

fn workloads() -> Vec<dsagen_dfg::Kernel> {
    vec![
        polybench::mvt(),
        polybench::atax(),
        polybench::bicg(),
        machsuite::mm(),
        machsuite::spmv_crs(),
    ]
}

/// A mid-run schedule with one fault of the given lifetime.
fn one_fault(arrival: u64, lifetime: FaultLifetime) -> FaultSchedule {
    FaultSchedule::new(SEED).with(arrival, lifetime, FaultKind::DeadPe)
}

fn bench_one(
    preset: &'static str,
    adg: &Adg,
    kernel: &dsagen_dfg::Kernel,
    metrics: &MetricsRegistry,
) -> Option<Row> {
    let opts = CompileOptions::default();
    let compiled = match compile(adg, kernel, &opts) {
        Ok(c) => c,
        Err(_) => return None, // kernel does not map onto this preset
    };
    let cfg = SimConfig::default();
    let plain = simulate(
        adg,
        &compiled.version,
        &compiled.schedule,
        &compiled.eval,
        compiled.config_path_len,
        &cfg,
    )
    .expect("fault-free baseline must simulate");

    let arrival = (plain.cycles / 3).max(1);
    let policy = RecoveryPolicy::default();
    let tel = dsagen_telemetry::Telemetry::disabled().with_metrics(metrics.clone());

    // Transient DeadPe: rollback-only recovery, bit-identical firings.
    let transient = one_fault(arrival, FaultLifetime::Transient { duration: TRANSIENT_CYCLES });
    let rep = recover(adg, &compiled, &cfg, &transient, &policy, &tel)
        .expect("transient mid-run fault must recover");
    assert_eq!(
        rep.report.firings, plain.firings,
        "{preset}/{}: recovered firings must equal fault-free",
        kernel.name
    );
    assert!(
        rep.events
            .iter()
            .all(|e| e.detection_latency <= policy.rt.watchdog_bound),
        "{preset}/{}: blocking fault must be detected within the watchdog bound",
        kernel.name
    );
    let t_detect = rep.events.iter().map(|e| e.detection_latency).max().unwrap_or(0);
    let t_mttr = rep.mttr_cycles();
    let t_overhead = rep.overhead_vs(plain.cycles);

    // Permanent DeadPe: decommission + repair + reprogram, or typed error.
    let permanent = one_fault(arrival, FaultLifetime::Permanent);
    let p_outcome = match recover(adg, &compiled, &cfg, &permanent, &policy, &tel) {
        Ok(rep) => {
            let repaired = rep
                .events
                .iter()
                .any(|e| matches!(e.action, RecoveryAction::Repaired { .. }));
            Some(PermanentOutcome {
                detect: rep.events.iter().map(|e| e.detection_latency).max().unwrap_or(0),
                mttr: rep.mttr_cycles(),
                overhead: rep.overhead_vs(plain.cycles),
                repaired,
                degraded: rep.degraded,
                throughput_ratio: rep.throughput_ratio.unwrap_or(1.0),
                rung: rep
                    .events
                    .first()
                    .map_or_else(|| "none".to_string(), |e| e.action.label().to_string()),
                saved: rep.replayed_cycles_saved(),
            })
        }
        Err(_typed) => None, // typed failure is an accepted outcome
    };

    Some(Row {
        preset,
        kernel: kernel.name.clone(),
        fault_free_cycles: plain.cycles,
        t_detect,
        t_mttr,
        t_overhead,
        p_outcome,
    })
}

/// Minimal JSON emission (the vendored serde is a stub — format by hand).
fn to_json(rows: &[Row]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"seed\": {SEED},\n  \"transient_cycles\": {TRANSIENT_CYCLES},\n  \"rows\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        let perm = match &r.p_outcome {
            Some(p) => format!(
                "{{\"recovered\": true, \"repaired\": {}, \"degraded\": {}, \
\"throughput_ratio\": {:.4}, \"detect_cycles\": {}, \
\"mttr_cycles\": {:.1}, \"overhead\": {:.4}, \"rung\": {:?}, \
\"replayed_saved_cycles\": {}}}",
                p.repaired, p.degraded, p.throughput_ratio, p.detect, p.mttr, p.overhead,
                p.rung, p.saved
            ),
            None => "{\"recovered\": false}".to_string(),
        };
        let _ = writeln!(
            s,
            "    {{\"preset\": {:?}, \"kernel\": {:?}, \"fault_free_cycles\": {}, \
\"transient\": {{\"detect_cycles\": {}, \"mttr_cycles\": {:.1}, \"overhead\": {:.4}}}, \
\"permanent\": {}}}{}",
            r.preset,
            r.kernel,
            r.fault_free_cycles,
            r.t_detect,
            r.t_mttr,
            r.t_overhead,
            perm,
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_recovery.json".to_string());

    println!("RUNTIME RECOVERY: MTTR and overhead vs fault-free (DeadPe at 1/3 of the run)");
    println!(
        "seed {SEED:#x}, transient outage {TRANSIENT_CYCLES} cycles, permanent = decommission + repair"
    );
    rule(103);
    println!(
        "{:>10} {:>12} {:>10} {:>8} {:>9} {:>9} | {:>17} {:>9} {:>9}",
        "preset", "kernel", "cycles", "t-det", "t-mttr", "t-ovhd", "perm", "p-mttr", "p-ovhd"
    );
    rule(103);

    let mut rows = Vec::new();
    let mut skipped = 0usize;
    // Metrics on, sink off: the sweep's recovery counters ride into the
    // artifact envelope.
    let metrics = MetricsRegistry::enabled();
    for (preset, adg) in fixtures() {
        for kernel in &workloads() {
            match bench_one(preset, &adg, kernel, &metrics) {
                Some(r) => {
                    let (perm, p_mttr, p_ovhd) = match &r.p_outcome {
                        Some(p) => (
                            p.rung.clone(),
                            format!("{:.0}", p.mttr),
                            format!("{:+.1}%", 100.0 * p.overhead),
                        ),
                        None => ("typed-err".to_string(), "-".to_string(), "-".to_string()),
                    };
                    println!(
                        "{:>10} {:>12} {:>10} {:>8} {:>9.0} {:>8.1}% | {:>17} {:>9} {:>9}",
                        r.preset,
                        r.kernel,
                        r.fault_free_cycles,
                        r.t_detect,
                        r.t_mttr,
                        100.0 * r.t_overhead,
                        perm,
                        p_mttr,
                        p_ovhd,
                    );
                    rows.push(r);
                }
                None => skipped += 1,
            }
        }
    }
    rule(103);

    // Sanity contract: every transient fault was detected within the
    // watchdog bound and recovered; permanent faults either repaired or
    // failed typed — the loop above panics otherwise.
    let recovered_perm = rows.iter().filter(|r| r.p_outcome.is_some()).count();
    let max_detect = rows.iter().map(|r| r.t_detect).max().unwrap_or(0);
    let mean_mttr = if rows.is_empty() {
        0.0
    } else {
        rows.iter().map(|r| r.t_mttr).sum::<f64>() / rows.len() as f64
    };
    println!(
        "{} pairs ({} skipped: kernel unmappable) | transient: all recovered, max detect {} cycles, \
mean MTTR {:.0} cycles | permanent: {}/{} recovered, rest failed typed",
        rows.len(),
        skipped,
        max_detect,
        mean_mttr,
        recovered_perm,
        rows.len(),
    );
    assert!(
        rows.len() >= 5,
        "expected at least 5 preset x workload pairs to map, got {}",
        rows.len()
    );

    let json = to_json(&rows);
    let artifact = Envelope::new("recovery")
        .meta_int("seed", SEED)
        .meta_int("transient_cycles", TRANSIENT_CYCLES)
        .meta_int("pairs", rows.len() as u64)
        .metrics(metrics.snapshot())
        .wrap(&json);
    match std::fs::write(&out_path, &artifact) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => log(Level::Error, format!("could not write {out_path}: {e}")),
    }
}
