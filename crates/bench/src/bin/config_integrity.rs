//! config_integrity — configuration-plane integrity microbenchmark.
//!
//! Measures the two costs the configuration-integrity subsystem adds to
//! the accelerator programming path:
//!
//! 1. **Decode + verify throughput** — words/sec through the full
//!    `verify_round_trip` gate (encode → serialize → decode → compare →
//!    resolve opcodes), the check the simulator and DSE now run before any
//!    schedule is trusted.
//! 2. **CRC framing latency vs raw delivery** — ns/word to pack every
//!    config word into a CRC32-guarded transport frame and validate it
//!    back, against a raw unprotected copy of the same words.
//!
//! Plus one end-to-end recovery probe: a `ProgrammingSession` delivering
//! each bitstream over a channel that flips one bit on the first round,
//! reporting the retry cost of healing the fault.
//!
//! A machine-readable copy of the table is written as JSON (first CLI
//! argument, default `BENCH_config_integrity.json`) for the CI artifact
//! upload and the `bench_compare` recovery-behavior gate.
//!
//! Run with: `cargo run --release -p dsagen-bench --bin config_integrity`

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use dsagen_adg::{presets, Adg};
use dsagen_bench::envelope::Envelope;
use dsagen_bench::rule;
use dsagen_dfg::{compile_kernel, Kernel, TransformConfig};
use dsagen_faults::{corrupt_frames, FaultKind, FaultPlan};
use dsagen_hwgen::{
    deframe_words, frame_words, verify_round_trip, Bitstream, ProgrammingSession, SessionConfig,
};
use dsagen_scheduler::{schedule, Problem, SchedulerConfig, Start};
use dsagen_telemetry::{log, Level, Telemetry};
use dsagen_workloads::{machsuite, polybench};

/// Fixed scheduler seed: every run measures the identical bitstreams.
const SEED: u64 = 0xC0DE;
/// Scheduling iterations when building each configuration.
const SCHED_ITERS: u32 = 60;
/// Timed repetitions of the verify gate per configuration.
const VERIFY_REPS: u32 = 400;
/// Timed repetitions of the framing round-trip per configuration.
const FRAME_REPS: u32 = 2_000;

struct Row {
    preset: &'static str,
    kernel: String,
    words: usize,
    verify_words_per_sec: f64,
    frame_ns_per_word: f64,
    raw_ns_per_word: f64,
    recovery_attempts: u32,
    recovery_crc_failures: u64,
}

impl Row {
    fn framing_overhead(&self) -> f64 {
        self.frame_ns_per_word / self.raw_ns_per_word.max(1e-9)
    }
}

fn fixtures() -> Vec<(&'static str, Adg, Vec<Kernel>)> {
    vec![
        (
            "softbrain",
            presets::softbrain(),
            vec![polybench::mvt(), machsuite::mm()],
        ),
        ("revel", presets::revel(), vec![polybench::mvt()]),
    ]
}

fn bench_one(preset: &'static str, adg: &Adg, kernel: &Kernel) -> Row {
    let ck = compile_kernel(kernel, &TransformConfig::fallback(), &adg.features())
        .expect("benchmark kernel must compile");
    let cfg = SchedulerConfig {
        max_iters: SCHED_ITERS,
        seed: SEED,
        ..SchedulerConfig::default()
    };
    let s = schedule(adg, &ck, &Start::Empty, &cfg, &Telemetry::disabled())
        .expect("an empty start pins nothing");
    let problem = Problem::new(adg, &ck);
    let bs = Bitstream::encode(&problem, &s.schedule);
    let words = bs.to_words();
    assert!(!words.is_empty(), "configuration must be non-empty");

    // 1. Decode + verify throughput through the full round-trip gate.
    let started = Instant::now();
    for _ in 0..VERIFY_REPS {
        let token = verify_round_trip(black_box(&problem), black_box(&s.schedule))
            .expect("healthy configuration must verify");
        black_box(token.word_count());
    }
    let verify_secs = started.elapsed().as_secs_f64();
    let verify_words_per_sec =
        (words.len() as u64 * u64::from(VERIFY_REPS)) as f64 / verify_secs.max(1e-9);

    // 2a. CRC framing round-trip: pack + validate + reassemble.
    let started = Instant::now();
    for _ in 0..FRAME_REPS {
        let framed = frame_words(black_box(&words));
        let back =
            deframe_words(black_box(&framed), words.len()).expect("clean frames must deframe");
        black_box(back.len());
    }
    let frame_secs = started.elapsed().as_secs_f64();
    let frame_ns_per_word = frame_secs * 1e9 / (words.len() as u64 * u64::from(FRAME_REPS)) as f64;

    // 2b. Raw, unprotected delivery of the same words (copy + read back).
    let started = Instant::now();
    for _ in 0..FRAME_REPS {
        let raw = black_box(&words).to_vec();
        black_box(raw.iter().fold(0u64, |a, &w| a.wrapping_add(w)));
    }
    let raw_secs = started.elapsed().as_secs_f64();
    let raw_ns_per_word = raw_secs * 1e9 / (words.len() as u64 * u64::from(FRAME_REPS)) as f64;

    // 3. Recovery probe: one transient bit flip, healed by retransmission.
    let plan = FaultPlan::new(SEED).with(FaultKind::BitFlip);
    let mut session = ProgrammingSession::new(&bs, SessionConfig::default());
    let report = session.program(|round, framed| {
        if round == 0 {
            corrupt_frames(framed, &plan).0
        } else {
            framed.to_vec()
        }
    });
    assert!(
        report.is_verified(),
        "transient flip must recover: {report}"
    );

    Row {
        preset,
        kernel: kernel.name.clone(),
        words: words.len(),
        verify_words_per_sec,
        frame_ns_per_word,
        raw_ns_per_word,
        recovery_attempts: report.attempts,
        recovery_crc_failures: report.crc_failures,
    }
}

/// Minimal JSON emission (the vendored serde is a stub — format by hand).
fn to_json(rows: &[Row]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"seed\": {SEED},\n  \"verify_reps\": {VERIFY_REPS},\n  \"frame_reps\": {FRAME_REPS},\n  \"rows\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"preset\": {:?}, \"kernel\": {:?}, \"words\": {}, \
\"verify_words_per_sec\": {:.1}, \"frame_ns_per_word\": {:.2}, \"raw_ns_per_word\": {:.2}, \
\"framing_overhead_x\": {:.2}, \"recovery_attempts\": {}, \"recovery_crc_failures\": {}}}{}",
            r.preset,
            r.kernel,
            r.words,
            r.verify_words_per_sec,
            r.frame_ns_per_word,
            r.raw_ns_per_word,
            r.framing_overhead(),
            r.recovery_attempts,
            r.recovery_crc_failures,
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_config_integrity.json".to_string());

    println!("CONFIG INTEGRITY: round-trip verification and CRC framing cost");
    println!(
        "seed {SEED:#x}, {VERIFY_REPS} verify reps, {FRAME_REPS} framing reps per configuration"
    );
    rule(92);
    println!(
        "{:>10} {:>12} {:>7} {:>14} {:>10} {:>9} {:>9} {:>8}",
        "preset", "kernel", "words", "verify-wps", "frame-ns", "raw-ns", "overhead", "recover"
    );
    rule(92);

    let mut rows = Vec::new();
    for (preset, adg, kernels) in fixtures() {
        for kernel in &kernels {
            let r = bench_one(preset, &adg, kernel);
            println!(
                "{:>10} {:>12} {:>7} {:>14.0} {:>10.2} {:>9.2} {:>8.2}x {:>7}r",
                r.preset,
                r.kernel,
                r.words,
                r.verify_words_per_sec,
                r.frame_ns_per_word,
                r.raw_ns_per_word,
                r.framing_overhead(),
                r.recovery_attempts,
            );
            rows.push(r);
        }
    }
    rule(92);

    // Sanity contract: verification sustains real throughput and every
    // transient flip healed within the default retry budget.
    let min_wps = rows
        .iter()
        .map(|r| r.verify_words_per_sec)
        .fold(f64::INFINITY, f64::min);
    let budget = 1 + SessionConfig::default().max_retries;
    let recover_ok = rows.iter().all(|r| r.recovery_attempts <= budget);
    println!(
        "min verify throughput: {min_wps:.0} words/s | transient recovery within budget: {}",
        if recover_ok { "ok" } else { "FAIL" }
    );

    let json = to_json(&rows);
    let artifact = Envelope::new("config_integrity")
        .meta_int("seed", SEED)
        .meta_int("verify_reps", u64::from(VERIFY_REPS))
        .meta_int("frame_reps", u64::from(FRAME_REPS))
        .wrap(&json);
    match std::fs::write(&out_path, &artifact) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => log(Level::Error, format!("could not write {out_path}: {e}")),
    }
}
