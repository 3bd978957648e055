//! Golden-file regression tests for the §VI hardware generator.
//!
//! For two preset accelerators the full flow — compile a workload, encode
//! its configuration bitstream, emit the fabric's structural Verilog — is
//! pinned against checked-in snapshots under `tests/golden/`. The entire
//! pipeline is deterministic (the stochastic scheduler is seeded, the
//! vendored PRNG is platform-stable), so any diff is a real behavioral
//! change in the compiler, scheduler, or generator.
//!
//! To bless intentional changes, regenerate the snapshots:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p dsagen --test golden
//! ```
//!
//! On mismatch the test prints a unified-style excerpt around the first
//! diverging line, so CI logs show *what* changed, not just that it did.

use std::fmt::Write as _;
use std::path::PathBuf;

use dsagen::prelude::*;

#[path = "seeded_inputs.rs"]
mod seeded_inputs;
use seeded_inputs::seeded_inputs;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn update_mode() -> bool {
    std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Compares `actual` against the snapshot `name`, regenerating it when
/// `UPDATE_GOLDEN` is set. Prints a context diff around the first
/// mismatching line on failure.
fn check_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if update_mode() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        dsagen::telemetry::log(
            dsagen::telemetry::Level::Warn,
            format!("updated golden file {}", path.display()),
        );
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    panic!("{}", render_diff(name, &expected, actual));
}

/// First-divergence excerpt: a few lines of shared context, then the
/// expected vs actual lines, then how much trailing content differs.
fn render_diff(name: &str, expected: &str, actual: &str) -> String {
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    let first = exp
        .iter()
        .zip(&act)
        .position(|(e, a)| e != a)
        .unwrap_or(exp.len().min(act.len()));
    let ctx_start = first.saturating_sub(3);
    let mut out = format!(
        "golden mismatch in {name}: first divergence at line {} (expected {} lines, got {})\n",
        first + 1,
        exp.len(),
        act.len()
    );
    for (i, line) in exp.iter().enumerate().take(first).skip(ctx_start) {
        let _ = writeln!(out, "   {:>5} | {line}", i + 1);
    }
    for line in exp.iter().skip(first).take(4) {
        let _ = writeln!(out, " - {:>5} | {line}", first + 1);
    }
    for line in act.iter().skip(first).take(4) {
        let _ = writeln!(out, " + {:>5} | {line}", first + 1);
    }
    let _ = writeln!(
        out,
        "(re-bless with UPDATE_GOLDEN=1 cargo test -p dsagen --test golden)"
    );
    out
}

fn opts() -> CompileOptions {
    CompileOptions {
        max_unroll: 2,
        scheduler: SchedulerConfig {
            max_iters: 200,
            ..SchedulerConfig::default()
        },
        ..CompileOptions::default()
    }
}

/// Renders the bitstream as one hex word per line — stable, diffable, and
/// round-trippable through `Bitstream::from_words`.
fn bitstream_text(adg: &dsagen::adg::Adg, kernel: &dsagen::dfg::Kernel) -> String {
    let compiled = dsagen::compile(adg, kernel, &opts())
        .unwrap_or_else(|e| panic!("{} on {}: {e}", kernel.name, adg.name()));
    let hw = dsagen::generate(adg, &compiled, 4, 1);
    // Self-check before pinning: the encoding must round-trip.
    let words = hw.bitstream.to_words();
    let back = dsagen::hwgen::Bitstream::from_words(&words).expect("round-trip");
    assert_eq!(back.to_words(), words, "bitstream round-trip is lossy");
    let mut s = String::with_capacity(words.len() * 17);
    for w in &words {
        let _ = writeln!(s, "{w:016x}");
    }
    s
}

#[test]
fn softbrain_mm_bitstream_matches_golden() {
    let adg = dsagen::adg::presets::softbrain();
    let kernel = dsagen::workloads::machsuite::mm();
    check_golden("softbrain_mm.bitstream.hex", &bitstream_text(&adg, &kernel));
}

#[test]
fn softbrain_rtl_matches_golden() {
    let adg = dsagen::adg::presets::softbrain();
    check_golden("softbrain.v", &dsagen::hwgen::emit_verilog(&adg));
}

#[test]
fn spu_histogram_bitstream_matches_golden() {
    let adg = dsagen::adg::presets::spu();
    let kernel = dsagen::workloads::sparse::histogram();
    check_golden("spu_histogram.bitstream.hex", &bitstream_text(&adg, &kernel));
}

#[test]
fn spu_rtl_matches_golden() {
    let adg = dsagen::adg::presets::spu();
    check_golden("spu.v", &dsagen::hwgen::emit_verilog(&adg));
}

#[test]
fn diff_renderer_pinpoints_first_divergence() {
    let d = render_diff("x", "a\nb\nc\n", "a\nB\nc\n");
    assert!(d.contains("line 2"), "{d}");
    assert!(d.contains(" - "), "{d}");
    assert!(d.contains(" + "), "{d}");
}

/// Seeds of the schedule-digest table: the scheduler's default and one
/// unrelated to it.
const DIGEST_SEEDS: [u64; 2] = [0xD5A6E4, 77001];

/// The first node hosting an instruction whose removal leaves a valid
/// fabric — the PE the digest table takes away before `repair`.
fn removable_placed_pe(
    adg: &dsagen::adg::Adg,
    problem: &dsagen::scheduler::Problem<'_>,
    schedule: &dsagen::scheduler::Schedule,
) -> Option<(dsagen::adg::NodeId, dsagen::adg::Adg)> {
    problem
        .entities
        .iter()
        .zip(&schedule.placement)
        .filter(|(e, _)| matches!(e.kind, dsagen::scheduler::EntityKind::Op { .. }))
        .filter_map(|(_, node)| *node)
        .find_map(|node| {
            let mut faulted = adg.clone();
            faulted.remove_node(node).ok()?;
            faulted.validate().ok()?;
            Some((node, faulted))
        })
}

/// The columns every row of the schedule-digest table shares.
fn digest_row(
    adg: &dsagen::adg::Adg,
    kernel: &str,
    seed: u64,
    what: &str,
    result: &dsagen::scheduler::ScheduleResult,
) -> String {
    format!(
        "{} {kernel} seed={seed} {what} digest={:016x} iterations={} feasible={}",
        adg.name(),
        dsagen::hwgen::schedule_digest(&result.schedule),
        result.iterations,
        result.is_legal(),
    )
}

/// One line per scheduler run: every Table-I kernel's fallback version on
/// three fabrics under two seeds from an empty start, and for each legal one
/// the repair of that schedule after one placed PE is removed — plus, on
/// multi-region kernels, a repair scoped to region 0 alone on that same
/// fabric, incrementally and from scratch (the recovery ladder's rungs). The
/// rows keep the labels of the functions they were first pinned through
/// (`repair`, `repair_regions`), so the table's bytes do not move. The
/// bitstream snapshots above pin two mappings; this pins the search itself,
/// so a change to the scheduler's loop, RNG draw order or incumbent rule
/// shows as the first (fabric, kernel, seed) it moves.
fn schedule_digest_table() -> String {
    use dsagen::adg::presets;
    use dsagen::dfg::{compile_kernel, TransformConfig};
    use dsagen::scheduler::{schedule, Problem, Scope, Start};
    use dsagen::telemetry::Telemetry;

    let mut out = String::new();
    for adg in [presets::softbrain(), presets::spu(), presets::dse_initial()] {
        for w in dsagen::workloads::all() {
            let ck = compile_kernel(&w.kernel, &TransformConfig::fallback(), &adg.features())
                .unwrap_or_else(|e| panic!("{} on {}: {e}", w.name, adg.name()));
            for seed in DIGEST_SEEDS {
                let cfg = SchedulerConfig {
                    seed,
                    ..SchedulerConfig::default()
                };
                let first =
                    schedule(&adg, &ck, &Start::Empty, &cfg, &Telemetry::disabled()).unwrap();
                let _ = writeln!(out, "{}", digest_row(&adg, w.name, seed, "schedule", &first));
                if !first.is_legal() {
                    continue;
                }
                let problem = Problem::new(&adg, &ck);
                let Some((removed, faulted)) = removable_placed_pe(&adg, &problem, &first.schedule)
                else {
                    continue;
                };
                let repaired = schedule(
                    &faulted,
                    &ck,
                    &Start::Repair {
                        previous: &first.schedule,
                        scope: None,
                        max_attempts: 1,
                    },
                    &cfg,
                    &Telemetry::disabled(),
                )
                .unwrap();
                let what = format!("repair without {removed}");
                let _ = writeln!(
                    out,
                    "{} outcome={:?}",
                    digest_row(&adg, w.name, seed, &what, &repaired),
                    repaired.outcome,
                );
                // The recovery ladder's entry point: the same faulted
                // fabric, but only region 0 may move.
                if ck.regions.len() < 2 {
                    continue;
                }
                let regions = std::collections::BTreeSet::from([0]);
                for (from_scratch, mode) in [(false, "incremental"), (true, "from-scratch")] {
                    let what = format!("repair_regions {{0}} {mode} without {removed}");
                    let scope = Some(Scope {
                        regions: &regions,
                        from_scratch,
                    });
                    let start = Start::Repair {
                        previous: &first.schedule,
                        scope,
                        max_attempts: 2,
                    };
                    let row = match schedule(&faulted, &ck, &start, &cfg, &Telemetry::disabled()) {
                        Ok(scoped) => format!(
                            "{} outcome={:?}",
                            digest_row(&adg, w.name, seed, &what, &scoped),
                            scoped.outcome,
                        ),
                        Err(_) => format!(
                            "{} {} seed={seed} {what} pinned-invalid",
                            adg.name(),
                            w.name
                        ),
                    };
                    let _ = writeln!(out, "{row}");
                }
            }
        }
    }
    out
}

#[test]
fn schedule_digests_match_golden() {
    check_golden("schedule_digests.txt", &schedule_digest_table());
}

/// Every preset accelerator, in a fixed order.
fn all_presets() -> Vec<dsagen::adg::Adg> {
    use dsagen::adg::presets;
    vec![
        presets::softbrain(),
        presets::maeri(),
        presets::triggered(),
        presets::spu(),
        presets::revel(),
        presets::cca(),
        presets::diannao_tree(),
        presets::dse_initial(),
        presets::plasticine(),
        presets::tabla(),
    ]
}

/// A PE with no links at all.
fn lone_pe(adg: &mut dsagen::adg::Adg) -> dsagen::adg::NodeId {
    adg.add_pe(PeSpec::new(
        Scheduling::Static,
        Sharing::Dedicated,
        OpSet::integer_alu(),
    ))
}

/// The two fabrics whose configurable subgraph is disconnected: two PEs
/// with no link between them, and Softbrain with one unlinked PE added.
fn disconnected_fixtures() -> Vec<dsagen::adg::Adg> {
    let mut split = dsagen::adg::Adg::new("split");
    lone_pe(&mut split);
    lone_pe(&mut split);
    let mut island = dsagen::adg::presets::softbrain();
    island.set_name("softbrain-island");
    lone_pe(&mut island);
    vec![split, island]
}

/// 64-bit FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

/// One row of the config-path digest table: the longest path, every
/// path's length, an FNV-1a over the node indices of every path (each
/// path closed by `u32::MAX`), the nodes the lenient run entered off-walk
/// (a step to a node not adjacent in the configurable subgraph), and the
/// strict variant's verdict.
fn config_path_row(adg: &dsagen::adg::Adg, what: &str, p: usize, seed: u64) -> String {
    use dsagen::hwgen::{generate_config_paths, try_generate_config_paths, ConfigPathError};

    let configurable = |id| adg.kind(id).is_ok_and(|k| k.is_configurable());
    let adjacent: std::collections::BTreeSet<_> = adg
        .edges()
        .filter(|e| configurable(e.src) && configurable(e.dst))
        .flat_map(|e| [(e.src, e.dst), (e.dst, e.src)])
        .collect();
    let cp = generate_config_paths(adg, p, seed);
    let mut hash = 0xCBF2_9CE4_8422_2325;
    let mut off_walk = Vec::new();
    for path in &cp.paths {
        for node in path {
            hash = fnv1a(hash, &(node.index() as u32).to_le_bytes());
        }
        hash = fnv1a(hash, &u32::MAX.to_le_bytes());
        off_walk.extend(
            path.windows(2)
                .filter(|w| !adjacent.contains(&(w[0], w[1])))
                .map(|w| w[1].to_string()),
        );
    }
    let lens: Vec<String> = cp.paths.iter().map(|path| path.len().to_string()).collect();
    let strict = match try_generate_config_paths(adg, p, seed) {
        Ok(strict) => {
            assert_eq!(strict, cp, "strict and lenient disagree on {what}");
            "ok".to_string()
        }
        Err(ConfigPathError::NoConfigurableNodes) => "no-configurable-nodes".to_string(),
        Err(ConfigPathError::DisconnectedNode { node }) => format!("disconnected({node})"),
    };
    format!(
        "{what} p={p} seed={seed} longest={} lens=[{}] fnv={hash:016x} off_walk=[{}] strict={strict}",
        cp.longest(),
        lens.join(","),
        off_walk.join(","),
    )
}

/// One line per `generate_config_paths` run: every preset and both
/// disconnected fixtures at five path counts and two seeds, then each
/// step of a 40-step `mutate` chain from `dse_initial` and from
/// `softbrain` at four paths. Pins the generator's output path for path,
/// so a rewrite of it shows the first input it moves.
fn config_path_digest_table() -> String {
    const SEEDS: [u64; 2] = [7, 20200530];
    let mut out = String::new();
    for adg in all_presets().iter().chain(&disconnected_fixtures()) {
        for p in [1, 3, 4, 6, 9] {
            for seed in SEEDS {
                let _ = writeln!(out, "{}", config_path_row(adg, adg.name(), p, seed));
            }
        }
    }
    let used = OpSet::integer_alu().union(OpSet::floating_point());
    for start in [dsagen::adg::presets::dse_initial(), dsagen::adg::presets::softbrain()] {
        let mut adg = start;
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(20200530);
        for step in 1..=40 {
            let applied = dsagen::dse::mutate(&mut adg, &mut rng, &used)
                .map_or_else(|| "none".to_string(), |m| format!("{m:?}"));
            let what = format!("{} mutate step={step:02} {applied}", adg.name());
            let _ = writeln!(out, "{}", config_path_row(&adg, &what, 4, SEEDS[0]));
        }
    }
    out
}

#[test]
fn config_path_digests_match_golden() {
    check_golden("config_path_digests.txt", &config_path_digest_table());
}

/// Comma-joined list of counters.
fn joined(values: &[u64]) -> String {
    values
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// One row of the sim digest table for a fault-free run: the report's
/// counters and stall breakdown, and an FNV-1a over every stream's
/// `issued`/`stalled`/`elems`/`fifo_highwater` (floats by bit pattern) and
/// every pipeline group's cycle count.
fn sim_row(what: &str, report: &dsagen::sim::SimReport, hw: &dsagen::sim::SimTelemetry) -> String {
    let mut hash = 0xCBF2_9CE4_8422_2325;
    for st in &hw.streams {
        for word in [
            st.issued,
            st.stalled,
            st.elems.to_bits(),
            st.fifo_highwater.to_bits(),
        ] {
            hash = fnv1a(hash, &word.to_le_bytes());
        }
    }
    for cycles in &hw.group_cycles {
        hash = fnv1a(hash, &cycles.to_le_bytes());
    }
    let s = report.stalls;
    format!(
        "{what} sim cycles={} firings=[{}] region_cycles=[{}] active_cycles=[{}] \
stalls=memory:{},operands:{},backpressure:{},ii:{},ctrl:{} streams_fnv={hash:016x}",
        report.cycles,
        joined(&report.firings),
        joined(&report.region_cycles),
        joined(&report.active_cycles),
        s.memory,
        s.operands,
        s.backpressure,
        s.ii,
        s.ctrl,
    )
}

/// One row of the sim digest table for a recovered run.
fn recovery_row(
    what: &str,
    result: &Result<dsagen::sim::RecoveryReport, dsagen::sim::RecoveryError>,
) -> String {
    match result {
        Ok(r) => {
            let rungs: Vec<String> = r
                .rung_histogram()
                .iter()
                .map(|(rung, n)| format!("{rung}:{n}"))
                .collect();
            format!(
                "{what} total_cycles={} recoveries={} mttr_bits={:016x} rungs=[{}]",
                r.total_cycles,
                r.recoveries(),
                r.mttr_cycles().to_bits(),
                rungs.join(","),
            )
        }
        Err(e) => format!("{what} error={e}"),
    }
}

/// Pins the cycle engine run for run. Every Table-I kernel is compiled
/// onto `softbrain`, `spu` and `dse_initial` at the scheduler's default
/// seed with `max_unroll: 1`, and each mapping is simulated fault-free
/// with full counters. Each `softbrain`/`spu` mapping is then run through
/// `run_with_recovery` twice: under a transient dead PE, and under a
/// permanent fault of a drawn runtime kind (which repairs and rebinds the
/// engine mid-run). Arrivals fall in the second quarter of the fault-free
/// run. A rewrite of the engine shows the first run it moves.
fn sim_digest_table() -> String {
    use dsagen::adg::presets;
    use dsagen::faults::{FaultKind, RUNTIME_KINDS};
    use dsagen::sim::{simulate_instrumented, SimConfig};
    use dsagen::telemetry::Telemetry;
    use rand::{Rng, RngCore, SeedableRng};

    let cfg = SimConfig::default();
    let opts = CompileOptions {
        max_unroll: 1,
        ..CompileOptions::default()
    };
    let policy = RecoveryPolicy::default();
    let mut out = String::new();
    let fabrics = [
        (presets::softbrain(), true),
        (presets::spu(), true),
        (presets::dse_initial(), false),
    ];
    for (adg, faulted) in fabrics {
        for w in dsagen::workloads::all() {
            let what = format!("{} {}", adg.name(), w.name);
            let c = match dsagen::compile(&adg, &w.kernel, &opts) {
                Ok(c) => c,
                Err(e) => {
                    let _ = writeln!(out, "{what} compile-error={e}");
                    continue;
                }
            };
            let (report, hw) = simulate_instrumented(
                &adg,
                &c.version,
                &c.schedule,
                &c.eval,
                c.config_path_len,
                &cfg,
                &Telemetry::disabled(),
            )
            .unwrap_or_else(|e| panic!("{what}: {e}"));
            let _ = writeln!(out, "{}", sim_row(&what, &report, &hw));
            if !faulted {
                continue;
            }
            let mut rng = <rand::rngs::StdRng as SeedableRng>::seed_from_u64(fnv1a(
                0xCBF2_9CE4_8422_2325,
                what.as_bytes(),
            ));
            let window = (report.cycles / 4).max(1)..(report.cycles / 2).max(2);
            let at = rng.gen_range(window.clone());
            let transient = FaultSchedule::new(rng.next_u64()).with(
                at,
                FaultLifetime::Transient { duration: 4096 },
                FaultKind::DeadPe,
            );
            let row = recovery_row(
                &format!("{what} transient dead-pe@{at}"),
                &dsagen::recover(&adg, &c, &cfg, &transient, &policy, &Telemetry::disabled()),
            );
            let _ = writeln!(out, "{row}");
            let kind = RUNTIME_KINDS[rng.gen_range(0..RUNTIME_KINDS.len())];
            let at = rng.gen_range(window);
            let permanent =
                FaultSchedule::new(rng.next_u64()).with(at, FaultLifetime::Permanent, kind);
            let row = recovery_row(
                &format!("{what} permanent {kind}@{at}"),
                &dsagen::recover(&adg, &c, &cfg, &permanent, &policy, &Telemetry::disabled()),
            );
            let _ = writeln!(out, "{row}");
        }
    }
    out
}

#[test]
fn sim_digests_match_golden() {
    check_golden("sim_digests.txt", &sim_digest_table());
}

/// Pins the reference interpreter run for run: every Table-I kernel on two
/// seeded input sets, each row an FNV-1a over every output array's name,
/// length and element bits, or the `ExecError` text. A rewrite of
/// `interp::execute` shows the first kernel whose values or error it moves.
fn interp_digest_table() -> String {
    let mut out = String::new();
    for w in dsagen::workloads::all() {
        for salt in [0, 1] {
            let inputs = seeded_inputs(&w.kernel.name, salt);
            let row = match dsagen::dfg::interp::execute(&w.kernel, &inputs) {
                Ok(arrays) => {
                    let mut hash = 0xCBF2_9CE4_8422_2325;
                    for (name, data) in &arrays {
                        hash = fnv1a(hash, name.as_bytes());
                        hash = fnv1a(hash, &(data.len() as u64).to_le_bytes());
                        for x in data {
                            hash = fnv1a(hash, &x.to_bits().to_le_bytes());
                        }
                    }
                    format!("arrays={} fnv={hash:016x}", arrays.len())
                }
                Err(e) => format!("error={e}"),
            };
            let _ = writeln!(out, "{} inputs={salt} {row}", w.kernel.name);
        }
    }
    out
}

#[test]
fn interp_digests_match_golden() {
    check_golden("interp_digests.txt", &interp_digest_table());
}

/// FNV-1a over every `IterRecord` field except `wall_ms`, across every
/// shard's trace (each trace closed by `u64::MAX`).
fn trace_hash(shard_traces: &[Vec<dsagen::dse::IterRecord>]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325;
    for trace in shard_traces {
        for rec in trace {
            let reason = rec.rejected_reason.map_or_else(String::new, |r| r.to_string());
            for word in [
                u64::from(rec.iter),
                rec.area_mm2.to_bits(),
                rec.power_mw.to_bits(),
                rec.objective.to_bits(),
                rec.perf.to_bits(),
                u64::from(rec.accepted),
                rec.sched_passes,
                rec.cache_hits,
                rec.cache_misses,
            ] {
                hash = fnv1a(hash, &word.to_le_bytes());
            }
            hash = fnv1a(hash, reason.as_bytes());
            hash = fnv1a(hash, &[0xFF]);
        }
        hash = fnv1a(hash, &u64::MAX.to_le_bytes());
    }
    hash
}

/// A design point as bits: objective, perf, area, power, then each
/// kernel's chosen version and IPC (`-` when none mapped).
fn point_text(p: &dsagen::dse::DsePoint) -> String {
    let per_kernel: Vec<String> = p
        .per_kernel
        .iter()
        .map(|k| k.map_or_else(|| "-".to_string(), |(v, ipc)| format!("{v}:{:x}", ipc.to_bits())))
        .collect();
    format!(
        "{:x}/{:x}/{:x}/{:x}[{}]",
        p.objective.to_bits(),
        p.perf.to_bits(),
        p.cost.area_mm2.to_bits(),
        p.cost.power_mw.to_bits(),
        per_kernel.join(","),
    )
}

/// One row of the DSE digest table: the explorer's whole observable
/// outcome after one `run` — traces, best and initial points, both final
/// designs' fingerprints and the statistics snapshot.
fn dse_row(what: &str, ex: &dsagen::dse::Explorer, res: &dsagen::dse::DseResult) -> String {
    let snap = ex.telemetry_snapshot();
    let c = snap.cache;
    format!(
        "{what} iters={} trace={:016x} best={} initial={} best_adg={:016x} adg={:016x} \
sched={} rejections={} exact={} footprint={} store={} misses={} insertions={} stopped={:?}",
        res.shard_traces.iter().map(Vec::len).sum::<usize>(),
        trace_hash(&res.shard_traces),
        point_text(&res.best),
        point_text(&res.initial),
        res.best_adg.fingerprint(),
        ex.adg().fingerprint(),
        snap.sched_invocations,
        snap.config_rejections,
        c.exact_hits,
        c.footprint_hits,
        c.store_hits,
        c.misses,
        c.insertions,
        res.stopped,
    )
}

/// Pins the explorer exploration for exploration: two small PolyBench
/// kernel sets from `dse_initial` under two seeds, each run serial, as
/// three shards on one and on two threads, without repair, without the
/// cache, in reliability mode, and against an artifact store cold and
/// then warm. Every row fixes `shards` and `threads`, so
/// `DSAGEN_DSE_THREADS` cannot move it. A rewrite of the explorer shows
/// the first (set, seed, configuration) it moves.
fn dse_digest_table() -> String {
    use dsagen::adg::presets;
    use dsagen::dse::{DseConfig, Explorer, ReliabilityMode};
    use dsagen::workloads::polybench;

    let sets: [(&str, Vec<dsagen::dfg::Kernel>); 2] = [
        ("atax", vec![polybench::atax()]),
        ("mvt+bicg", vec![polybench::mvt(), polybench::bicg()]),
    ];
    let mut out = String::new();
    for (set, kernels) in &sets {
        for seed in DIGEST_SEEDS {
            let base = DseConfig {
                seed,
                max_iters: 7,
                patience: 7,
                sched_iters: 30,
                max_unroll: 2,
                shards: 1,
                threads: 1,
                ..DseConfig::default()
            };
            let reliability = ReliabilityMode {
                faults: 1,
                horizon: 512,
                ..ReliabilityMode::default()
            };
            let configs = [
                ("serial", base),
                ("shards=3 threads=1", DseConfig { shards: 3, ..base }),
                ("shards=3 threads=2", DseConfig { shards: 3, threads: 2, ..base }),
                ("no-repair", DseConfig { use_repair: false, ..base }),
                ("no-cache", DseConfig { use_cache: false, ..base }),
                ("reliability", DseConfig { reliability: Some(reliability), ..base }),
            ];
            for (what, cfg) in configs {
                let mut ex = Explorer::new(presets::dse_initial(), kernels, cfg);
                let res = ex.run();
                let _ = writeln!(out, "{}", dse_row(&format!("{set} seed={seed} {what}"), &ex, &res));
            }
            let root = std::env::temp_dir().join(format!(
                "dsagen-golden-dse-{}-{set}-{seed}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&root);
            for what in ["store-cold", "store-warm"] {
                let store = dsagen::store::open_default(&root).expect("open a scratch store");
                let mut ex = Explorer::new(presets::dse_initial(), kernels, base).with_store(store);
                let res = ex.run();
                let _ = writeln!(out, "{}", dse_row(&format!("{set} seed={seed} {what}"), &ex, &res));
            }
            let _ = std::fs::remove_dir_all(&root);
        }
    }
    out
}

#[test]
fn dse_digests_match_golden() {
    check_golden("dse_digests.txt", &dse_digest_table());
}
