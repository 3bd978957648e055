//! One benchmark for the codesign path, timed from outside the crates.
//!
//! `--workload W --seed N --seconds S --trace 0|1` runs one workload and
//! prints its result as the last line of standard output (the driver's
//! form). Without `--workload` every workload runs in a process of its own
//! and every metric is printed by name; `--trace` alone makes that the
//! traced run with its per-layer table; `--agree` runs two sets of three
//! and checks that they agree within the bounds; `--spread` runs ten seeds
//! and reports each metric's spread as the driver measures it. See
//! `README.md`.

mod harness;
mod inputs;
mod orchestrate;
mod probes;
mod report;
mod spec;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use dsagen::telemetry::{chrome_trace, MetricsRegistry, Telemetry};

use harness::{fold_spans, peak_rss_mb, Ctx};
use report::{Metric, RunResult};
use stats::{highest_supported_percentile, median, quantile};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    agree: bool,
    spread: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        agree: false,
        spread: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !spec::is_workload(&name) {
                    return Err(format!("unknown workload {name}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            // The driver passes `--trace 0|1`; alone it means a traced run.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--agree" => args.agree = true,
            "--spread" => args.spread = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Where traces, tables and on-disk state go: `benchmark/out`, inside the
/// checkout.
pub fn out_dir() -> PathBuf {
    std::env::var_os("DSAGEN_BENCH_OUT").map_or_else(
        || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        PathBuf::from,
    )
}

fn context(args: &Args, seconds: f64, tel: Telemetry, setup_reps: usize) -> Ctx {
    let scratch = out_dir().join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create benchmark/out inside the checkout");
    Ctx {
        seed: args.seed,
        seconds,
        tel,
        setup_reps,
        scratch,
    }
}

/// The untraced run: every end-to-end metric.
fn run_end_to_end(workload: &str, args: &Args) -> RunResult {
    let ctx = context(args, args.seconds, Telemetry::disabled(), 3);
    let m = workloads::run(workload, &ctx);
    for miss in &m.misses {
        eprintln!("  MISS {miss}");
    }
    eprintln!(
        "  {} ops in {:.2} s timed (enough samples for p{}), set-up {:.3?} s, digest {:016x}",
        m.op_ms.len(),
        m.timed_s,
        highest_supported_percentile(m.op_ms.len()),
        m.setup_s,
        m.digest
    );
    let value = |name: &str| match name {
        "setup_s" => median(&m.setup_s),
        "ops_per_s" => m.op_ms.len() as f64 / m.timed_s,
        "op_p50_ms" => median(&m.op_ms),
        "op_p95_ms" => quantile(&m.op_ms, 0.95),
        "peak_rss_mb" => peak_rss_mb(),
        "best_objective" => m.best_objective,
        "sim_cycles" => m.sim_cycles as f64,
        other => unreachable!("{other} is not computed"),
    };
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    RunResult {
        correct: m.misses.is_empty(),
        attempted: m.attempted.max(1),
        failed: m.failed,
        metrics: spec::END_TO_END
            .iter()
            .map(|(s, _)| Metric {
                name: s.name.into(),
                value: value(s.name),
                unit: s.unit.into(),
            })
            .collect(),
    }
}

/// The traced run: the same work at half size twice — tracing off, then on
/// with one in-memory handle — then the probes. Yields every per-layer
/// metric, `out/trace-<workload>.json` and `out/layers-<workload>.txt`.
fn run_per_layer(workload: &str, args: &Args) -> RunResult {
    let half = args.seconds / 2.0;
    let quiet = workloads::run(workload, &context(args, half, Telemetry::disabled(), 1));
    let registry = MetricsRegistry::enabled();
    let tel = Telemetry::in_memory().with_metrics(registry.clone());
    let ctx = context(args, half, tel.clone(), 1);
    let mut traced = workloads::run(workload, &ctx);
    if traced.digest != quiet.digest {
        traced.miss(format!(
            "tracing changed the outputs: digest {:016x} traced, {:016x} untraced",
            traced.digest, quiet.digest
        ));
    }
    let folded = fold_spans(&tel.events());
    let probed = probes::run(&ctx, &traced.fixtures);
    for miss in quiet.misses.iter().chain(&traced.misses) {
        eprintln!("  MISS {miss}");
    }

    let mut values: BTreeMap<&str, f64> = spec::PER_LAYER.iter().map(|s| (s.name, 0.0)).collect();
    let mut set = |name: &str, v: f64| {
        if let Some(slot) = values.get_mut(name) {
            *slot = v;
        }
    };
    for (name, v) in &probed {
        set(name, *v);
    }
    // A `bench/<layer>.<fn>` span of the timed section gives `<layer>.<fn>_us`
    // (mean of one call) and `<layer>.<fn>_calls`, wherever such a metric exists.
    for (name, (total_us, count)) in &folded.bench {
        let mean_us = *total_us as f64 / (*count).max(1) as f64;
        set(&format!("{name}_us"), mean_us);
        set(&format!("{name}_calls"), *count as f64);
    }
    set(
        "scheduler.repair_us",
        folded.repair_us as f64 / folded.repair_calls.max(1) as f64,
    );
    set("scheduler.repair_calls", folded.repair_calls as f64);
    let counters = registry.snapshot();
    set(
        "scheduler.path_search_iters",
        counters
            .counter("scheduler.path_search.iterations")
            .unwrap_or(0) as f64,
    );
    set(
        "scheduler.path_search_expansions",
        counters
            .counter("scheduler.path_search.expansions")
            .unwrap_or(0) as f64,
    );
    for (name, v) in &traced.layer {
        set(name, *v);
    }
    set(
        "telemetry.trace_overhead_share",
        traced.timed_s / quiet.timed_s - 1.0,
    );
    set("telemetry.events", folded.events as f64);
    set("bench.span_coverage_share", folded.coverage);

    let events = tel.events();
    let out = out_dir();
    let written = std::fs::write(
        out.join(format!("trace-{workload}.json")),
        chrome_trace(&events),
    )
    .and_then(|()| {
        std::fs::write(
            out.join(format!("layers-{workload}.txt")),
            fold_spans(&events).table,
        )
    });
    if let Err(e) = written {
        traced.miss(format!("could not write the trace: {e}"));
    }
    eprintln!(
        "  traced {:.2} s, untraced {:.2} s, {} events, timed-section coverage {:.1}%",
        traced.timed_s,
        quiet.timed_s,
        events.len(),
        100.0 * folded.coverage
    );
    eprint!("{}", folded.table);
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    RunResult {
        correct: traced.misses.is_empty() && quiet.misses.is_empty(),
        attempted: traced.attempted.max(1),
        failed: traced.failed,
        metrics: spec::PER_LAYER
            .iter()
            .map(|s| Metric {
                name: s.name.into(),
                value: values[s.name],
                unit: s.unit.into(),
            })
            .collect(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("dsagen-benchmark: {why}");
            return ExitCode::from(2);
        }
    };
    let ok = match &args.workload {
        only if args.spread => orchestrate::spread(args.seed, only.as_deref()),
        Some(workload) => {
            let result = if args.trace {
                run_per_layer(workload, &args)
            } else {
                run_end_to_end(workload, &args)
            };
            println!("{}", result.to_json());
            result.correct && result.failed == 0
        }
        None if args.agree => orchestrate::agree(args.seed),
        None => orchestrate::all(args.seed, args.trace),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced run at its smallest size: every per-layer metric by name,
    /// a trace that loads, and spans that cover the timed section.
    #[test]
    fn traced_run_reports_every_layer_metric_and_a_loadable_trace() {
        let args = Args {
            workload: None,
            seed: 9,
            seconds: 0.5,
            trace: true,
            agree: false,
            spread: false,
        };
        let result = run_per_layer("dse-explore", &args);
        assert!(result.correct && result.failed == 0);
        let names: Vec<&str> = result.metrics.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = spec::PER_LAYER.iter().map(|s| s.name).collect();
        assert_eq!(names, want);
        assert!(result.get("bench.span_coverage_share").expect("coverage") >= 0.95);
        assert!(result.get("scheduler.repair_calls").expect("repairs") > 0.0);
        assert!(result.get("scheduler.route_us_per_call").expect("probe") > 0.0);

        let trace =
            std::fs::read_to_string(out_dir().join("trace-dse-explore.json")).expect("trace");
        let doc = dsagen_bench::json::parse(&trace).expect("the trace is valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents");
        assert!(events.len() > 10);
    }
}
