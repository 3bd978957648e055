//! What every workload shares: the run context, the record a run returns,
//! and the folding of recorded spans into per-layer numbers.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dsagen::adg::Adg;
use dsagen::dfg::Kernel;
use dsagen::telemetry::{profile, Event, ProfileNode, Span, Telemetry};
use dsagen::Compiled;

/// One run's inputs. The program under test sees only what the workload
/// generates from `seed`; `seconds` sizes the work (see
/// [`crate::workloads::units`]).
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Disabled on the untraced run, in-memory on the traced one. The same
    /// workload code runs in both: a disabled handle makes every span a
    /// single branch.
    pub tel: Telemetry,
    /// How often set-up runs; its median is reported.
    pub setup_reps: usize,
    /// A directory inside the checkout for on-disk state; removed at exit.
    pub scratch: PathBuf,
}

impl Ctx {
    /// A span at a layer boundary, named `<layer>.<function>`; spans the
    /// crates already open nest under it.
    pub fn span(&self, name: &'static str) -> Span {
        self.tel.span("bench", name)
    }

    /// The same run with tracing off.
    pub fn untraced(&self) -> Ctx {
        Ctx {
            seed: self.seed,
            seconds: self.seconds,
            tel: Telemetry::disabled(),
            setup_reps: self.setup_reps,
            scratch: self.scratch.clone(),
        }
    }

    /// Runs `setup` `setup_reps` times, keeps the last product and returns
    /// every duration.
    pub fn setup<T>(&self, mut setup: impl FnMut(usize) -> T) -> (T, Vec<f64>) {
        let mut secs = Vec::with_capacity(self.setup_reps);
        let mut last = None;
        for rep in 0..self.setup_reps.max(1) {
            drop(last.take());
            let started = Instant::now();
            last = Some(setup(rep));
            secs.push(started.elapsed().as_secs_f64());
        }
        (last.expect("at least one repetition"), secs)
    }
}

/// A compiled mapping the probes can call layer functions on.
pub struct Fixture {
    pub adg: Adg,
    pub kernel: Kernel,
    pub compiled: Compiled,
}

/// What one run of one workload measured.
#[derive(Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    /// Wall time of the timed section.
    pub timed_s: f64,
    /// Latency of every successful op of the timed section.
    pub op_ms: Vec<f64>,
    pub attempted: u64,
    /// Ops that failed or were refused; each is described in `misses`.
    pub failed: u64,
    /// Output checks that did not hold, and failed ops, in words.
    pub misses: Vec<String>,
    pub best_objective: f64,
    pub sim_cycles: u64,
    /// Digest of every deterministic output: equal runs of the same
    /// (workload, seed, seconds) must agree on it, traced or not.
    pub digest: u64,
    /// Per-layer values the workload computes itself (counts, shares,
    /// percentiles); span-derived ones are added by [`fold_spans`].
    pub layer: BTreeMap<&'static str, f64>,
    pub fixtures: Vec<Fixture>,
}

impl Measured {
    pub fn miss(&mut self, what: String) {
        self.misses.push(what);
    }

    pub fn fail_op(&mut self, what: String) {
        self.failed += 1;
        self.misses.push(what);
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size and number of the regular files directly under `dir`.
pub fn dir_bytes_and_files(dir: &Path) -> (u64, u64) {
    let Ok(read) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    read.flatten()
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .fold((0, 0), |(bytes, n), m| (bytes + m.len(), n + 1))
}

/// Per-layer numbers read off the recorded spans.
pub struct Folded {
    /// `bench/<name>` spans: name → (total µs, count).
    pub bench: BTreeMap<String, (u64, u64)>,
    /// The scheduler entered to repair, not to schedule from scratch: path
    /// searches outside any `scheduler.schedule` span (the explorer's), and
    /// the recovery ladder's `recovery/repair` rungs, whose scoped search
    /// records no span of its own.
    pub repair_us: u64,
    pub repair_calls: u64,
    /// Share of the timed section's wall covered by named child spans.
    pub coverage: f64,
    pub events: usize,
    /// The self/total table, as text.
    pub table: String,
}

pub fn fold_spans(events: &[Event]) -> Folded {
    let report = profile(events);
    let mut folded = Folded {
        bench: BTreeMap::new(),
        repair_us: 0,
        repair_calls: 0,
        coverage: 0.0,
        events: events.len(),
        table: report.flame(),
    };
    fn walk(node: &ProfileNode, counted: bool, out: &mut Folded) {
        if node.cat == "bench" {
            let slot = out.bench.entry(node.name.clone()).or_insert((0, 0));
            slot.0 += node.total_us;
            slot.1 += node.count;
        }
        let repairs = (node.cat == "sched" && node.name.starts_with("path_search"))
            || (node.cat == "recovery" && node.name == "repair");
        if repairs && !counted {
            out.repair_us += node.total_us;
            out.repair_calls += node.count;
        }
        let counted =
            counted || repairs || (node.cat == "bench" && node.name == "scheduler.schedule");
        for child in &node.children {
            walk(child, counted, out);
        }
    }
    let (mut timed_total, mut timed_self) = (0u64, 0u64);
    for root in &report.roots {
        walk(root, false, &mut folded);
        if root.cat == "bench" && root.name == "timed" {
            timed_total += root.total_us;
            timed_self += root.self_us;
        }
    }
    if timed_total > 0 {
        folded.coverage = 1.0 - timed_self as f64 / timed_total as f64;
    }
    folded
}
