//! Self-profiler: a wall-time attribution tree folded from recorded span
//! events.
//!
//! The span API already timestamps every phase; this module turns a flat
//! event list into the question performance work actually asks: *where did
//! the time go?* Spans are nested by interval containment per emitting
//! thread, aggregated by `(category, name)` at every tree level, and each
//! node carries both **total** time (its whole subtree) and **self** time
//! (total minus child totals — the share spent in that phase's own code).
//!
//! The frozen benchmark's per-workload layer tables are built on this,
//! and a workspace test gates a fixed-seed DSE on it: the named children
//! of the `phase/dse` span must explain at least 95% of its wall time.
//!
//! ```
//! use dsagen_telemetry::{profile, Telemetry};
//!
//! let tel = Telemetry::in_memory();
//! {
//!     let _outer = tel.span("phase", "dse");
//!     drop(tel.span("sched", "path_search"));
//!     drop(tel.span("sched", "path_search"));
//! }
//! let report = profile(&tel.events());
//! let dse = report.find("dse").expect("root span");
//! assert_eq!(dse.children.len(), 1); // both searches folded into one node
//! assert_eq!(dse.children[0].count, 2);
//! assert!(report.flame().contains("path_search"));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::Event;

/// One aggregated node in the attribution tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileNode {
    /// Span category.
    pub cat: String,
    /// Span name.
    pub name: String,
    /// Microseconds covered by this node's spans (subtree total).
    pub total_us: u64,
    /// Microseconds not covered by any child span.
    pub self_us: u64,
    /// How many spans folded into this node.
    pub count: u64,
    /// Aggregated children, largest total first.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// `cat/name`, the node's display key.
    #[must_use]
    pub fn key(&self) -> String {
        format!("{}/{}", self.cat, self.name)
    }

    /// Depth-first search for a descendant (or self) named `name`.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<&ProfileNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

/// The folded attribution forest for one event capture.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    /// Elapsed microseconds from the first span's start to the last
    /// span's end — the capture's measured wall time.
    pub wall_us: u64,
    /// Aggregated root spans (no enclosing span), largest total first.
    pub roots: Vec<ProfileNode>,
}

impl ProfileReport {
    /// Depth-first search across all roots for a node named `name`.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<&ProfileNode> {
        self.roots.iter().find_map(|r| r.find(name))
    }

    /// Renders the tree as an indented flame-style text report: per node
    /// `total`, `self`, invocation count, and percent of wall time.
    #[must_use]
    pub fn flame(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<44} {:>10} {:>10} {:>8} {:>7}",
            "span", "total", "self", "count", "% wall"
        );
        for root in &self.roots {
            self.render(&mut s, root, 0);
        }
        s
    }

    fn render(&self, s: &mut String, node: &ProfileNode, depth: usize) {
        let label = format!("{}{}", "  ".repeat(depth), node.key());
        let pct = if self.wall_us == 0 {
            0.0
        } else {
            node.total_us as f64 * 100.0 / self.wall_us as f64
        };
        let _ = writeln!(
            s,
            "{:<44} {:>10} {:>10} {:>8} {:>6.1}%",
            label,
            fmt_us(node.total_us),
            fmt_us(node.self_us),
            node.count,
            pct
        );
        for child in &node.children {
            self.render(s, child, depth + 1);
        }
    }
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

/// A raw (un-aggregated) span interval during forest construction.
struct RawNode {
    cat: &'static str,
    name: String,
    start: u64,
    end: u64,
    depth: u32,
    children: Vec<RawNode>,
}

/// Folds recorded events into a wall-time attribution tree.
///
/// Only complete (span) events participate; instants carry no duration.
/// Spans nest by their recorded [`Event::depth`] within each emitting
/// thread, then the per-thread forests are aggregated together by
/// `(cat, name)` — so a phase that runs on several shard workers appears
/// once, with summed totals and counts.
#[must_use]
pub fn profile(events: &[Event]) -> ProfileReport {
    let mut by_tid: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    let mut min_start = u64::MAX;
    let mut max_end = 0u64;
    for e in events {
        if let Some(dur) = e.dur_us {
            min_start = min_start.min(e.ts_us);
            max_end = max_end.max(e.ts_us + dur);
            by_tid.entry(e.tid).or_default().push(e);
        }
    }
    if by_tid.is_empty() {
        return ProfileReport::default();
    }

    let mut raw_roots: Vec<RawNode> = Vec::new();
    for spans in by_tid.values() {
        // Spans arrive in *record* order — a span is recorded when its
        // guard drops, so every child precedes its parent. The recorded
        // nesting depth makes parentage exact: a span's descendants are
        // precisely the strictly-deeper suffix of the unclaimed list
        // (microsecond-tied timestamps cannot confuse it — see
        // `Event::depth`).
        let mut unclaimed: Vec<RawNode> = Vec::new();
        for e in spans.iter() {
            let mut children: Vec<RawNode> = Vec::new();
            while let Some(last) = unclaimed.last() {
                if last.depth > e.depth {
                    children.push(unclaimed.pop().expect("non-empty"));
                } else {
                    break;
                }
            }
            children.reverse();
            unclaimed.push(RawNode {
                cat: e.cat,
                name: e.name.clone(),
                start: e.ts_us,
                end: e.ts_us + e.dur_us.unwrap_or(0),
                depth: e.depth,
                children,
            });
        }
        raw_roots.extend(unclaimed);
    }

    let roots = aggregate(raw_roots);
    ProfileReport {
        wall_us: max_end.saturating_sub(min_start),
        roots,
    }
}

/// Groups sibling raw nodes by `(cat, name)`, summing durations and
/// recursing into children.
fn aggregate(raw: Vec<RawNode>) -> Vec<ProfileNode> {
    let mut grouped: BTreeMap<(String, String), (u64, u64, Vec<RawNode>)> = BTreeMap::new();
    for node in raw {
        let key = (node.cat.to_string(), node.name.clone());
        let slot = grouped.entry(key).or_insert((0, 0, Vec::new()));
        slot.0 += node.end - node.start;
        slot.1 += 1;
        slot.2.extend(node.children);
    }
    let mut out: Vec<ProfileNode> = grouped
        .into_iter()
        .map(|((cat, name), (total, count, children))| {
            let children = aggregate(children);
            let child_total: u64 = children.iter().map(|c| c.total_us).sum();
            ProfileNode {
                cat,
                name,
                total_us: total,
                self_us: total.saturating_sub(child_total),
                count,
                children,
            }
        })
        .collect();
    out.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(&b.name)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    impl ProfileNode {
        /// The direct child named `name`, if any.
        fn child(&self, name: &str) -> Option<&ProfileNode> {
            self.children.iter().find(|c| c.name == name)
        }
    }

    #[test]
    fn empty_capture_profiles_to_nothing() {
        let report = profile(&[]);
        assert_eq!(report.wall_us, 0);
        assert!(report.roots.is_empty());
        assert!(report.flame().contains("span"));
    }

    #[test]
    fn nesting_follows_interval_containment() {
        let tel = Telemetry::in_memory();
        {
            let _outer = tel.span("phase", "dse");
            {
                let _mid = tel.span("sched", "path_search");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            drop(tel.span("config", "verify"));
        }
        let report = profile(&tel.events());
        assert_eq!(report.roots.len(), 1);
        let dse = &report.roots[0];
        assert_eq!(dse.name, "dse");
        assert_eq!(dse.children.len(), 2);
        let search = dse.child("path_search").expect("nested span");
        assert!(
            search.total_us >= 1000,
            "slept 2ms, got {}us",
            search.total_us
        );
        assert!(dse.total_us >= search.total_us);
        assert!(dse.self_us <= dse.total_us);
    }

    #[test]
    fn repeated_spans_fold_with_counts() {
        let tel = Telemetry::in_memory();
        {
            let _outer = tel.span("phase", "dse");
            for _ in 0..5 {
                drop(tel.span("sched", "path_search"));
            }
        }
        let report = profile(&tel.events());
        let search = report.find("path_search").expect("folded node");
        assert_eq!(search.count, 5);
        assert_eq!(report.roots[0].children.len(), 1);
    }

    #[test]
    fn threads_aggregate_into_one_forest() {
        let tel = Telemetry::in_memory();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let tel = tel.clone();
                scope.spawn(move || drop(tel.span("sched", "path_search")));
            }
        });
        let report = profile(&tel.events());
        assert_eq!(report.roots.len(), 1);
        assert_eq!(report.roots[0].count, 3);
    }

    #[test]
    fn self_time_excludes_children() {
        let tel = Telemetry::in_memory();
        {
            let _outer = tel.span("phase", "dse");
            let _inner = tel.span("sched", "path_search");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let report = profile(&tel.events());
        let dse = &report.roots[0];
        let child = &dse.children[0];
        assert_eq!(dse.self_us, dse.total_us - child.total_us);
    }
}
