//! Hardware counters collected during cycle-level simulation.
//!
//! The engine in [`crate::engine`] always tallies a small set of cheap
//! per-region / per-stream counters (plain integer increments on paths
//! that already branch); [`SimTelemetry`] is the harvested, attributed
//! view: per-PE firing/busy/idle/stall cycles, per-stream-engine
//! issue/stall counts with FIFO high-water marks, and a stall *taxonomy*
//! that explains where every lost cycle went.
//!
//! # Counter semantics and conservation laws
//!
//! For every processing element (PE) the counters satisfy, exactly:
//!
//! ```text
//! busy + idle + stalled == cycles          (total simulated cycles)
//! stalls.total()        == stalled         (taxonomy covers every stall)
//! ```
//!
//! Attribution is *exclusive*: within its pipeline group a region (and
//! hence each PE running it) spends each cycle in exactly one state —
//! it fires (`busy`), it stalls for exactly one recorded cause
//! (`operand_wait`, `backpressure`, or `ii`), or it drains/waits
//! (`idle`). Cycles spent in other groups' timelines, inter-group
//! barriers, and the configuration load are charged as `idle`,
//! `barrier`, and `config` respectively. Memory-arbitration and
//! control-core stalls are stream-level phenomena (several streams can
//! lose arbitration in the same cycle), so they appear in the
//! *aggregate* taxonomy and the per-stream counters but are zero in
//! per-PE taxonomies — the PE-visible symptom of a slow memory is
//! `operand_wait`.

use std::collections::BTreeSet;
use std::fmt;
use std::fmt::Write as _;

use dsagen_adg::{Adg, NodeId, NodeKind};
use dsagen_scheduler::{Problem, Schedule};

use crate::SimReport;

/// Where stall cycles went, by cause. All fields are cycle counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StallTaxonomy {
    /// Output FIFO full — downstream could not absorb results.
    pub backpressure: u64,
    /// Input operands not yet buffered in port FIFOs.
    pub operand_wait: u64,
    /// Memory port arbitration loss (stream-level; zero per-PE).
    pub memory: u64,
    /// Inter-group barrier / fence drain cycles.
    pub barrier: u64,
    /// Configuration-load cycles before cycle 0 of the computation.
    pub config: u64,
    /// Initiation-interval / recurrence gating.
    pub ii: u64,
    /// Waiting on control-core scalar fallback work (stream-level;
    /// zero per-PE).
    pub ctrl: u64,
}

impl StallTaxonomy {
    /// Sum of all stall causes.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.backpressure
            + self.operand_wait
            + self.memory
            + self.barrier
            + self.config
            + self.ii
            + self.ctrl
    }

    /// The single largest cause, as `(label, cycles)`. Returns
    /// `("none", 0)` when no stalls were recorded.
    #[must_use]
    pub fn dominant(&self) -> (&'static str, u64) {
        let causes = [
            ("backpressure", self.backpressure),
            ("operand-wait", self.operand_wait),
            ("memory", self.memory),
            ("barrier", self.barrier),
            ("config", self.config),
            ("ii", self.ii),
            ("ctrl", self.ctrl),
        ];
        let best = causes
            .iter()
            .max_by_key(|(_, c)| *c)
            .copied()
            .unwrap_or(("none", 0));
        if best.1 == 0 {
            ("none", 0)
        } else {
            best
        }
    }

    /// One-line JSON object (hand-rendered; the vendored serde is a
    /// no-op).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"backpressure\":{},\"operand_wait\":{},\"memory\":{},\"barrier\":{},\
\"config\":{},\"ii\":{},\"ctrl\":{}}}",
            self.backpressure,
            self.operand_wait,
            self.memory,
            self.barrier,
            self.config,
            self.ii,
            self.ctrl
        )
    }
}

impl fmt::Display for StallTaxonomy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "backpressure={} operand-wait={} memory={} barrier={} config={} ii={} ctrl={}",
            self.backpressure,
            self.operand_wait,
            self.memory,
            self.barrier,
            self.config,
            self.ii,
            self.ctrl
        )
    }
}

/// Hardware counters for one processing element.
///
/// Satisfies `busy + idle + stalled == cycles` and
/// `stalls.total() == stalled` (see module docs for the attribution
/// rules).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeCounters {
    /// The ADG node this PE occupies.
    pub node: NodeId,
    /// Kernel region whose dataflow graph is mapped onto this PE.
    pub region: usize,
    /// Total simulated cycles (identical for every PE of one run).
    pub cycles: u64,
    /// Dataflow firings executed.
    pub fired: u64,
    /// Cycles in which the PE fired.
    pub busy: u64,
    /// Cycles lost to an attributable stall cause.
    pub stalled: u64,
    /// Cycles with nothing to do (other groups running, drain, done).
    pub idle: u64,
    /// Stall cycles by cause; `stalls.total() == stalled`.
    pub stalls: StallTaxonomy,
}

impl PeCounters {
    /// Fraction of total cycles this PE spent firing.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.busy as f64 / self.cycles as f64
    }
}

/// Counters for one stream engine (a port's command/data mover).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamCounters {
    /// Kernel region the stream belongs to.
    pub region: usize,
    /// Index of the stream within the region's state (inputs first,
    /// then outputs, in compiled order).
    pub index: usize,
    /// Read (memory→fabric) or write stream.
    pub is_read: bool,
    /// Served by the control core element-by-element.
    pub ctrl_fed: bool,
    /// Cycles in which the stream delivered at least one element.
    pub issued: u64,
    /// Cycles in which the stream wanted to move data but could not
    /// (memory arbitration loss, FIFO full on reads, FIFO empty on
    /// writes, control core busy).
    pub stalled: u64,
    /// Total elements moved over the run.
    pub elems: f64,
    /// Highest FIFO occupancy observed (elements).
    pub fifo_highwater: f64,
    /// FIFO capacity (elements).
    pub fifo_cap: f64,
}

impl StreamCounters {
    /// High-water mark as a fraction of capacity.
    #[must_use]
    pub fn occupancy_peak(&self) -> f64 {
        if self.fifo_cap <= 0.0 {
            return 0.0;
        }
        (self.fifo_highwater / self.fifo_cap).min(1.0)
    }
}

/// Per-region exclusive stall tallies plus bookkeeping needed for PE
/// attribution. Internal to the engine but exposed read-only so
/// attribution reports can re-group by region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegionTally {
    /// Cycles lost to initiation-interval / recurrence gating.
    pub ii: u64,
    /// Cycles lost waiting for input operands.
    pub operands: u64,
    /// Cycles lost to full output FIFOs.
    pub backpressure: u64,
    /// Cycles in which the region fired.
    pub fired_cycles: u64,
    /// Pipeline group this region belongs to.
    pub group: usize,
}

/// Attributes raw engine tallies onto PEs and streams, producing the
/// public [`SimTelemetry`] view. Called by the engine after a run (or
/// mid-run for checkpoint snapshots); pure function of its inputs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn attribute(
    adg: &Adg,
    schedule: &Schedule,
    problem: &Problem<'_>,
    report: &SimReport,
    tallies: &[RegionTally],
    streams: Vec<StreamCounters>,
    group_cycles: Vec<u64>,
    config_cycles: u64,
    barrier_cycles: u64,
) -> SimTelemetry {
    let mut pes = Vec::new();
    for (ri, tally) in tallies.iter().enumerate() {
        let mut nodes: BTreeSet<NodeId> = BTreeSet::new();
        if let Some(ops) = problem.op_entity.get(ri) {
            for &entity in ops {
                if entity == usize::MAX {
                    continue;
                }
                if let Some(Some(node)) = schedule.placement.get(entity) {
                    if matches!(adg.kind(*node), Ok(NodeKind::Pe(_))) {
                        nodes.insert(*node);
                    }
                }
            }
        }
        let taxonomy = StallTaxonomy {
            backpressure: tally.backpressure,
            operand_wait: tally.operands,
            memory: 0,
            barrier: barrier_cycles,
            config: config_cycles,
            ii: tally.ii,
            ctrl: 0,
        };
        let stalled = taxonomy.total();
        let busy = tally.fired_cycles;
        for node in nodes {
            pes.push(PeCounters {
                node,
                region: ri,
                cycles: report.cycles,
                fired: report.firings.get(ri).copied().unwrap_or(0),
                busy,
                stalled,
                idle: report.cycles.saturating_sub(busy + stalled),
                stalls: taxonomy,
            });
        }
    }
    let taxonomy = StallTaxonomy {
        backpressure: report.stalls.backpressure,
        operand_wait: report.stalls.operands,
        memory: report.stalls.memory,
        barrier: barrier_cycles,
        config: config_cycles,
        ii: report.stalls.ii,
        ctrl: report.stalls.ctrl,
    };
    SimTelemetry {
        cycles: report.cycles,
        config_cycles,
        barrier_cycles,
        region_group: tallies.iter().map(|t| t.group).collect(),
        region_tallies: tallies.to_vec(),
        group_cycles,
        pes,
        streams,
        taxonomy,
    }
}

/// Everything the cycle engine measured in one simulation, attributed.
#[derive(Debug, Clone, PartialEq)]
pub struct SimTelemetry {
    /// Total simulated cycles (== `SimReport::cycles`).
    pub cycles: u64,
    /// Cycles spent loading configuration before execution.
    pub config_cycles: u64,
    /// Cycles spent in inter-group barriers / fence drains.
    pub barrier_cycles: u64,
    /// Cycles each pipeline group ran.
    pub group_cycles: Vec<u64>,
    /// Pipeline group index of each region.
    pub region_group: Vec<usize>,
    /// Per-region exclusive stall tallies.
    pub region_tallies: Vec<RegionTally>,
    /// Per-PE counters (one entry per distinct PE with mapped ops).
    pub pes: Vec<PeCounters>,
    /// Per-stream-engine counters.
    pub streams: Vec<StreamCounters>,
    /// Whole-run stall taxonomy (includes stream-level memory/ctrl).
    pub taxonomy: StallTaxonomy,
}

impl SimTelemetry {
    /// Mean PE utilization over all mapped PEs.
    #[must_use]
    pub(crate) fn mean_pe_utilization(&self) -> f64 {
        if self.pes.is_empty() {
            return 0.0;
        }
        self.pes.iter().map(PeCounters::utilization).sum::<f64>() / self.pes.len() as f64
    }

    /// The whole-run dominant stall cause `(label, cycles)`.
    #[must_use]
    pub(crate) fn dominant_stall(&self) -> (&'static str, u64) {
        self.taxonomy.dominant()
    }

    /// Renders the whole structure as a JSON object (hand-written; the
    /// vendored serde is a no-op).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push('{');
        let _ = write!(
            s,
            "\"cycles\":{},\"config_cycles\":{},\"barrier_cycles\":{},",
            self.cycles, self.config_cycles, self.barrier_cycles
        );
        let _ = write!(
            s,
            "\"group_cycles\":[{}],",
            self.group_cycles
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",")
        );
        let _ = write!(s, "\"taxonomy\":{},", self.taxonomy.to_json());
        s.push_str("\"pes\":[");
        for (i, pe) in self.pes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"node\":\"{}\",\"region\":{},\"cycles\":{},\"fired\":{},\"busy\":{},\
\"stalled\":{},\"idle\":{},\"stalls\":{}}}",
                pe.node,
                pe.region,
                pe.cycles,
                pe.fired,
                pe.busy,
                pe.stalled,
                pe.idle,
                pe.stalls.to_json()
            );
        }
        s.push_str("],\"streams\":[");
        for (i, st) in self.streams.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"region\":{},\"index\":{},\"is_read\":{},\"ctrl_fed\":{},\"issued\":{},\
\"stalled\":{},\"elems\":{:.1},\"fifo_highwater\":{:.2},\"fifo_cap\":{:.1}}}",
                st.region,
                st.index,
                st.is_read,
                st.ctrl_fed,
                st.issued,
                st.stalled,
                st.elems,
                st.fifo_highwater,
                st.fifo_cap
            );
        }
        s.push_str("]}");
        s
    }

    /// Emits the counters as instant events into `tel` (one event per
    /// PE and per stream plus a summary). No-op when telemetry is
    /// disabled.
    pub(crate) fn emit(&self, tel: &dsagen_telemetry::Telemetry) {
        if !tel.is_enabled() {
            return;
        }
        for pe in &self.pes {
            let node = pe.node.to_string();
            tel.emit(|| {
                dsagen_telemetry::EventData::new("sim.counters", format!("pe {node}"))
                    .arg("region", pe.region as u64)
                    .arg("fired", pe.fired)
                    .arg("busy", pe.busy)
                    .arg("stalled", pe.stalled)
                    .arg("idle", pe.idle)
                    .arg("backpressure", pe.stalls.backpressure)
                    .arg("operand_wait", pe.stalls.operand_wait)
                    .arg("ii", pe.stalls.ii)
                    .arg("barrier", pe.stalls.barrier)
                    .arg("config", pe.stalls.config)
            });
        }
        for st in &self.streams {
            tel.emit(|| {
                dsagen_telemetry::EventData::new(
                    "sim.counters",
                    format!(
                        "stream r{}[{}] {}",
                        st.region,
                        st.index,
                        if st.is_read { "rd" } else { "wr" }
                    ),
                )
                .arg("issued", st.issued)
                .arg("stalled", st.stalled)
                .arg("elems", st.elems)
                .arg("fifo_highwater", st.fifo_highwater)
                .arg("fifo_cap", st.fifo_cap)
            });
        }
        let (cause, cycles) = self.dominant_stall();
        tel.emit(|| {
            dsagen_telemetry::EventData::new("sim", "summary")
                .arg("cycles", self.cycles)
                .arg("config_cycles", self.config_cycles)
                .arg("barrier_cycles", self.barrier_cycles)
                .arg("dominant_stall", cause)
                .arg("dominant_stall_cycles", cycles)
                .arg("mean_pe_utilization", self.mean_pe_utilization())
        });
    }
}
