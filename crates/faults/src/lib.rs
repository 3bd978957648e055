//! Deterministic fault injection for DSAGEN architecture description
//! graphs.
//!
//! Synthesized spatial accelerators are deployed into environments where
//! hardware degrades: a PE's functional unit fails timing, a link is fused
//! off after a manufacturing defect, a switch's configuration latch sticks,
//! an SRAM bank shrinks a FIFO. The co-design pipeline built around the
//! ADG (scheduler repair §V-A, cycle simulator, DSE) must degrade
//! *gracefully* under such damage instead of panicking.
//!
//! This crate provides the damage model:
//!
//! * [`FaultKind`] — four *structural* hardware faults (dead PE, severed
//!   link, stuck switch, shrunk FIFO) plus four *config-plane* faults
//!   (bit flip, truncated stream, duplicated frame, reordered frame) that
//!   corrupt bitstream words in flight instead of the graph;
//! * [`FaultPlan`] — a seeded, reproducible list of faults to apply;
//! * [`inject`] — applies a plan to an [`Adg`], producing a degraded graph
//!   that is **guaranteed to still pass [`Adg::validate`]** plus a
//!   structured [`FaultReport`] of what was applied and what was skipped;
//! * [`corrupt_frames`] — applies the config-plane faults of a plan to a
//!   framed stream of bitstream words, so tests can drive the CRC/retry
//!   recovery paths of the configuration-integrity subsystem
//!   deterministically.
//!
//! The guarantee is enforced by *validate-rollback*: each fault is applied
//! to a scratch copy and kept only if the result still validates; a fault
//! with no viable target (for example severing the only config path to a
//! component) is recorded as skipped, never silently dropped and never
//! allowed to corrupt the graph.
//!
//! Determinism contract: `inject(adg, plan)` is a pure function of the
//! graph and `plan.seed` — the same inputs produce the same degraded graph
//! and the same report, which is what makes fault-ablation experiments
//! (repair-vs-reschedule under damage) reproducible.
//!
//! # Example
//!
//! ```
//! use dsagen_adg::presets;
//! use dsagen_faults::{inject, FaultKind, FaultPlan};
//!
//! let adg = presets::softbrain();
//! let plan = FaultPlan::new(0xDEAD).with(FaultKind::DeadPe).with(FaultKind::SeveredLink);
//! let (degraded, report) = inject(&adg, &plan);
//! degraded.validate().expect("degraded graphs always validate");
//! assert_eq!(report.applied.len() + report.skipped.len(), 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod schedule;
mod storage;

pub use schedule::{FaultLifetime, FaultSchedule, StormConfig, TimedFault, RUNTIME_KINDS};
pub use storage::{
    corrupt_record_bytes, kill_points, StorageFaultKind, StorageInjector, WriteFault,
};

use std::fmt;

use dsagen_adg::{Adg, EdgeId, NodeId, NodeKind, Routing};
use dsagen_telemetry::{EventData, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One kind of hardware fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// A processing element dies entirely: the node and all its links are
    /// removed from the graph.
    DeadPe,
    /// A point-to-point connection is severed: one edge is removed.
    SeveredLink,
    /// A switch's input selector sticks: its routing matrix collapses so a
    /// single (randomly chosen) input port drives every output.
    StuckSwitch,
    /// A FIFO loses capacity: a sync or delay element's depth is halved
    /// (never below one entry).
    ShrunkFifo,
    /// Port-level: a single *input port* of a node dies — the link feeding
    /// that port is lost while the rest of the node keeps working. Finer
    /// grained than [`FaultKind::DeadPe`]: repair can reroute around the
    /// port instead of decommissioning the whole node.
    DeadPort,
    /// Port-level: one lane of a link sticks at a constant value — data
    /// still moves at full rate but every word crossing the lane is
    /// corrupted (silent corruption, caught by the residue check).
    StuckLane,
    /// Port-level: a link loses bandwidth but keeps working — it serves
    /// only `capacity` percent of cycles (marginal timing, a degraded
    /// SerDes lane). Affected regions throttle instead of stalling.
    DegradedLink {
        /// Percent of cycles the link still serves (clamped to 1..=100).
        capacity: u8,
    },
    /// Config-plane: one bit of one bitstream word flips in flight
    /// (SEU/crosstalk on the configuration network).
    BitFlip,
    /// Config-plane: the delivery stream is cut short — a suffix of frames
    /// never arrives (broadcast aborted mid-flight).
    TruncatedStream,
    /// Config-plane: one frame is delivered twice (retransmission glitch
    /// or a forked path re-merging).
    DuplicatedFrame,
    /// Config-plane: two adjacent frames swap places (out-of-order
    /// delivery across config-path branches).
    ReorderedFrame,
}

impl FaultKind {
    /// The structural (graph-level) fault kinds, in a fixed order (useful
    /// for exhaustive sweeps). Config-plane kinds are listed separately in
    /// [`FaultKind::CONFIG_PLANE`] so seeded structural plans stay stable.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::DeadPe,
        FaultKind::SeveredLink,
        FaultKind::StuckSwitch,
        FaultKind::ShrunkFifo,
    ];

    /// The config-plane fault kinds: they corrupt bitstream *words* in
    /// flight (see [`corrupt_frames`]) rather than the ADG itself.
    pub const CONFIG_PLANE: [FaultKind; 4] = [
        FaultKind::BitFlip,
        FaultKind::TruncatedStream,
        FaultKind::DuplicatedFrame,
        FaultKind::ReorderedFrame,
    ];

    /// Whether this kind targets the configuration plane (bitstream words)
    /// instead of the hardware graph.
    #[must_use]
    pub fn is_config_plane(self) -> bool {
        Self::CONFIG_PLANE.contains(&self)
    }

    /// Which plane this kind attacks, as a telemetry label:
    /// `"structural"` (hardware graph) or `"config"` (bitstream words).
    #[must_use]
    pub(crate) fn plane(self) -> &'static str {
        if self.is_config_plane() {
            "config"
        } else {
            "structural"
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::DeadPe => "dead-pe",
            FaultKind::SeveredLink => "severed-link",
            FaultKind::StuckSwitch => "stuck-switch",
            FaultKind::ShrunkFifo => "shrunk-fifo",
            FaultKind::DeadPort => "dead-port",
            FaultKind::StuckLane => "stuck-lane",
            FaultKind::DegradedLink { capacity } => {
                return write!(f, "degraded-link({capacity}%)");
            }
            FaultKind::BitFlip => "bit-flip",
            FaultKind::TruncatedStream => "truncated-stream",
            FaultKind::DuplicatedFrame => "duplicated-frame",
            FaultKind::ReorderedFrame => "reordered-frame",
        };
        f.write_str(s)
    }
}

/// A seeded, reproducible list of faults to inject.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for target selection. The same seed against the same graph
    /// always picks the same victims.
    pub seed: u64,
    /// Faults to apply, in order.
    pub faults: Vec<FaultKind>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Appends one fault (builder style).
    #[must_use]
    pub fn with(mut self, kind: FaultKind) -> Self {
        self.faults.push(kind);
        self
    }

    /// A plan of `count` faults whose kinds are drawn uniformly from
    /// [`FaultKind::ALL`] using `seed` (the same seed also drives target
    /// selection during [`inject`]).
    #[must_use]
    pub fn random(seed: u64, count: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF417_5EED);
        let faults = (0..count)
            .map(|_| FaultKind::ALL[rng.gen_range(0..FaultKind::ALL.len())])
            .collect();
        FaultPlan { seed, faults }
    }
}

/// The hardware element a fault landed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultTarget {
    /// A node (PE, switch, sync, delay).
    Node(NodeId),
    /// An edge (link).
    Edge(EdgeId),
    /// A bitstream word, by index into the delivered stream (config-plane
    /// faults).
    Word(usize),
}

impl fmt::Display for FaultTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultTarget::Node(n) => write!(f, "{n}"),
            FaultTarget::Edge(e) => write!(f, "{e}"),
            FaultTarget::Word(w) => write!(f, "word[{w}]"),
        }
    }
}

/// One fault that was successfully applied.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectedFault {
    /// What kind of fault.
    pub kind: FaultKind,
    /// Which hardware element it hit.
    pub target: FaultTarget,
    /// Human-readable detail (for example "depth 16 -> 8").
    pub detail: String,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {} ({})", self.kind, self.target, self.detail)
    }
}

/// One fault that could not be applied without breaking the graph's
/// composition rules, recorded instead of silently dropped.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SkippedFault {
    /// What kind of fault was requested.
    pub kind: FaultKind,
    /// Why no viable target existed.
    pub reason: String,
}

impl fmt::Display for SkippedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} skipped: {}", self.kind, self.reason)
    }
}

/// Structured record of an [`inject`] run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultReport {
    /// Faults applied, in plan order.
    pub applied: Vec<InjectedFault>,
    /// Faults skipped (no target survived validate-rollback), in plan order.
    pub skipped: Vec<SkippedFault>,
}

impl FaultReport {
    /// Node ids of every applied node-targeted fault.
    #[must_use]
    pub fn faulted_nodes(&self) -> Vec<NodeId> {
        self.applied
            .iter()
            .filter_map(|f| match f.target {
                FaultTarget::Node(n) => Some(n),
                _ => None,
            })
            .collect()
    }

    /// Edge ids of every applied edge-targeted fault.
    #[must_use]
    pub fn faulted_edges(&self) -> Vec<EdgeId> {
        self.applied
            .iter()
            .filter_map(|f| match f.target {
                FaultTarget::Edge(e) => Some(e),
                _ => None,
            })
            .collect()
    }

    /// Whether anything was applied.
    #[must_use]
    pub fn any_applied(&self) -> bool {
        !self.applied.is_empty()
    }
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} applied, {} skipped",
            self.applied.len(),
            self.skipped.len()
        )?;
        for a in &self.applied {
            write!(f, "; {a}")?;
        }
        for s in &self.skipped {
            write!(f, "; {s}")?;
        }
        Ok(())
    }
}

/// Applies `plan` to `adg`, returning the degraded graph and a report.
///
/// The returned graph **always** passes [`Adg::validate`]: each fault is
/// tried against candidate targets in a seed-determined order and the first
/// application that keeps the graph valid wins; a fault with no valid
/// application is recorded in [`FaultReport::skipped`]. Node and edge ids
/// of surviving hardware are unchanged (the ADG tombstones removed slots),
/// so schedules made against the healthy graph can be repaired against the
/// degraded one.
#[must_use]
pub fn inject(adg: &Adg, plan: &FaultPlan) -> (Adg, FaultReport) {
    inject_with_telemetry(adg, plan, &Telemetry::disabled())
}

/// [`inject`] with structured telemetry: every plan entry emits exactly one
/// `fault` event in plan order — `fault/injected` (args: `kind`, `target`,
/// `plane`, `detail`) when applied, `fault/skipped` (args: `kind`, `plane`,
/// `reason`) when validate-rollback rejected it. The event log is therefore
/// *equivalent to the plan*: one event per requested fault, in order,
/// mirroring [`FaultReport`] exactly. Telemetry never affects the injection
/// itself — `inject_with_telemetry(adg, plan, tel)` returns byte-identical
/// results to `inject(adg, plan)`.
#[must_use]
pub fn inject_with_telemetry(adg: &Adg, plan: &FaultPlan, tel: &Telemetry) -> (Adg, FaultReport) {
    let mut current = adg.clone();
    let mut report = FaultReport::default();
    let mut rng = StdRng::seed_from_u64(plan.seed);
    for &kind in &plan.faults {
        match apply_one(&current, kind, &mut rng) {
            Ok((next, injected)) => {
                current = next;
                emit_injected(tel, &injected);
                report.applied.push(injected);
            }
            Err(reason) => {
                let skipped = SkippedFault { kind, reason };
                emit_skipped(tel, &skipped);
                report.skipped.push(skipped);
            }
        }
    }
    debug_assert!(current.validate().is_ok(), "inject must preserve validity");
    (current, report)
}

/// Emits one `fault/injected` event for an applied fault.
fn emit_injected(tel: &Telemetry, injected: &InjectedFault) {
    tel.emit(|| {
        EventData::new("fault", "injected")
            .arg("kind", injected.kind.to_string())
            .arg("target", injected.target.to_string())
            .arg("plane", injected.kind.plane())
            .arg("detail", injected.detail.clone())
    });
}

/// Emits one `fault/skipped` event for a rolled-back fault.
fn emit_skipped(tel: &Telemetry, skipped: &SkippedFault) {
    tel.emit(|| {
        EventData::new("fault", "skipped")
            .arg("kind", skipped.kind.to_string())
            .arg("plane", skipped.kind.plane())
            .arg("reason", skipped.reason.clone())
    });
}

/// Tries to apply one fault, returning the mutated graph on success.
fn apply_one(adg: &Adg, kind: FaultKind, rng: &mut StdRng) -> Result<(Adg, InjectedFault), String> {
    if kind.is_config_plane() {
        return Err(format!(
            "{kind} is a config-plane fault: it corrupts bitstream words, \
not the hardware graph — use corrupt_stream/corrupt_words/corrupt_frames"
        ));
    }
    match kind {
        FaultKind::DeadPe => {
            let candidates: Vec<NodeId> = adg.pes().collect();
            try_candidates(adg, kind, candidates, rng, |g, pe| {
                let label = g
                    .node(pe)
                    .and_then(|n| n.label.clone())
                    .unwrap_or_else(|| pe.to_string());
                g.remove_node(pe).map_err(|e| e.to_string())?;
                Ok(InjectedFault {
                    kind,
                    target: FaultTarget::Node(pe),
                    detail: format!("removed PE {label} and its links"),
                })
            })
        }
        FaultKind::SeveredLink => {
            // Control links carry commands, not datapath values; severing
            // one usually makes a whole region Unconfigurable, so prefer
            // datapath links (validate-rollback still guards the rest).
            let ctrl = adg.control();
            let candidates: Vec<EdgeId> = adg
                .edges()
                .filter(|e| Some(e.src) != ctrl && Some(e.dst) != ctrl)
                .map(dsagen_adg::Edge::id)
                .collect();
            try_candidates(adg, kind, candidates, rng, |g, eid| {
                let edge = *g.edge(eid).ok_or("edge vanished")?;
                g.remove_edge(eid).map_err(|e| e.to_string())?;
                Ok(InjectedFault {
                    kind,
                    target: FaultTarget::Edge(eid),
                    detail: format!("severed {} -> {}", edge.src, edge.dst),
                })
            })
        }
        FaultKind::StuckSwitch => {
            // Only switches with >1 input can meaningfully stick.
            let candidates: Vec<NodeId> = adg
                .switches()
                .filter(|s| adg.in_edges(*s).count() > 1)
                .collect();
            let stuck_pick = rng.next_u64();
            try_candidates(adg, kind, candidates, rng, move |g, sw| {
                let inputs = g.in_edges(sw).count();
                let outputs = g.out_edges(sw).count().max(1);
                let stuck = (stuck_pick % inputs as u64) as usize;
                let matrix: Vec<Vec<bool>> =
                    (0..inputs).map(|i| vec![i == stuck; outputs]).collect();
                match g.node_mut(sw).map(|n| &mut n.kind) {
                    Some(NodeKind::Switch(spec)) => {
                        spec.routing = Routing::Matrix(matrix);
                        Ok(InjectedFault {
                            kind,
                            target: FaultTarget::Node(sw),
                            detail: format!("input {stuck}/{inputs} stuck to all outputs"),
                        })
                    }
                    _ => Err("candidate is not a switch".to_string()),
                }
            })
        }
        FaultKind::ShrunkFifo => {
            // Syncs and delay FIFOs with depth > 1 can shrink.
            let candidates: Vec<NodeId> = adg
                .nodes()
                .filter(|n| match &n.kind {
                    NodeKind::Sync(sy) => sy.depth > 1,
                    NodeKind::Delay(d) => d.depth > 1,
                    _ => false,
                })
                .map(dsagen_adg::Node::id)
                .collect();
            try_candidates(adg, kind, candidates, rng, |g, node| {
                match g.node_mut(node).map(|n| &mut n.kind) {
                    Some(NodeKind::Sync(sy)) => {
                        let old = sy.depth;
                        sy.depth = (sy.depth / 2).max(1);
                        Ok(InjectedFault {
                            kind,
                            target: FaultTarget::Node(node),
                            detail: format!("sync depth {old} -> {}", sy.depth),
                        })
                    }
                    Some(NodeKind::Delay(d)) => {
                        let old = d.depth;
                        d.depth = (d.depth / 2).max(1);
                        Ok(InjectedFault {
                            kind,
                            target: FaultTarget::Node(node),
                            detail: format!("delay depth {old} -> {}", d.depth),
                        })
                    }
                    _ => Err("candidate is not a FIFO".to_string()),
                }
            })
        }
        FaultKind::DeadPort => {
            // A dead input port loses the one link feeding it. Prefer
            // ports whose owner has alternatives (in-degree > 1), so the
            // node itself stays useful — that is what distinguishes a
            // port fault from a severed link.
            let ctrl = adg.control();
            let candidates: Vec<EdgeId> = adg
                .edges()
                .filter(|e| Some(e.src) != ctrl && Some(e.dst) != ctrl)
                .filter(|e| adg.in_edges(e.dst).count() > 1)
                .map(dsagen_adg::Edge::id)
                .collect();
            try_candidates(adg, kind, candidates, rng, |g, eid| {
                let edge = *g.edge(eid).ok_or("edge vanished")?;
                let port = g.input_port_of(eid).ok_or("port vanished")?;
                g.remove_edge(eid).map_err(|e| e.to_string())?;
                Ok(InjectedFault {
                    kind,
                    target: FaultTarget::Edge(eid),
                    detail: format!(
                        "input port {port} of {} dead (link from {} lost)",
                        edge.dst, edge.src
                    ),
                })
            })
        }
        FaultKind::StuckLane | FaultKind::DegradedLink { .. } => Err(format!(
            "{kind} is a runtime-plane fault: the link still exists \
structurally — use a FaultSchedule and the runtime simulator"
        )),
        // Config-plane kinds were rejected above.
        _ => Err(format!("{kind} has no structural application")),
    }
}

/// Applies the config-plane faults of `plan` to a stream of bitstream
/// words, returning the corrupted stream and a report.
///
/// `frame_len` is the delivery granularity in words: `1` corrupts the raw
/// word stream, `2` matches the CRC-framed transport
/// (`dsagen_hwgen::FRAME_WORDS`). Truncation, duplication, and reordering
/// operate on whole frames; a bit flip lands on a single bit of a single
/// word. Structural kinds in the plan are recorded as skipped (they need a
/// graph, not a stream), as are config-plane kinds the stream is too short
/// to express (for example reordering a one-frame stream).
///
/// Deterministic: the same `(words, frame_len, plan.seed)` always produces
/// the same corruption.
#[must_use]
pub(crate) fn corrupt_stream(
    words: &[u64],
    frame_len: usize,
    plan: &FaultPlan,
) -> (Vec<u64>, FaultReport) {
    corrupt_stream_with_telemetry(words, frame_len, plan, &Telemetry::disabled())
}

/// [`corrupt_stream`] with structured telemetry, under the same
/// log/plan-equivalence contract as [`inject_with_telemetry`]: one
/// `fault/injected` or `fault/skipped` event per plan entry, in order,
/// mirroring the returned [`FaultReport`]. Telemetry never changes the
/// corruption itself.
#[must_use]
pub(crate) fn corrupt_stream_with_telemetry(
    words: &[u64],
    frame_len: usize,
    plan: &FaultPlan,
    tel: &Telemetry,
) -> (Vec<u64>, FaultReport) {
    let frame_len = frame_len.max(1);
    let mut stream: Vec<u64> = words.to_vec();
    let mut report = FaultReport::default();
    let mut rng = StdRng::seed_from_u64(plan.seed ^ 0xB17_F11B);
    for &kind in &plan.faults {
        match corrupt_one(&mut stream, frame_len, kind, &mut rng) {
            Ok(injected) => {
                emit_injected(tel, &injected);
                report.applied.push(injected);
            }
            Err(reason) => {
                let skipped = SkippedFault { kind, reason };
                emit_skipped(tel, &skipped);
                report.skipped.push(skipped);
            }
        }
    }
    (stream, report)
}

/// `corrupt_stream` at CRC-frame granularity (`frame_len = 2`, matching
/// `dsagen_hwgen::FRAME_WORDS`): faults on the framed transport stream.
#[must_use]
pub fn corrupt_frames(words: &[u64], plan: &FaultPlan) -> (Vec<u64>, FaultReport) {
    corrupt_stream(words, 2, plan)
}

/// Applies one config-plane fault to `stream` in place.
fn corrupt_one(
    stream: &mut Vec<u64>,
    frame_len: usize,
    kind: FaultKind,
    rng: &mut StdRng,
) -> Result<InjectedFault, String> {
    if !kind.is_config_plane() {
        return Err(format!(
            "{kind} is a structural fault: it targets the hardware graph, \
not the word stream — use inject"
        ));
    }
    let frames = stream.len() / frame_len;
    match kind {
        FaultKind::BitFlip => {
            if stream.is_empty() {
                return Err("stream is empty: no word to flip".to_string());
            }
            let w = rng.gen_range(0..stream.len());
            let b = rng.gen_range(0..64u32);
            stream[w] ^= 1u64 << b;
            Ok(InjectedFault {
                kind,
                target: FaultTarget::Word(w),
                detail: format!("flipped bit {b} of word {w}"),
            })
        }
        FaultKind::TruncatedStream => {
            if frames < 2 {
                return Err(format!(
                    "stream has {frames} frame(s): truncation would erase it entirely"
                ));
            }
            // Keep at least one frame, drop at least one.
            let keep = rng.gen_range(1..frames);
            let cut_words = keep * frame_len;
            let dropped = stream.len() - cut_words;
            stream.truncate(cut_words);
            Ok(InjectedFault {
                kind,
                target: FaultTarget::Word(cut_words),
                detail: format!(
                    "dropped {dropped} trailing word(s) ({} frame(s))",
                    frames - keep
                ),
            })
        }
        FaultKind::DuplicatedFrame => {
            if frames == 0 {
                return Err("stream has no complete frame to duplicate".to_string());
            }
            let f = rng.gen_range(0..frames);
            let start = f * frame_len;
            let copy: Vec<u64> = stream[start..start + frame_len].to_vec();
            // Insert the copy immediately after the original frame.
            let at = start + frame_len;
            for (i, w) in copy.into_iter().enumerate() {
                stream.insert(at + i, w);
            }
            Ok(InjectedFault {
                kind,
                target: FaultTarget::Word(start),
                detail: format!("duplicated frame {f} ({frame_len} word(s))"),
            })
        }
        FaultKind::ReorderedFrame => {
            if frames < 2 {
                return Err(format!("stream has {frames} frame(s): nothing to reorder"));
            }
            let f = rng.gen_range(0..frames - 1);
            let a = f * frame_len;
            let b = (f + 1) * frame_len;
            for i in 0..frame_len {
                stream.swap(a + i, b + i);
            }
            Ok(InjectedFault {
                kind,
                target: FaultTarget::Word(a),
                detail: format!("swapped frames {f} and {}", f + 1),
            })
        }
        _ => Err(format!("{kind} is not a config-plane fault")),
    }
}

/// Validate-rollback driver: shuffles `candidates` with `rng`, applies
/// `mutate` to a scratch copy per candidate, and returns the first result
/// that still validates. All candidates failing (or none existing) is an
/// `Err` with a reason.
fn try_candidates<T: Copy>(
    adg: &Adg,
    kind: FaultKind,
    mut candidates: Vec<T>,
    rng: &mut StdRng,
    mutate: impl Fn(&mut Adg, T) -> Result<InjectedFault, String>,
) -> Result<(Adg, InjectedFault), String> {
    use rand::seq::SliceRandom;
    if candidates.is_empty() {
        return Err(format!("no viable target for {kind}"));
    }
    candidates.shuffle(rng);
    let mut last_reason = String::new();
    for &cand in &candidates {
        let mut scratch = adg.clone();
        match mutate(&mut scratch, cand) {
            Ok(injected) => match scratch.validate() {
                Ok(()) => return Ok((scratch, injected)),
                Err(e) => last_reason = format!("candidate breaks validation: {e}"),
            },
            Err(e) => last_reason = e,
        }
    }
    Err(format!(
        "all {} candidates for {kind} rolled back ({last_reason})",
        candidates.len()
    ))
}

// `rand`'s RngCore is deliberately minimal; re-expose next_u64 for the
// stuck-input pick above without importing the trait at every call site.
trait NextU64 {
    fn next_u64(&mut self) -> u64;
}
impl NextU64 for StdRng {
    fn next_u64(&mut self) -> u64 {
        <StdRng as rand::RngCore>::next_u64(self)
    }
}

#[cfg(test)]
mod tests {
    use dsagen_adg::presets;

    use super::*;

    impl FaultPlan {
        /// A plan of `count` *config-plane* faults drawn uniformly from
        /// [`FaultKind::CONFIG_PLANE`] using `seed` (the same seed also drives
        /// target selection during [`corrupt_stream`]).
        fn random_config_plane(seed: u64, count: usize) -> Self {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xC0F1_65EE);
            let faults = (0..count)
                .map(|_| FaultKind::CONFIG_PLANE[rng.gen_range(0..FaultKind::CONFIG_PLANE.len())])
                .collect();
            FaultPlan { seed, faults }
        }
    }

    impl FaultReport {
        /// Word indices of every applied config-plane fault.
        fn faulted_words(&self) -> Vec<usize> {
            self.applied
                .iter()
                .filter_map(|f| match f.target {
                    FaultTarget::Word(w) => Some(w),
                    _ => None,
                })
                .collect()
        }
    }

    /// [`corrupt_stream`] at word granularity (`frame_len = 1`): faults on a
    /// raw, unframed bitstream.
    fn corrupt_words(words: &[u64], plan: &FaultPlan) -> (Vec<u64>, FaultReport) {
        corrupt_stream(words, 1, plan)
    }

    fn all_presets() -> Vec<Adg> {
        vec![
            presets::softbrain(),
            presets::maeri(),
            presets::triggered(),
            presets::spu(),
            presets::revel(),
            presets::plasticine(),
            presets::tabla(),
        ]
    }

    #[test]
    fn injection_is_deterministic_given_seed() {
        let adg = presets::softbrain();
        let plan = FaultPlan::random(42, 4);
        let (a1, r1) = inject(&adg, &plan);
        let (a2, r2) = inject(&adg, &plan);
        assert_eq!(a1, a2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn different_seeds_pick_different_victims() {
        let adg = presets::softbrain();
        let hit: Vec<_> = (0..8)
            .map(|s| {
                let plan = FaultPlan::new(s).with(FaultKind::DeadPe);
                let (_, r) = inject(&adg, &plan);
                r.faulted_nodes()
            })
            .collect();
        assert!(
            hit.windows(2).any(|w| w[0] != w[1]),
            "eight seeds never diverged: {hit:?}"
        );
    }

    #[test]
    fn every_fault_kind_keeps_every_preset_valid() {
        for adg in all_presets() {
            for kind in FaultKind::ALL {
                let plan = FaultPlan::new(7).with(kind);
                let (degraded, report) = inject(&adg, &plan);
                degraded
                    .validate()
                    .unwrap_or_else(|e| panic!("{kind} broke {}: {e}", adg.name()));
                assert_eq!(
                    report.applied.len() + report.skipped.len(),
                    1,
                    "{kind} on {} unaccounted",
                    adg.name()
                );
            }
        }
    }

    #[test]
    fn dead_pe_removes_exactly_one_pe() {
        let adg = presets::softbrain();
        let before = adg.pes().count();
        let (degraded, report) = inject(&adg, &FaultPlan::new(3).with(FaultKind::DeadPe));
        assert_eq!(degraded.pes().count(), before - 1);
        assert_eq!(report.faulted_nodes().len(), 1);
    }

    #[test]
    fn severed_link_removes_exactly_one_edge() {
        let adg = presets::softbrain();
        let before = adg.edge_count();
        let (degraded, report) = inject(&adg, &FaultPlan::new(3).with(FaultKind::SeveredLink));
        assert_eq!(degraded.edge_count(), before - 1);
        assert_eq!(report.faulted_edges().len(), 1);
    }

    #[test]
    fn shrunk_fifo_halves_depth() {
        let adg = presets::softbrain();
        let (degraded, report) = inject(&adg, &FaultPlan::new(9).with(FaultKind::ShrunkFifo));
        let [node] = report.faulted_nodes()[..] else {
            panic!("expected one faulted node: {report}");
        };
        let (old_depth, new_depth) = match (
            adg.node(node).map(|n| &n.kind),
            degraded.node(node).map(|n| &n.kind),
        ) {
            (Some(NodeKind::Sync(a)), Some(NodeKind::Sync(b))) => {
                (u32::from(a.depth), u32::from(b.depth))
            }
            (Some(NodeKind::Delay(a)), Some(NodeKind::Delay(b))) => {
                (u32::from(a.depth), u32::from(b.depth))
            }
            other => panic!("fifo fault hit a non-fifo: {other:?}"),
        };
        assert_eq!(new_depth, (old_depth / 2).max(1));
    }

    #[test]
    fn stuck_switch_restricts_routing() {
        let adg = presets::softbrain();
        let (degraded, report) = inject(&adg, &FaultPlan::new(5).with(FaultKind::StuckSwitch));
        let [node] = report.faulted_nodes()[..] else {
            panic!("expected one faulted switch: {report}");
        };
        match degraded.node(node).map(|n| &n.kind) {
            Some(NodeKind::Switch(sw)) => {
                let inputs = degraded.in_edges(node).count();
                let live: usize = (0..inputs).filter(|&i| sw.routing.allows(i, 0)).count();
                assert_eq!(live, 1, "exactly one input should survive");
            }
            other => panic!("stuck-switch hit a non-switch: {other:?}"),
        }
    }

    #[test]
    fn dead_port_removes_one_link_and_keeps_the_node() {
        let adg = presets::softbrain();
        let before = adg.edge_count();
        let (degraded, report) = inject(&adg, &FaultPlan::new(4).with(FaultKind::DeadPort));
        assert_eq!(degraded.edge_count(), before - 1, "{report}");
        let [edge] = report.faulted_edges()[..] else {
            panic!("expected one faulted edge: {report}");
        };
        let victim = adg.edge(edge).expect("edge existed pre-fault");
        // The port's owner survives: only the link feeding it is gone.
        assert!(degraded.node(victim.dst).is_some(), "owner decommissioned");
        assert!(degraded.node(victim.src).is_some(), "driver decommissioned");
        assert!(
            degraded.in_edges(victim.dst).count() >= 1,
            "dead-port must prefer nodes with surviving ports"
        );
    }

    #[test]
    fn runtime_plane_port_kinds_skip_statically() {
        let adg = presets::softbrain();
        for kind in [
            FaultKind::StuckLane,
            FaultKind::DegradedLink { capacity: 40 },
        ] {
            let (degraded, report) = inject(&adg, &FaultPlan::new(1).with(kind));
            assert_eq!(degraded, adg, "{kind} must not touch the graph");
            assert_eq!(report.skipped.len(), 1, "{report}");
            assert!(
                report.skipped[0].reason.contains("runtime-plane"),
                "{report}"
            );
        }
    }

    #[test]
    fn degraded_link_display_carries_capacity() {
        assert_eq!(
            FaultKind::DegradedLink { capacity: 35 }.to_string(),
            "degraded-link(35%)"
        );
        assert_eq!(FaultKind::DeadPort.to_string(), "dead-port");
        assert_eq!(FaultKind::StuckLane.to_string(), "stuck-lane");
    }

    #[test]
    fn impossible_faults_are_skipped_not_dropped() {
        // A minimal tree-shaped graph: no switch to stick, only depth-1
        // FIFOs, and every datapath edge is a cut edge whose removal
        // orphans a component from the control core.
        use dsagen_adg::{CtrlSpec, MemSpec, OpSet, PeSpec, Scheduling, Sharing, SyncSpec};
        let mut adg = Adg::new("minimal");
        let ctrl = adg.add_control(CtrlSpec::new());
        let mem = adg.add_memory(MemSpec::main_memory());
        let inp = adg.add_sync(SyncSpec::new(1));
        let pe = adg.add_pe(PeSpec::new(
            Scheduling::Static,
            Sharing::Dedicated,
            OpSet::integer_alu(),
        ));
        adg.add_link(mem, inp).unwrap();
        adg.add_link(inp, pe).unwrap();
        adg.add_link(ctrl, mem).unwrap();
        adg.validate().unwrap();

        let plan = FaultPlan::new(1)
            .with(FaultKind::StuckSwitch)
            .with(FaultKind::ShrunkFifo)
            .with(FaultKind::SeveredLink);
        let (degraded, report) = inject(&adg, &plan);
        degraded.validate().unwrap();
        // No switches, depth-1 FIFOs, and every datapath edge is a cut
        // edge whose removal orphans a component -> all three skip.
        assert_eq!(report.applied.len(), 0, "{report}");
        assert_eq!(report.skipped.len(), 3, "{report}");
    }

    #[test]
    fn surviving_ids_are_stable() {
        let adg = presets::softbrain();
        let (degraded, report) = inject(&adg, &FaultPlan::new(11).with(FaultKind::DeadPe));
        let dead = report.faulted_nodes()[0];
        for node in adg.nodes() {
            if node.id() == dead {
                assert!(degraded.node(node.id()).is_none());
            } else {
                assert_eq!(
                    degraded.node(node.id()).map(|n| &n.kind),
                    Some(&node.kind),
                    "surviving node {} changed",
                    node.id()
                );
            }
        }
    }

    #[test]
    fn random_plan_is_reproducible() {
        assert_eq!(FaultPlan::random(99, 6), FaultPlan::random(99, 6));
        assert_eq!(FaultPlan::random(99, 6).faults.len(), 6);
    }

    #[test]
    fn display_summarizes_report() {
        let adg = presets::softbrain();
        let (_, report) = inject(&adg, &FaultPlan::new(2).with(FaultKind::DeadPe));
        let s = report.to_string();
        assert!(s.contains("1 applied"), "{s}");
        assert!(s.contains("dead-pe"), "{s}");
    }

    // ---- config-plane injectors ----------------------------------------

    fn sample_stream(n: usize) -> Vec<u64> {
        (0..n as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect()
    }

    #[test]
    fn config_plane_kinds_are_partitioned_from_structural() {
        for kind in FaultKind::ALL {
            assert!(!kind.is_config_plane(), "{kind} misclassified");
        }
        for kind in FaultKind::CONFIG_PLANE {
            assert!(kind.is_config_plane(), "{kind} misclassified");
        }
    }

    #[test]
    fn config_plane_faults_skip_on_graphs() {
        let adg = presets::softbrain();
        for kind in FaultKind::CONFIG_PLANE {
            let (degraded, report) = inject(&adg, &FaultPlan::new(1).with(kind));
            assert_eq!(degraded, adg, "{kind} must not touch the graph");
            assert_eq!(report.applied.len(), 0, "{report}");
            assert_eq!(report.skipped.len(), 1, "{report}");
        }
    }

    #[test]
    fn structural_faults_skip_on_streams() {
        let words = sample_stream(8);
        for kind in FaultKind::ALL {
            let (out, report) = corrupt_words(&words, &FaultPlan::new(1).with(kind));
            assert_eq!(out, words, "{kind} must not touch the stream");
            assert_eq!(report.skipped.len(), 1, "{report}");
        }
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let words = sample_stream(16);
        let (out, report) = corrupt_words(&words, &FaultPlan::new(5).with(FaultKind::BitFlip));
        assert_eq!(out.len(), words.len());
        let flipped: u32 = words
            .iter()
            .zip(&out)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1, "{report}");
        assert_eq!(report.faulted_words().len(), 1);
    }

    #[test]
    fn truncation_drops_whole_frames_and_keeps_a_prefix() {
        let words = sample_stream(12); // 6 frames of 2
        let (out, report) =
            corrupt_frames(&words, &FaultPlan::new(7).with(FaultKind::TruncatedStream));
        assert!(out.len() < words.len(), "{report}");
        assert_eq!(out.len() % 2, 0, "must cut on a frame boundary");
        assert_eq!(&words[..out.len()], &out[..], "prefix must be intact");
    }

    #[test]
    fn duplication_inserts_one_frame_copy() {
        let words = sample_stream(10);
        let (out, report) =
            corrupt_frames(&words, &FaultPlan::new(3).with(FaultKind::DuplicatedFrame));
        assert_eq!(out.len(), words.len() + 2, "{report}");
        let [start] = report.faulted_words()[..] else {
            panic!("expected one word target: {report}");
        };
        assert_eq!(&out[start..start + 2], &out[start + 2..start + 4]);
    }

    #[test]
    fn reordering_swaps_adjacent_frames() {
        let words = sample_stream(10);
        let (out, report) =
            corrupt_frames(&words, &FaultPlan::new(9).with(FaultKind::ReorderedFrame));
        assert_eq!(out.len(), words.len(), "{report}");
        assert_ne!(out, words);
        let mut sorted_a = words.clone();
        let mut sorted_b = out.clone();
        sorted_a.sort_unstable();
        sorted_b.sort_unstable();
        assert_eq!(sorted_a, sorted_b, "reorder must be a permutation");
    }

    #[test]
    fn short_streams_skip_with_typed_reason() {
        // One frame: nothing to truncate or reorder.
        let words = sample_stream(2);
        for kind in [FaultKind::TruncatedStream, FaultKind::ReorderedFrame] {
            let (out, report) = corrupt_frames(&words, &FaultPlan::new(1).with(kind));
            assert_eq!(out, words);
            assert_eq!(report.skipped.len(), 1, "{report}");
        }
        // Empty stream: even a bit flip skips.
        let (out, report) = corrupt_words(&[], &FaultPlan::new(1).with(FaultKind::BitFlip));
        assert!(out.is_empty());
        assert_eq!(report.skipped.len(), 1, "{report}");
    }

    // ---- telemetry --------------------------------------------------------

    /// The `(name, kind)` pairs of every `fault` event in a log, in
    /// emission order.
    fn fault_log(tel: &Telemetry) -> Vec<(String, String)> {
        tel.events()
            .iter()
            .filter(|e| e.cat == "fault")
            .map(|e| {
                let kind = e
                    .args
                    .iter()
                    .find(|(k, _)| *k == "kind")
                    .map(|(_, v)| v.to_string())
                    .unwrap_or_default();
                (e.name.clone(), kind.trim_matches('"').to_string())
            })
            .collect()
    }

    /// Asserts log/plan (and log/report) equivalence: one `fault` event
    /// per plan entry, kinds in plan order, and the injected/skipped
    /// subsequences matching the report's applied/skipped lists exactly.
    fn assert_log_matches(log: &[(String, String)], plan: &FaultPlan, report: &FaultReport) {
        assert_eq!(log.len(), plan.faults.len(), "{report}");
        for (i, (_, kind)) in log.iter().enumerate() {
            assert_eq!(kind, &plan.faults[i].to_string(), "event {i} kind");
        }
        let injected: Vec<&String> = log
            .iter()
            .filter(|(n, _)| n == "injected")
            .map(|(_, k)| k)
            .collect();
        let skipped: Vec<&String> = log
            .iter()
            .filter(|(n, _)| n == "skipped")
            .map(|(_, k)| k)
            .collect();
        let applied_kinds: Vec<String> =
            report.applied.iter().map(|a| a.kind.to_string()).collect();
        let skipped_kinds: Vec<String> =
            report.skipped.iter().map(|s| s.kind.to_string()).collect();
        assert_eq!(
            injected,
            applied_kinds.iter().collect::<Vec<_>>(),
            "{report}"
        );
        assert_eq!(
            skipped,
            skipped_kinds.iter().collect::<Vec<_>>(),
            "{report}"
        );
    }

    #[test]
    fn telemetry_log_is_equivalent_to_plan() {
        let adg = presets::softbrain();
        for seed in 0..4u64 {
            let plan = FaultPlan::random(seed, 5);
            let tel = Telemetry::in_memory();
            let (degraded, report) = inject_with_telemetry(&adg, &plan, &tel);
            // Telemetry is invisible: identical results to the plain call.
            let (plain, plain_report) = inject(&adg, &plan);
            assert_eq!(degraded, plain);
            assert_eq!(report, plain_report);
            // Log/plan equivalence: one event per plan entry, in order,
            // kinds matching the plan exactly.
            assert_log_matches(&fault_log(&tel), &plan, &report);
        }
    }

    #[test]
    fn stream_corruption_telemetry_log_is_equivalent_to_plan() {
        let words = sample_stream(12);
        let plan = FaultPlan::random_config_plane(0xFACE, 4);
        let tel = Telemetry::in_memory();
        let (stream, report) = corrupt_stream_with_telemetry(&words, 2, &plan, &tel);
        let (plain, plain_report) = corrupt_frames(&words, &plan);
        assert_eq!(stream, plain);
        assert_eq!(report, plain_report);
        assert_log_matches(&fault_log(&tel), &plan, &report);
    }

    #[test]
    fn stream_corruption_is_deterministic() {
        let words = sample_stream(20);
        let plan = FaultPlan::random_config_plane(0xABC, 5);
        assert_eq!(plan.faults.len(), 5);
        assert!(plan.faults.iter().all(|k| k.is_config_plane()));
        let (a, ra) = corrupt_frames(&words, &plan);
        let (b, rb) = corrupt_frames(&words, &plan);
        assert_eq!(a, b);
        assert_eq!(ra, rb);
    }
}
