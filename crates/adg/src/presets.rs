//! Preset ADG topologies, including the five accelerators the paper
//! instantiates (§VII) and the DSE starting points (§VIII-B).
//!
//! All presets share a decoupled skeleton: a control core, a main-memory
//! (L2) interface, a scratchpad, input/output synchronization elements
//! (vector ports), and a spatial fabric of PEs and switches.

use crate::{
    Adg, BitWidth, CtrlSpec, DelaySpec, MemControllers, MemSpec, NodeId, OpSet, PeSpec, Scheduling,
    Sharing, SwitchSpec, SyncSpec,
};

/// Configuration for [`mesh`], the generic mesh-fabric builder.
#[derive(Debug, Clone)]
pub struct MeshConfig {
    /// Display name of the resulting graph.
    pub name: String,
    /// Rows of PEs (and switches).
    pub rows: usize,
    /// Columns of PEs (and switches).
    pub cols: usize,
    /// The PE spec replicated across the fabric.
    pub pe: PeSpec,
    /// The switch spec replicated across the fabric.
    pub switch: SwitchSpec,
    /// Number of input vector ports (sync elements fed by memories).
    pub input_ports: usize,
    /// Number of output vector ports.
    pub output_ports: usize,
    /// Lanes per vector port.
    pub port_lanes: u8,
    /// Sync-element FIFO depth.
    pub sync_depth: u16,
    /// Scratchpad spec.
    pub scratchpad: MemSpec,
    /// Per-PE-input delay-FIFO depth (0 = no delay elements; static fabrics
    /// need them for pipeline balancing, §III-B).
    pub delay_depth: u8,
}

impl MeshConfig {
    /// A rows×cols mesh of the given PE around 64-bit crossbar switches,
    /// eight vector ports in, four out, and a 16 KiB unbanked scratchpad.
    /// (Stream-dataflow designs are port-rich: every concurrent stream
    /// needs its own synchronization element.)
    #[must_use]
    pub fn new(name: impl Into<String>, rows: usize, cols: usize, pe: PeSpec) -> Self {
        MeshConfig {
            name: name.into(),
            rows,
            cols,
            pe,
            switch: SwitchSpec::new(BitWidth::B64),
            input_ports: 12,
            output_ports: 6,
            port_lanes: 4,
            sync_depth: 16,
            scratchpad: MemSpec::scratchpad(16 << 10, 64),
            delay_depth: 4,
        }
    }
}

/// Builds the shared decoupled skeleton and returns
/// `(adg, main_memory, scratchpad, input_syncs, output_syncs)`.
fn skeleton(
    name: &str,
    scratchpad: MemSpec,
    input_ports: usize,
    output_ports: usize,
    port_lanes: u8,
    sync_depth: u16,
) -> (Adg, NodeId, NodeId, Vec<NodeId>, Vec<NodeId>) {
    let mut adg = Adg::new(name);
    let ctrl = adg.add_labeled(crate::NodeKind::Control(CtrlSpec::new()), "ctrl");
    let main = adg.add_labeled(crate::NodeKind::Memory(MemSpec::main_memory()), "L2");
    let spad = adg.add_labeled(crate::NodeKind::Memory(scratchpad), "spad");
    adg.add_link(ctrl, main).expect("fresh nodes");
    adg.add_link(ctrl, spad).expect("fresh nodes");

    let mut inputs = Vec::with_capacity(input_ports);
    for i in 0..input_ports {
        let sy = adg.add_labeled(
            crate::NodeKind::Sync(SyncSpec::new(sync_depth).with_lanes(port_lanes)),
            format!("in{i}"),
        );
        // Every input port can be fed by either memory; the scheduler picks.
        adg.add_link(main, sy).expect("fresh nodes");
        adg.add_link(spad, sy).expect("fresh nodes");
        inputs.push(sy);
    }
    let mut outputs = Vec::with_capacity(output_ports);
    for i in 0..output_ports {
        let sy = adg.add_labeled(
            crate::NodeKind::Sync(SyncSpec::new(sync_depth).with_lanes(port_lanes)),
            format!("out{i}"),
        );
        adg.add_link(sy, main).expect("fresh nodes");
        adg.add_link(sy, spad).expect("fresh nodes");
        outputs.push(sy);
    }
    (adg, main, spad, inputs, outputs)
}

/// Builds a generic mesh-fabric accelerator.
///
/// The fabric is a `rows`×`cols` grid of switches with 4-neighbor
/// bidirectional links; each grid point also carries one PE that reads from
/// its own switch and its east/south neighbors (through per-input delay
/// FIFOs when `delay_depth > 0`) and writes to its south neighbor's switch.
/// Input ports feed the top switch row; the bottom row feeds output ports.
#[must_use]
pub fn mesh(cfg: &MeshConfig) -> Adg {
    let (mut adg, _main, _spad, inputs, outputs) = skeleton(
        &cfg.name,
        cfg.scratchpad,
        cfg.input_ports,
        cfg.output_ports,
        cfg.port_lanes,
        cfg.sync_depth,
    );

    let (rows, cols) = (cfg.rows, cfg.cols);
    let mut switches = vec![vec![NodeId::from_index(0); cols]; rows];
    for (r, row) in switches.iter_mut().enumerate() {
        for (c, slot) in row.iter_mut().enumerate() {
            *slot = adg.add_labeled(
                crate::NodeKind::Switch(cfg.switch.clone()),
                format!("sw{r}_{c}"),
            );
        }
    }
    // 4-neighbor bidirectional switch links.
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                adg.add_link(switches[r][c], switches[r][c + 1]).unwrap();
                adg.add_link(switches[r][c + 1], switches[r][c]).unwrap();
            }
            if r + 1 < rows {
                adg.add_link(switches[r][c], switches[r + 1][c]).unwrap();
                adg.add_link(switches[r + 1][c], switches[r][c]).unwrap();
            }
        }
    }
    // PEs.
    for r in 0..rows {
        for c in 0..cols {
            let pe = adg.add_labeled(crate::NodeKind::Pe(cfg.pe.clone()), format!("pe{r}_{c}"));
            let own = switches[r][c];
            let east = switches[r][(c + 1) % cols];
            let south = switches[(r + 1) % rows][c];
            // Three operand inputs (Select/MAC need 3).
            for src in [own, east, south] {
                if cfg.delay_depth > 0 && !cfg.pe.scheduling.is_dynamic() {
                    let d = adg.add_delay(DelaySpec::new(cfg.delay_depth));
                    adg.add_link(src, d).unwrap();
                    adg.add_link(d, pe).unwrap();
                } else {
                    adg.add_link(src, pe).unwrap();
                }
            }
            adg.add_link(pe, south).unwrap();
            adg.add_link(pe, own).unwrap();
        }
    }
    // Vector ports onto the fabric edges. Ports are wide (multi-lane), so
    // each connects to several top/bottom-row switches — one physical link
    // per lane group, like Softbrain's wide vector ports.
    let fan = cols.min(usize::from(cfg.port_lanes)).max(1);
    for (i, sy) in inputs.iter().enumerate() {
        for k in 0..fan {
            adg.add_link(*sy, switches[0][(i + k) % cols]).unwrap();
        }
    }
    for (i, sy) in outputs.iter().enumerate() {
        for k in 0..fan {
            adg.add_link(switches[rows - 1][(i + k) % cols], *sy)
                .unwrap();
        }
    }
    adg
}

/// Softbrain (Nowatzki et al., ISCA 2017): a 5×5 mesh of statically-
/// scheduled, dedicated PEs and switches with a single non-banked
/// scratchpad (§VII).
#[must_use]
pub fn softbrain() -> Adg {
    let pe = PeSpec::new(
        Scheduling::Static,
        Sharing::Dedicated,
        OpSet::integer_alu()
            .union(OpSet::integer_mul())
            .union(OpSet::floating_point()),
    );
    mesh(&MeshConfig::new("softbrain", 5, 5, pe))
}

/// MAERI (Kwon et al., ASPLOS 2018), approximated "similarly to Softbrain,
/// but with its novel tree-based topology" (§VII): a distribute tree of
/// switches fanning out to leaf multiplier PEs, whose results merge through
/// a reduce tree of adder PEs.
#[must_use]
pub fn maeri() -> Adg {
    let depth = 4usize; // 16 leaf multipliers + 15 reduce adders
    let leaves = 1usize << depth;
    let (mut adg, _main, _spad, inputs, outputs) =
        skeleton("maeri", MemSpec::scratchpad(16 << 10, 64), 8, 3, 8, 16);

    // Distribute tree: root switch at level 0 down to `leaves` switches.
    // MAERI's fat links are bidirectional (partial sums flow back up).
    let mut level = vec![adg.add_labeled(
        crate::NodeKind::Switch(SwitchSpec::new(BitWidth::B64)),
        "dist0",
    )];
    let mut all_levels = vec![level.clone()];
    for d in 1..=depth {
        let mut next = Vec::with_capacity(1 << d);
        for (i, parent) in level.iter().enumerate() {
            for side in 0..2 {
                let sw = adg.add_labeled(
                    crate::NodeKind::Switch(SwitchSpec::new(BitWidth::B64)),
                    format!("dist{d}_{}", i * 2 + side),
                );
                // MAERI's distribution tree is *fat* toward the root: the
                // top levels carry one link per downstream leaf group.
                let fatness = (depth - d + 1).min(2);
                for _ in 0..fatness {
                    adg.add_link(*parent, sw).unwrap();
                }
                adg.add_link(sw, *parent).unwrap();
                next.push(sw);
            }
        }
        // MAERI's chubby-tree style lateral links at each level.
        for w in next.windows(2) {
            adg.add_link(w[0], w[1]).unwrap();
            adg.add_link(w[1], w[0]).unwrap();
        }
        level = next;
        all_levels.push(level.clone());
    }
    // Input ports enter the distribution network at staggered levels, so
    // concurrent streams do not all contend for the root's links.
    for (i, sy) in inputs.iter().enumerate() {
        let lvl = &all_levels[(i % 2) + 1];
        adg.add_link(*sy, lvl[i % lvl.len()]).unwrap();
        adg.add_link(*sy, all_levels[0][0]).unwrap();
    }

    // Leaf PEs (multipliers + general ALU so other kernels can map).
    let leaf_ops = OpSet::integer_alu()
        .union(OpSet::integer_mul())
        .union(OpSet::floating_point());
    let mut pes = Vec::with_capacity(leaves);
    for (i, sw) in level.iter().enumerate() {
        let pe = adg.add_labeled(
            crate::NodeKind::Pe(PeSpec::new(
                Scheduling::Static,
                Sharing::Dedicated,
                leaf_ops,
            )),
            format!("mult{i}"),
        );
        // Operands from the leaf switch (twice) and its lateral neighbor;
        // results can re-enter the network at the leaf switch.
        adg.add_link(*sw, pe).unwrap();
        adg.add_link(*sw, pe).unwrap();
        let lateral = level[(i + 1) % leaves];
        adg.add_link(lateral, pe).unwrap();
        adg.add_link(pe, *sw).unwrap();
        pes.push(pe);
    }

    // Augmented-reduction tree of adder PEs: besides the hard-wired child
    // links, every adder also taps the switch fabric so partial sums can be
    // forwarded flexibly (MAERI's augmented links).
    let mut frontier = pes;
    let mut lvl = 0;
    while frontier.len() > 1 {
        let mut next = Vec::with_capacity(frontier.len() / 2);
        for (i, pair) in frontier.chunks(2).enumerate() {
            let add = adg.add_labeled(
                crate::NodeKind::Pe(PeSpec::new(
                    Scheduling::Static,
                    Sharing::Dedicated,
                    leaf_ops,
                )),
                format!("red{lvl}_{i}"),
            );
            for p in pair {
                adg.add_link(*p, add).unwrap();
            }
            // Augmented links: operand from / result to the nearest leaf
            // switch, so reductions of any shape can route.
            let near = level[(i * 2) % leaves];
            adg.add_link(near, add).unwrap();
            adg.add_link(add, near).unwrap();
            next.push(add);
        }
        frontier = next;
        lvl += 1;
    }
    adg.add_link(frontier[0], outputs[0]).unwrap();
    // Output ports also collect from the leaf-switch fabric (partial
    // results and non-reduction traffic).
    for sy in &outputs {
        adg.add_link(level[0], *sy).unwrap();
    }
    adg
}

/// Triggered Instructions (Parashar et al., ISCA 2013), approximated with a
/// mesh of dynamically-scheduled shared (temporal) PEs whose groups share a
/// decoupled scratchpad (§VII).
#[must_use]
pub fn triggered() -> Adg {
    let pe = PeSpec::new(
        Scheduling::Dynamic,
        Sharing::Shared {
            max_instructions: 16,
        },
        OpSet::integer_alu()
            .union(OpSet::integer_mul())
            .union(OpSet::floating_point()),
    )
    .with_stream_join(true);
    let mut cfg = MeshConfig::new("triggered", 4, 4, pe);
    cfg.switch = SwitchSpec::new(BitWidth::B64).with_scheduling(Scheduling::Dynamic);
    cfg.delay_depth = 0; // dynamic fabrics self-balance via flow control
    mesh(&cfg)
}

/// SPU (Dadu & Nowatzki, MICRO 2019): dynamically-scheduled dedicated PEs
/// with stream-join support and a banked scratchpad with indirect and
/// atomic-update controllers (§VII).
#[must_use]
pub fn spu() -> Adg {
    let pe = PeSpec::new(
        Scheduling::Dynamic,
        Sharing::Dedicated,
        OpSet::integer_alu()
            .union(OpSet::integer_mul())
            .union(OpSet::floating_point()),
    )
    .with_stream_join(true);
    let mut cfg = MeshConfig::new("spu", 4, 4, pe);
    cfg.switch = SwitchSpec::new(BitWidth::B64).with_scheduling(Scheduling::Dynamic);
    cfg.scratchpad = MemSpec::scratchpad(16 << 10, 64)
        .with_banks(8)
        .with_controllers(MemControllers::full());
    cfg.delay_depth = 0;
    mesh(&cfg)
}

/// REVEL (Weng et al., HPCA 2019): composes statically-scheduled and
/// dynamically-scheduled PEs in one mesh, communicating through
/// synchronization elements (§VII). The top two rows are systolic (static,
/// dedicated); the bottom rows are tagged-dataflow (dynamic, shared).
#[must_use]
pub fn revel() -> Adg {
    let static_pe = PeSpec::new(
        Scheduling::Static,
        Sharing::Dedicated,
        OpSet::integer_alu()
            .union(OpSet::integer_mul())
            .union(OpSet::floating_point()),
    );
    let cfg = MeshConfig::new("revel", 4, 4, static_pe);
    let mut adg = mesh(&cfg);

    // Replace the bottom two rows' PEs with dynamic shared PEs by mutating
    // specs in place (the mesh builder labels PEs "pe{r}_{c}").
    let dynamic_pe = PeSpec::new(
        Scheduling::Dynamic,
        Sharing::Shared {
            max_instructions: 8,
        },
        OpSet::integer_alu()
            .union(OpSet::integer_mul())
            .union(OpSet::floating_point()),
    )
    .with_stream_join(true);
    let targets: Vec<NodeId> = adg
        .nodes()
        .filter(|n| {
            n.label
                .as_deref()
                .is_some_and(|l| l.starts_with("pe2_") || l.starts_with("pe3_"))
        })
        .map(|n| n.id())
        .collect();
    for id in targets.clone() {
        if let Some(node) = adg.node_mut(id) {
            node.kind = crate::NodeKind::Pe(dynamic_pe.clone());
        }
    }
    // The dataflow half's network must be dynamically scheduled too: flip
    // its switches and the delay FIFOs feeding the mutated PEs, or the
    // composition rules (§III-B) wall the halves off entirely.
    let dyn_switches: Vec<NodeId> = adg
        .nodes()
        .filter(|n| {
            n.label
                .as_deref()
                .is_some_and(|l| l.starts_with("sw2_") || l.starts_with("sw3_"))
        })
        .map(|n| n.id())
        .collect();
    for id in dyn_switches {
        if let Some(node) = adg.node_mut(id) {
            if let crate::NodeKind::Switch(sw) = &mut node.kind {
                sw.scheduling = Scheduling::Dynamic;
            }
        }
    }
    let dyn_delays: Vec<NodeId> = targets
        .iter()
        .flat_map(|pe| adg.predecessors(*pe).collect::<Vec<_>>())
        .filter(|n| matches!(adg.kind(*n), Ok(crate::NodeKind::Delay(_))))
        .collect();
    for id in dyn_delays {
        if let Some(node) = adg.node_mut(id) {
            if let crate::NodeKind::Delay(d) = &mut node.kind {
                d.scheduling = Scheduling::Dynamic;
            }
        }
    }
    // Internal sync elements let the static and dynamic halves communicate
    // legally (§III-B). One per column, bridging row 1 → row 2.
    let switch_row1: Vec<NodeId> = (0..cfg.cols)
        .filter_map(|c| {
            adg.nodes()
                .find(|n| n.label.as_deref() == Some(&format!("sw1_{c}")))
                .map(|n| n.id())
        })
        .collect();
    let switch_row2: Vec<NodeId> = (0..cfg.cols)
        .filter_map(|c| {
            adg.nodes()
                .find(|n| n.label.as_deref() == Some(&format!("sw2_{c}")))
                .map(|n| n.id())
        })
        .collect();
    for (c, (up, down)) in switch_row1.iter().zip(&switch_row2).enumerate() {
        // Downward bridge: systolic half → dataflow half.
        let sy = adg.add_labeled(
            crate::NodeKind::Sync(SyncSpec::new(16).with_lanes(1)),
            format!("bridge{c}"),
        );
        adg.add_link(*up, sy).unwrap();
        adg.add_link(sy, *down).unwrap();
        // Upward bridge: dataflow results re-enter the systolic half with
        // statically-coordinated release timing.
        let sy_up = adg.add_labeled(
            crate::NodeKind::Sync(SyncSpec::new(16).with_lanes(1)),
            format!("bridge_up{c}"),
        );
        adg.add_link(*down, sy_up).unwrap();
        adg.add_link(sy_up, *up).unwrap();
    }
    adg.set_name("revel");
    adg
}

/// CCA (Clark et al., MICRO 2004): a small feed-forward triangle of
/// dedicated static PEs with minimal switching — "the fewest switches, but
/// only limited flexibility" (§III-C, Fig 4b).
#[must_use]
pub fn cca() -> Adg {
    let (mut adg, _main, _spad, inputs, outputs) =
        skeleton("cca", MemSpec::scratchpad(8 << 10, 32), 2, 1, 4, 8);
    let ops = OpSet::integer_alu().union(OpSet::integer_mul());
    let widths = [4usize, 2, 1];
    let mut prev: Vec<NodeId> = Vec::new();
    let mut entry_switch = None;
    for (lvl, &w) in widths.iter().enumerate() {
        let mut this = Vec::with_capacity(w);
        for i in 0..w {
            let pe = adg.add_labeled(
                crate::NodeKind::Pe(PeSpec::new(Scheduling::Static, Sharing::Dedicated, ops)),
                format!("cca{lvl}_{i}"),
            );
            this.push(pe);
        }
        if lvl == 0 {
            // One shared entry switch fans inputs out to the first level.
            let sw = adg.add_labeled(
                crate::NodeKind::Switch(SwitchSpec::new(BitWidth::B32)),
                "entry",
            );
            for sy in &inputs {
                adg.add_link(*sy, sw).unwrap();
            }
            for pe in &this {
                adg.add_link(sw, *pe).unwrap();
                adg.add_link(sw, *pe).unwrap(); // two operand links
            }
            entry_switch = Some(sw);
        } else {
            for (i, pe) in this.iter().enumerate() {
                adg.add_link(prev[2 * i], *pe).unwrap();
                adg.add_link(prev[2 * i + 1], *pe).unwrap();
                if let Some(sw) = entry_switch {
                    adg.add_link(sw, *pe).unwrap(); // bypass operand
                }
            }
        }
        prev = this;
    }
    adg.add_link(prev[0], outputs[0]).unwrap();
    adg
}

/// A DianNao-like fixed-function topology (Chen et al., ASPLOS 2014):
/// "two scratchpads and static-scheduled, dedicated PEs with a binary-tree
/// interconnect" (§III-C), used as the domain-specific reference for the
/// DenseNN workload set.
#[must_use]
pub fn diannao_tree() -> Adg {
    let mut adg = Adg::new("diannao");
    let ctrl = adg.add_labeled(crate::NodeKind::Control(CtrlSpec::new()), "ctrl");
    let nbin = adg.add_labeled(
        crate::NodeKind::Memory(MemSpec::scratchpad(8 << 10, 64)),
        "nbin",
    );
    let sb = adg.add_labeled(
        crate::NodeKind::Memory(MemSpec::scratchpad(32 << 10, 64)),
        "sb",
    );
    let nbout = adg.add_labeled(
        crate::NodeKind::Memory(MemSpec::scratchpad(8 << 10, 64)),
        "nbout",
    );
    adg.add_link(ctrl, nbin).unwrap();
    adg.add_link(ctrl, sb).unwrap();
    adg.add_link(ctrl, nbout).unwrap();

    let lanes = 8usize;
    let in_a = adg.add_labeled(
        crate::NodeKind::Sync(SyncSpec::new(16).with_lanes(lanes as u8)),
        "in_neuron",
    );
    let in_b = adg.add_labeled(
        crate::NodeKind::Sync(SyncSpec::new(16).with_lanes(lanes as u8)),
        "in_synapse",
    );
    let out = adg.add_labeled(
        crate::NodeKind::Sync(SyncSpec::new(16).with_lanes(1)),
        "out",
    );
    adg.add_link(nbin, in_a).unwrap();
    adg.add_link(sb, in_b).unwrap();
    adg.add_link(out, nbout).unwrap();

    let ops = OpSet::integer_alu()
        .union(OpSet::integer_mul())
        .union(OpSet::floating_point());
    // Multiplier layer.
    let mut frontier = Vec::with_capacity(lanes);
    for i in 0..lanes {
        let pe = adg.add_labeled(
            crate::NodeKind::Pe(PeSpec::new(Scheduling::Static, Sharing::Dedicated, ops)),
            format!("nfu1_{i}"),
        );
        adg.add_link(in_a, pe).unwrap();
        adg.add_link(in_b, pe).unwrap();
        frontier.push(pe);
    }
    // Adder tree.
    let mut lvl = 0;
    while frontier.len() > 1 {
        let mut next = Vec::with_capacity(frontier.len() / 2);
        for (i, pair) in frontier.chunks(2).enumerate() {
            let add = adg.add_labeled(
                crate::NodeKind::Pe(PeSpec::new(Scheduling::Static, Sharing::Dedicated, ops)),
                format!("nfu2_{lvl}_{i}"),
            );
            for p in pair {
                adg.add_link(*p, add).unwrap();
            }
            next.push(add);
        }
        frontier = next;
        lvl += 1;
    }
    // Sigmoid stage.
    let sig = adg.add_labeled(
        crate::NodeKind::Pe(PeSpec::new(Scheduling::Static, Sharing::Dedicated, ops)),
        "nfu3",
    );
    adg.add_link(frontier[0], sig).unwrap();
    adg.add_link(in_a, sig).unwrap();
    adg.add_link(sig, out).unwrap();
    adg
}

/// The initial hardware for all three DSE runs (§VIII-B): a 5×4 mesh "with
/// full capability, including control flow, FU decomposability, and an
/// indirect memory controller".
#[must_use]
pub fn dse_initial() -> Adg {
    let pe = PeSpec::new(Scheduling::Dynamic, Sharing::Dedicated, OpSet::all())
        .with_stream_join(true)
        .with_decomposable(true);
    let mut cfg = MeshConfig::new("dse-initial", 5, 4, pe);
    cfg.switch = SwitchSpec::new(BitWidth::B64)
        .with_scheduling(Scheduling::Dynamic)
        .with_decompose_to(BitWidth::B8);
    cfg.scratchpad = MemSpec::scratchpad(32 << 10, 64)
        .with_banks(8)
        .with_controllers(MemControllers::full());
    cfg.delay_depth = 0;
    let mut adg = mesh(&cfg);
    // Sprinkle shared PEs: replace one PE per row with a temporal PE so
    // outer-loop work has somewhere cheap to live.
    let shared = PeSpec::new(
        Scheduling::Dynamic,
        Sharing::Shared {
            max_instructions: 8,
        },
        OpSet::all(),
    )
    .with_stream_join(true);
    let targets: Vec<NodeId> = adg
        .nodes()
        .filter(|n| {
            n.label
                .as_deref()
                .is_some_and(|l| l.starts_with("pe") && l.ends_with("_3"))
        })
        .map(|n| n.id())
        .collect();
    for id in targets {
        if let Some(node) = adg.node_mut(id) {
            node.kind = crate::NodeKind::Pe(shared.clone());
        }
    }
    adg
}

/// The Fig 12 baseline: a 4×4 mesh of dedicated static PEs, 64-bit network,
/// 512-bit-wide scratchpad — with three independently toggleable features:
/// `shared` replaces four dedicated PEs with shared PEs, `dynamic` makes the
/// fabric dynamically scheduled with stream-join, `indirect` adds the
/// indirect memory controller (§VIII-A "Modularity").
#[must_use]
pub fn baseline_4x4(shared: bool, dynamic: bool, indirect: bool) -> Adg {
    let scheduling = if dynamic {
        Scheduling::Dynamic
    } else {
        Scheduling::Static
    };
    let ops = OpSet::integer_alu()
        .union(OpSet::integer_mul())
        .union(OpSet::floating_point());
    let pe = PeSpec::new(scheduling, Sharing::Dedicated, ops).with_stream_join(dynamic);
    let mut cfg = MeshConfig::new(
        format!(
            "baseline-shared{}-dyn{}-ind{}",
            u8::from(shared),
            u8::from(dynamic),
            u8::from(indirect)
        ),
        4,
        4,
        pe,
    );
    cfg.switch = SwitchSpec::new(BitWidth::B64).with_scheduling(scheduling);
    // 512-bit-wide scratchpad = 64 bytes/cycle.
    cfg.scratchpad = MemSpec::scratchpad(16 << 10, 64).with_controllers(MemControllers {
        linear: true,
        indirect,
        atomic_update: indirect,
        coalescing: false,
    });
    if dynamic {
        cfg.delay_depth = 0;
    }
    let mut adg = mesh(&cfg);
    if shared {
        // Replace the four corner PEs with shared PEs.
        let shared_pe = PeSpec::new(
            scheduling,
            Sharing::Shared {
                max_instructions: 8,
            },
            ops,
        )
        .with_stream_join(dynamic);
        let corners = ["pe0_0", "pe0_3", "pe3_0", "pe3_3"];
        let targets: Vec<NodeId> = adg
            .nodes()
            .filter(|n| n.label.as_deref().is_some_and(|l| corners.contains(&l)))
            .map(|n| n.id())
            .collect();
        for id in targets {
            if let Some(node) = adg.node_mut(id) {
                node.kind = crate::NodeKind::Pe(shared_pe.clone());
            }
        }
    }
    adg
}

/// Plasticine (Prabhakar et al., ISCA 2017), approximated per §III-C:
/// pattern-compute units (PCUs) are SIMD pipelines of statically-scheduled
/// dedicated PEs with "no memory and a larger datapath"; pattern-memory
/// units (PMUs) combine an address datapath with a banked scratchpad;
/// scalar/vector FIFOs (sync elements) sit at unit boundaries. Nested
/// parallelism is supported by letting the unit dataflow graphs
/// communicate over the inter-unit switch fabric.
#[must_use]
pub fn plasticine() -> Adg {
    let (mut adg, _main, _spad, inputs, outputs) = skeleton(
        "plasticine",
        MemSpec::scratchpad(32 << 10, 64).with_banks(4),
        8,
        4,
        4,
        16,
    );
    let ops = OpSet::integer_alu()
        .union(OpSet::integer_mul())
        .union(OpSet::floating_point());

    // Inter-unit switch fabric: a 2×3 grid (PCU/PMU columns interleaved).
    let (rows, cols) = (2usize, 3usize);
    let mut grid = vec![vec![NodeId::from_index(0); cols]; rows];
    for (r, row) in grid.iter_mut().enumerate() {
        for (c, slot) in row.iter_mut().enumerate() {
            *slot = adg.add_labeled(
                crate::NodeKind::Switch(SwitchSpec::new(BitWidth::B64)),
                format!("gs{r}_{c}"),
            );
        }
    }
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                adg.add_link(grid[r][c], grid[r][c + 1]).unwrap();
                adg.add_link(grid[r][c + 1], grid[r][c]).unwrap();
            }
            if r + 1 < rows {
                adg.add_link(grid[r][c], grid[r + 1][c]).unwrap();
                adg.add_link(grid[r + 1][c], grid[r][c]).unwrap();
            }
        }
    }

    // Four PCUs: 4-stage SIMD pipelines behind vector FIFOs.
    let pe = PeSpec::new(Scheduling::Static, Sharing::Dedicated, ops);
    for u in 0..4usize {
        let (r, c) = (u / 2, (u % 2) * 2); // grid columns 0 and 2
        let entry = adg.add_labeled(
            crate::NodeKind::Sync(SyncSpec::new(8).with_lanes(4)),
            format!("pcu{u}_fifo"),
        );
        adg.add_link(grid[r][c], entry).unwrap();
        let mut prev: Option<NodeId> = None;
        for s in 0..4usize {
            let stage = adg.add_labeled(crate::NodeKind::Pe(pe.clone()), format!("pcu{u}_s{s}"));
            // Stage operands: pipeline predecessor + the entry FIFO + the
            // local grid switch (cross-unit operands).
            adg.add_link(entry, stage).unwrap();
            adg.add_link(grid[r][c], stage).unwrap();
            if let Some(p) = prev {
                adg.add_link(p, stage).unwrap();
            }
            prev = Some(stage);
        }
        adg.add_link(prev.expect("four stages"), grid[r][c])
            .unwrap();
    }

    // Two PMUs: banked scratchpad + address-datapath PE in grid column 1.
    let pmu_switches: Vec<NodeId> = grid.iter().take(2).map(|row| row[1]).collect();
    for (u, &sw) in pmu_switches.iter().enumerate() {
        let pmu_mem = adg.add_labeled(
            crate::NodeKind::Memory(
                MemSpec::scratchpad(16 << 10, 32)
                    .with_banks(4)
                    .with_controllers(MemControllers::linear_only()),
            ),
            format!("pmu{u}_mem"),
        );
        let addr_pe = adg.add_labeled(
            crate::NodeKind::Pe(PeSpec::new(
                Scheduling::Static,
                Sharing::Dedicated,
                OpSet::integer_alu().union(OpSet::integer_mul()),
            )),
            format!("pmu{u}_addr"),
        );
        let in_fifo = adg.add_labeled(
            crate::NodeKind::Sync(SyncSpec::new(8).with_lanes(4)),
            format!("pmu{u}_in"),
        );
        let out_fifo = adg.add_labeled(
            crate::NodeKind::Sync(SyncSpec::new(8).with_lanes(4)),
            format!("pmu{u}_out"),
        );
        adg.add_link(pmu_mem, in_fifo).unwrap();
        adg.add_link(in_fifo, sw).unwrap();
        adg.add_link(in_fifo, addr_pe).unwrap();
        adg.add_link(sw, addr_pe).unwrap();
        adg.add_link(addr_pe, sw).unwrap();
        adg.add_link(sw, out_fifo).unwrap();
        adg.add_link(out_fifo, pmu_mem).unwrap();
        // The control core must reach the PMU memory for stream commands.
        let ctrl = adg.control().expect("skeleton adds control");
        adg.add_link(ctrl, pmu_mem).unwrap();
    }

    // Main-memory/scratchpad ports attach to the fabric edges.
    for (i, sy) in inputs.iter().enumerate() {
        adg.add_link(*sy, grid[i % rows][i % cols]).unwrap();
    }
    for (i, sy) in outputs.iter().enumerate() {
        adg.add_link(grid[(i + 1) % rows][i % cols], *sy).unwrap();
    }
    adg
}

/// TABLA (Mahajan et al., HPCA 2016), approximated per §III-C: "a
/// hierarchical mesh of static-scheduled temporal PEs, each with their own
/// scratchpad. We could approximate TABLA if we decouple the scratchpad
/// control from the PE datapath control" — so each cluster's scratchpad is
/// a decoupled memory feeding the cluster through sync elements.
#[must_use]
pub fn tabla() -> Adg {
    let (mut adg, _main, _spad, inputs, outputs) =
        skeleton("tabla", MemSpec::scratchpad(8 << 10, 64), 6, 3, 4, 16);
    // TABLA accelerates statistical ML training: multiply-accumulate on
    // reals plus the usual ALU.
    let ops = OpSet::integer_alu()
        .union(OpSet::integer_mul())
        .union(OpSet::floating_point());
    let ctrl = adg.control().expect("skeleton adds control");

    // Global bus: one spine of switches linking four clusters.
    let spine: Vec<NodeId> = (0..2)
        .map(|i| {
            adg.add_labeled(
                crate::NodeKind::Switch(SwitchSpec::new(BitWidth::B64)),
                format!("bus{i}"),
            )
        })
        .collect();
    // The global bus is wide: several parallel 64-bit lanes.
    for _ in 0..3 {
        adg.add_link(spine[0], spine[1]).unwrap();
        adg.add_link(spine[1], spine[0]).unwrap();
    }

    for cl in 0..4usize {
        // Per-cluster decoupled scratchpad.
        let lmem = adg.add_labeled(
            crate::NodeKind::Memory(MemSpec::scratchpad(2 << 10, 32)),
            format!("cl{cl}_mem"),
        );
        adg.add_link(ctrl, lmem).unwrap();
        let lsync = adg.add_labeled(
            crate::NodeKind::Sync(SyncSpec::new(8).with_lanes(2)),
            format!("cl{cl}_port"),
        );
        let osync = adg.add_labeled(
            crate::NodeKind::Sync(SyncSpec::new(8).with_lanes(2)),
            format!("cl{cl}_out"),
        );
        adg.add_link(lmem, lsync).unwrap();
        adg.add_link(osync, lmem).unwrap();
        // Cluster switch + four temporal (shared, static) PEs.
        let csw = adg.add_labeled(
            crate::NodeKind::Switch(SwitchSpec::new(BitWidth::B64)),
            format!("cl{cl}_sw"),
        );
        adg.add_link(lsync, csw).unwrap();
        adg.add_link(csw, osync).unwrap();
        let bus = spine[cl / 2];
        for _ in 0..2 {
            adg.add_link(csw, bus).unwrap();
            adg.add_link(bus, csw).unwrap();
        }
        for p in 0..4usize {
            let pe = adg.add_labeled(
                crate::NodeKind::Pe(PeSpec::new(
                    Scheduling::Static,
                    Sharing::Shared {
                        max_instructions: 8,
                    },
                    ops,
                )),
                format!("cl{cl}_pe{p}"),
            );
            adg.add_link(csw, pe).unwrap();
            adg.add_link(csw, pe).unwrap();
            adg.add_link(pe, csw).unwrap();
        }
    }

    for (i, sy) in inputs.iter().enumerate() {
        adg.add_link(*sy, spine[i % 2]).unwrap();
    }
    for (i, sy) in outputs.iter().enumerate() {
        adg.add_link(spine[i % 2], *sy).unwrap();
    }
    adg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(adg: &Adg) {
        adg.validate()
            .unwrap_or_else(|e| panic!("{} invalid: {e}", adg.name()));
    }

    #[test]
    fn all_presets_validate() {
        for adg in [
            softbrain(),
            maeri(),
            triggered(),
            spu(),
            revel(),
            cca(),
            diannao_tree(),
            dse_initial(),
            plasticine(),
            tabla(),
        ] {
            check(&adg);
        }
        for shared in [false, true] {
            for dynamic in [false, true] {
                for indirect in [false, true] {
                    check(&baseline_4x4(shared, dynamic, indirect));
                }
            }
        }
    }

    #[test]
    fn softbrain_is_static_dedicated() {
        let f = softbrain().features();
        assert_eq!(f.dedicated_static_pes, 25);
        assert!(!f.has_dynamic_pes());
        assert!(!f.has_shared_pes());
        assert!(!f.indirect_memory);
    }

    #[test]
    fn spu_has_sparse_features() {
        let f = spu().features();
        assert_eq!(f.dedicated_dynamic_pes, 16);
        assert!(f.stream_join_pes >= 16);
        assert!(f.indirect_memory);
        assert!(f.atomic_update);
        assert!(f.banked_memory);
    }

    #[test]
    fn triggered_is_shared_dynamic() {
        let f = triggered().features();
        assert_eq!(f.shared_dynamic_pes, 16);
        assert!(f.total_instruction_slots >= 16 * 16);
    }

    #[test]
    fn revel_mixes_execution_models() {
        let f = revel().features();
        assert!(f.dedicated_static_pes > 0);
        assert!(f.shared_dynamic_pes > 0);
    }

    #[test]
    fn maeri_has_tree_shape() {
        let adg = maeri();
        // 16 leaf multipliers + 15 reduce adders.
        assert_eq!(adg.pes().count(), 31);
        // Distribute tree switches: 1 + 2 + 4 + 8 + 16.
        assert_eq!(adg.switches().count(), 31);
    }

    #[test]
    fn cca_has_fewest_switches() {
        assert!(cca().switches().count() < softbrain().switches().count());
    }

    #[test]
    fn dse_initial_is_5x4_full_capability() {
        let adg = dse_initial();
        let f = adg.features();
        assert_eq!(f.total_pes(), 20);
        assert!(f.has_dynamic_pes());
        assert!(f.has_shared_pes());
        assert!(f.indirect_memory);
        assert!(f.decomposable);
    }

    #[test]
    fn baseline_features_toggle() {
        let off = baseline_4x4(false, false, false).features();
        assert!(!off.has_shared_pes() && !off.has_dynamic_pes() && !off.indirect_memory);
        let on = baseline_4x4(true, true, true).features();
        assert!(on.has_shared_pes() && on.has_dynamic_pes() && on.indirect_memory);
        assert!(on.stream_join_pes > 0);
    }

    #[test]
    fn plasticine_has_pcus_and_pmus() {
        let adg = plasticine();
        // 4 PCUs × 4 stages + 2 PMU address PEs.
        assert_eq!(adg.pes().count(), 18);
        // PMU scratchpads are banked; skeleton scratchpad too.
        let banked = adg
            .memories()
            .filter(|m| matches!(adg.kind(*m), Ok(crate::NodeKind::Memory(s)) if s.banks > 1))
            .count();
        assert_eq!(banked, 3);
        assert!(!adg.features().has_dynamic_pes());
    }

    #[test]
    fn tabla_is_hierarchical_temporal() {
        let adg = tabla();
        let f = adg.features();
        // 16 shared static PEs across 4 clusters.
        assert_eq!(f.shared_static_pes, 16);
        assert!(!f.has_dynamic_pes());
        // Per-cluster decoupled scratchpads + skeleton memories.
        assert_eq!(adg.memories().count(), 6);
    }

    #[test]
    fn mesh_port_links_exist() {
        let adg = softbrain();
        for sy in adg.syncs() {
            let degree = adg.in_edges(sy).count() + adg.out_edges(sy).count();
            assert!(degree >= 2, "sync {sy} under-connected");
        }
    }
}
