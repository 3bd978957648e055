//! Lowering from source kernels to compiled decoupled regions (§IV-C).
//!
//! `compile_kernel` slices memory accesses out of each offload region into
//! [`Stream`]s, converts the remaining computation (with control already in
//! data-dependence form) into a [`Dfg`], and applies the modular
//! transformations selected by a [`TransformConfig`] — falling back to
//! control-core scalar code for idioms the configuration leaves disabled.

use std::collections::HashMap;

use dsagen_adg::{BitWidth, FeatureSet, Opcode};
use serde::{Deserialize, Serialize};

use crate::{
    AffineExpr, Dfg, DfgOp, Index, Kernel, LoopKind, LoopVar, MemClass, OpId, Recurrence, Region,
    Requirements, SrcExpr, SrcStmt, Stream, StreamDir, StreamPattern, StreamSource,
    TransformConfig,
};

/// Scalar-op cost charged to the control core per element of a fallback
/// (non-streamed) indirect access: address load, add, access, bookkeeping.
const SCALAR_INDIRECT_COST: f64 = 4.0;
/// Scalar-op cost per element of a fallback read-modify-write update.
const SCALAR_UPDATE_COST: f64 = 6.0;
/// Scalar-op cost per iteration of a fallback (non-stream-join) merge loop:
/// two key loads, compare, two conditional increments, branch.
const SCALAR_JOIN_COST: f64 = 6.0;

/// One compiled offload region: streams + dataflow graph + rate facts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledRegion {
    /// Region name.
    pub name: String,
    /// The compute graph.
    pub dfg: Dfg,
    /// Input streams (index `port` matches [`DfgOp::Input`] ports).
    pub in_streams: Vec<Stream>,
    /// Output streams.
    pub out_streams: Vec<Stream>,
    /// Dataflow-graph firings over one kernel execution.
    pub instances: f64,
    /// Scalar operations the control core must execute (fallback paths).
    pub ctrl_ops: f64,
    /// Relative execution frequency (§V-B).
    pub exec_freq: f64,
    /// Vectorization degree actually applied.
    pub unroll: u16,
    /// Whether this region pipelines with its successor (no barrier),
    /// thanks to producer-consumer forwarding (§IV-D).
    pub pipelined_with_next: bool,
}

impl CompiledRegion {
    /// Total stream commands the control core issues for this region.
    #[must_use]
    pub fn stream_commands(&self) -> u64 {
        self.in_streams
            .iter()
            .chain(&self.out_streams)
            .map(|s| s.pattern.commands)
            .sum()
    }
}

/// A fully compiled kernel version.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledKernel {
    /// Kernel name.
    pub name: String,
    /// Compiled regions, in program order.
    pub regions: Vec<CompiledRegion>,
    /// The transformation configuration this version was compiled with.
    pub config: TransformConfig,
    /// Hardware requirements this version imposes.
    pub requires: Requirements,
    /// Memory traffic eliminated by the §IV-D forwarding optimizations.
    pub forwarded_bytes: f64,
}

impl CompiledKernel {
    /// Total PE instructions across regions.
    #[must_use]
    pub fn inst_count(&self) -> usize {
        self.regions.iter().map(|r| r.dfg.inst_count()).sum()
    }

    /// A stable 64-bit content hash of the compiled kernel.
    ///
    /// Covers the kernel name, the transformation configuration, the
    /// hardware requirements, and — per region — the region name, the full
    /// [`Dfg`] content ([`Dfg::content_hash`]), every in/out stream, and
    /// the region's firing statistics. Floats are hashed bit-exactly.
    ///
    /// Two compiled versions hash equal iff the scheduler and the
    /// performance model would see identical inputs, which is exactly the
    /// contract the DSE schedule cache needs: it memoizes scheduling work
    /// under the key `(adg fingerprint, compiled-kernel hash)`.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = dsagen_adg::StableHasher::new();
        self.name.hash(&mut h);
        let c = &self.config;
        h.write_u16(c.unroll);
        h.write_u8(
            u8::from(c.stream_join)
                | (u8::from(c.indirect) << 1)
                | (u8::from(c.atomic_update) << 2)
                | (u8::from(c.forward) << 3)
                | (u8::from(c.window_ports) << 4)
                | (u8::from(c.sub_word) << 5),
        );
        let r = &self.requires;
        h.write_u32(r.stream_join_pes);
        h.write_u32(r.instruction_slots);
        r.ops.hash(&mut h);
        h.write_u8(
            u8::from(r.indirect_memory)
                | (u8::from(r.atomic_update) << 1)
                | (u8::from(r.scalar_core) << 2)
                | (u8::from(r.decomposable) << 3),
        );
        h.write_u64(self.forwarded_bytes.to_bits());
        h.write_usize(self.regions.len());
        for region in &self.regions {
            region.name.hash(&mut h);
            region.dfg.hash_content(&mut h);
            h.write_usize(region.in_streams.len());
            for s in &region.in_streams {
                s.hash_content(&mut h);
            }
            h.write_usize(region.out_streams.len());
            for s in &region.out_streams {
                s.hash_content(&mut h);
            }
            h.write_u64(region.instances.to_bits());
            h.write_u64(region.ctrl_ops.to_bits());
            h.write_u64(region.exec_freq.to_bits());
            h.write_u16(region.unroll);
            h.write_u8(u8::from(region.pipelined_with_next));
        }
        h.finish()
    }
}

/// Compiles `kernel` under `cfg` for hardware with `features`.
///
/// The configuration's hardware-dependent flags are assumed to have been
/// gated by [`crate::enumerate_configs`]; `features` is still consulted for
/// capacity questions (does the repetitive-update working set fit the sync
/// buffers?).
///
/// # Errors
///
/// Returns [`crate::DfgError::Malformed`] if the kernel fails validation.
pub fn compile_kernel(
    kernel: &Kernel,
    cfg: &TransformConfig,
    features: &FeatureSet,
) -> Result<CompiledKernel, crate::DfgError> {
    kernel.validate()?;
    let mut regions = Vec::with_capacity(kernel.regions.len());
    let mut requires = Requirements::default();
    let mut forwarded = 0.0;
    // Yield ports per region: region index → list of out-stream ports.
    let mut yield_ports: Vec<Vec<usize>> = Vec::new();

    for (idx, region) in kernel.regions.iter().enumerate() {
        let mut lower = Lowerer::new(kernel, region, idx, cfg, features, &yield_ports);
        let compiled = lower.run();
        requires.stream_join_pes += lower.stream_join_count;
        requires.indirect_memory |= lower.used_indirect;
        requires.atomic_update |= lower.used_atomic;
        requires.instruction_slots += compiled.dfg.inst_count() as u32;
        requires.scalar_core |= compiled.ctrl_ops > 0.0;
        requires.decomposable |= cfg.sub_word;
        for (_, op) in compiled.dfg.iter() {
            if let Some(oc) = op.required_opcode() {
                requires.ops.insert(oc);
            }
        }
        forwarded += lower.forwarded_bytes;
        yield_ports.push(lower.yield_ports.clone());
        regions.push(compiled);
    }

    // Producer-consumer pipelining: a region pipelines with its successor
    // when forwarding is on, the successor consumes its yields, and no
    // memory-carried RAW dependence forces a barrier (§IV-D).
    for i in 0..regions.len().saturating_sub(1) {
        let consumer_reads_forward = kernel.regions[i + 1]
            .iter_exprs()
            .any(|(_, e)| matches!(e, SrcExpr::Consume { region, .. } if *region == i));
        let raw_dep = arrays_written(&kernel.regions[i])
            .iter()
            .any(|a| arrays_read(&kernel.regions[i + 1]).contains(a));
        regions[i].pipelined_with_next = cfg.forward && consumer_reads_forward && !raw_dep;
    }

    Ok(CompiledKernel {
        name: kernel.name.clone(),
        regions,
        config: *cfg,
        requires,
        forwarded_bytes: forwarded,
    })
}

fn arrays_written(region: &Region) -> Vec<crate::ArrayId> {
    region
        .stmts
        .iter()
        .filter_map(|s| match s {
            SrcStmt::Store { array, .. } | SrcStmt::Update { array, .. } => Some(*array),
            SrcStmt::Yield { .. } => None,
        })
        .collect()
}

fn arrays_read(region: &Region) -> Vec<crate::ArrayId> {
    region
        .iter_exprs()
        .filter_map(|(_, e)| match e {
            SrcExpr::Load { array, .. } => Some(*array),
            _ => None,
        })
        .collect()
}

/// One sliding-window vector-port group (§III-A: sync elements are
/// multi-lane; stencil/filter taps at small constant offsets of one array
/// share a port rather than each burning their own).
#[derive(Debug, Clone)]
struct WindowGroup {
    array: crate::ArrayId,
    base: AffineExpr,
    variant: bool,
    port: usize,
    taps: u16,
}

/// Maximum constant-offset distance (in elements) groupable into one
/// window port.
const WINDOW_SPAN: i64 = 16;

/// Which stream direction a window group belongs to.
#[derive(Debug)]
enum Dir {
    In,
    Out,
}

/// The combine opcode used when merging per-lane partial reductions.
fn combine_op(op: Opcode) -> Opcode {
    match op {
        Opcode::Mac => Opcode::Add,
        Opcode::FMac => Opcode::FAdd,
        other => other,
    }
}

struct Lowerer<'a> {
    kernel: &'a Kernel,
    region: &'a Region,
    region_idx: usize,
    cfg: &'a TransformConfig,
    features: &'a FeatureSet,
    yield_ports_by_region: &'a [Vec<usize>],

    dfg: Dfg,
    in_streams: Vec<Stream>,
    out_streams: Vec<Stream>,
    /// (expr, lane) → lowered value. Lane-invariant exprs memoize at lane 0.
    memo: HashMap<(usize, u16), OpId>,
    /// (array, canonical index) → input port, for load deduplication.
    load_ports: HashMap<String, usize>,
    /// Sliding-window port groups for loads: taps of the same array whose
    /// indices differ only by a small constant share one vector port.
    window_in: Vec<WindowGroup>,
    /// Sliding-window port groups for stores.
    window_out: Vec<WindowGroup>,
    ctrl_ops: f64,
    forwarded_bytes: f64,
    yield_ports: Vec<usize>,

    trips: Vec<f64>,
    unrolled: Option<LoopVar>,
    unroll: u16,
    instances: f64,
    join_fallback: bool,
    stream_join_count: u32,
    used_indirect: bool,
    used_atomic: bool,
}

impl<'a> Lowerer<'a> {
    fn new(
        kernel: &'a Kernel,
        region: &'a Region,
        region_idx: usize,
        cfg: &'a TransformConfig,
        features: &'a FeatureSet,
        yield_ports_by_region: &'a [Vec<usize>],
    ) -> Self {
        // Expected trip counts, outermost first.
        let mut trips: Vec<f64> = Vec::with_capacity(region.loops.len());
        for (d, l) in region.loops.iter().enumerate() {
            let outer = if d == 0 { 1.0 } else { trips[d - 1] };
            trips.push(l.expected_trip(outer.round().max(1.0) as u64).max(1.0));
        }
        // Unroll the deepest parallel counted loop.
        let unrolled = region
            .loops
            .iter()
            .enumerate()
            .rev()
            .find(|(_, l)| l.parallel && matches!(l.kind, LoopKind::For { .. }))
            .map(|(d, _)| LoopVar(d));
        let mut unroll = 1u16;
        if let Some(v) = unrolled {
            unroll = cfg.unroll.min(trips[v.0].round().max(1.0) as u16).max(1);
            trips[v.0] = (trips[v.0] / f64::from(unroll)).max(1.0);
        }
        let instances: f64 = trips.iter().product();
        let join_fallback = region.join_loop().is_some() && !cfg.stream_join;

        Lowerer {
            kernel,
            region,
            region_idx,
            cfg,
            features,
            yield_ports_by_region,
            dfg: Dfg::new(),
            in_streams: Vec::new(),
            out_streams: Vec::new(),
            memo: HashMap::new(),
            load_ports: HashMap::new(),
            window_in: Vec::new(),
            window_out: Vec::new(),
            ctrl_ops: 0.0,
            forwarded_bytes: 0.0,
            yield_ports: Vec::new(),
            trips,
            unrolled: if unroll > 1 { unrolled } else { None },
            unroll,
            instances,
            join_fallback,
            stream_join_count: 0,
            used_indirect: false,
            used_atomic: false,
        }
    }

    fn run(&mut self) -> CompiledRegion {
        // A join loop's key comparison lives at the root of the region.
        if let Some((_, LoopKind::Join { a, b, .. })) = self.region.join_loop() {
            let (a, b) = (a.clone(), b.clone());
            self.lower_join(&a, &b);
        }

        let stmts = self.region.stmts.clone();
        for stmt in &stmts {
            self.lower_stmt(stmt);
        }

        // Sub-word SIMD packing (§III-A decomposable FUs): when every
        // element is narrow, one decomposable 64-bit PE carries
        // 64/elem_bits lanes per firing — fewer firings, wider streams.
        let mut instances = self.instances;
        let mut in_streams = std::mem::take(&mut self.in_streams);
        let mut out_streams = std::mem::take(&mut self.out_streams);
        if self.cfg.sub_word {
            let max_bits = in_streams
                .iter()
                .chain(&out_streams)
                .map(|s| s.elem_bytes * 8)
                .max()
                .unwrap_or(64);
            let factor = (64 / max_bits.max(8)).clamp(1, 8) as u16;
            if factor > 1 {
                instances /= f64::from(factor);
                for s in in_streams.iter_mut().chain(out_streams.iter_mut()) {
                    s.lanes = s.lanes.saturating_mul(factor);
                }
            }
        }

        CompiledRegion {
            name: self.region.name.clone(),
            dfg: std::mem::take(&mut self.dfg),
            in_streams,
            out_streams,
            instances,
            ctrl_ops: self.ctrl_ops,
            exec_freq: self.region.exec_freq,
            unroll: self.unroll,
            pipelined_with_next: false,
        }
    }

    // ------------------------------------------------------------ analysis

    /// Whether an expression's value differs across unrolled lanes.
    fn lane_variant(&self, id: crate::ExprId) -> bool {
        let Some(uv) = self.unrolled else {
            return false;
        };
        self.depends_on(id, uv)
    }

    fn depends_on(&self, id: crate::ExprId, var: LoopVar) -> bool {
        match self.region.expr(id) {
            SrcExpr::Load { index, .. } => {
                index.driving_expr().stride_of(var) != 0
                    || index.driving_expr().vars().any(|v| v.0 >= var.0)
            }
            SrcExpr::Imm(_) | SrcExpr::Consume { .. } => false,
            SrcExpr::Un { a, .. } => self.depends_on(*a, var),
            SrcExpr::Bin { a, b, .. } => self.depends_on(*a, var) || self.depends_on(*b, var),
            SrcExpr::Mux { cond, t, f } => {
                self.depends_on(*cond, var) || self.depends_on(*t, var) || self.depends_on(*f, var)
            }
            // A reduction folds away every loop at `level` or deeper; its
            // output only varies with strictly-outer variables.
            SrcExpr::Reduce { body, level, .. } => var.0 < level.0 && self.depends_on(*body, var),
        }
    }

    /// Adjusted trip product over loops where `pred(depth)` holds.
    fn trip_product(&self, pred: impl Fn(usize) -> bool) -> f64 {
        self.trips
            .iter()
            .enumerate()
            .filter(|(d, _)| pred(*d))
            .map(|(_, t)| *t)
            .product()
    }

    /// Builds a pattern for an affine access enumerated over the whole
    /// region iteration space.
    fn affine_pattern(&self, e: &AffineExpr, elem_bytes: u32, total_elems: f64) -> StreamPattern {
        let depth = self.region.loops.len();
        let innermost = LoopVar(depth - 1);
        let stride_bytes = e.stride_of(innermost) * i64::from(elem_bytes);
        // The 2-D hardware pattern covers the two innermost loops; every
        // loop above costs one command per iteration (§III-A "Memories").
        let commands = self.trip_product(|d| d + 2 < depth).round().max(1.0) as u64;
        let inductive = self.region.loops.iter().enumerate().any(|(d, l)| {
            d + 2 >= depth && matches!(l.kind, LoopKind::For { trip } if trip.is_inductive())
        });
        StreamPattern {
            elems_per_command: total_elems / commands as f64,
            commands,
            stride_bytes,
            inductive,
            indirect: false,
        }
    }

    fn mem_of(&self, array: crate::ArrayId) -> MemClass {
        self.kernel.array(array).location
    }

    fn elem_bytes_of(&self, array: crate::ArrayId) -> u32 {
        self.kernel.array(array).elem.bytes()
    }

    fn width_of(&self, array: crate::ArrayId) -> BitWidth {
        self.kernel.array(array).elem
    }

    // ------------------------------------------------------------- streams

    fn push_in_stream(&mut self, s: Stream) -> usize {
        let port = self.in_streams.len();
        self.in_streams.push(Stream { port, ..s });
        port
    }

    fn push_out_stream(&mut self, s: Stream) -> usize {
        let port = self.out_streams.len();
        self.out_streams.push(Stream { port, ..s });
        port
    }

    /// Tries to attach an access at `e` to an existing sliding-window port
    /// group of the same array (constant-offset tap within [`WINDOW_SPAN`],
    /// subject to the hardware's widest port). Widens the group's stream
    /// lanes to cover the new tap.
    fn join_window(
        &mut self,
        dir: &mut Dir,
        array: crate::ArrayId,
        e: &AffineExpr,
        variant: bool,
    ) -> Option<usize> {
        if !self.cfg.window_ports {
            return None;
        }
        let max_lanes = self.features.max_port_lanes.max(1);
        let groups = match dir {
            Dir::In => &mut self.window_in,
            Dir::Out => &mut self.window_out,
        };
        for g in groups.iter_mut() {
            if g.array != array || g.variant != variant || g.taps >= max_lanes {
                continue;
            }
            let Some(off) = e.offset_from(&g.base) else {
                continue;
            };
            if off.unsigned_abs() > WINDOW_SPAN as u64 {
                continue;
            }
            g.taps += 1;
            let taps = g.taps;
            let port = g.port;
            let stream = match dir {
                Dir::In => &mut self.in_streams[port],
                Dir::Out => &mut self.out_streams[port],
            };
            stream.lanes = stream.lanes.max(taps);
            if matches!(dir, Dir::Out) {
                // Stores write distinct addresses: the grouped stream's
                // volume grows with each tap (loads share the sliding
                // window, so their volume stays).
                stream.pattern.elems_per_command *= f64::from(taps) / f64::from(taps - 1);
            }
            return Some(port);
        }
        None
    }

    /// Creates (or reuses) the input port for a load and returns it.
    fn load_port(&mut self, array: crate::ArrayId, index: &Index, variant: bool) -> usize {
        let key = format!("{array}:{index:?}");
        if let Some(port) = self.load_ports.get(&key) {
            return *port;
        }
        let lanes = if variant { self.unroll } else { 1 };
        let eb = self.elem_bytes_of(array);
        let total = self.instances * f64::from(lanes);
        let port = match index {
            Index::Affine(e) => {
                if self.join_fallback {
                    // Control core feeds elements one by one.
                    self.ctrl_ops += SCALAR_INDIRECT_COST * total;
                    self.push_in_stream(Stream {
                        port: 0,
                        dir: StreamDir::Read,
                        elem_bytes: eb,
                        lanes,
                        pattern: StreamPattern::linear(total, eb.into()),
                        source: StreamSource::ControlCore,
                        to_fabric: true,
                    })
                } else if let Some(port) = self.join_window(&mut Dir::In, array, e, variant) {
                    port
                } else {
                    let pattern = self.affine_pattern(e, eb, total);
                    let port = self.push_in_stream(Stream {
                        port: 0,
                        dir: StreamDir::Read,
                        elem_bytes: eb,
                        lanes,
                        pattern,
                        source: StreamSource::Memory(self.mem_of(array)),
                        to_fabric: true,
                    });
                    self.window_in.push(WindowGroup {
                        array,
                        base: e.clone(),
                        variant,
                        port,
                        taps: 1,
                    });
                    port
                }
            }
            Index::Indirect {
                index_array,
                index_expr,
            } => {
                if self.cfg.indirect {
                    self.used_indirect = true;
                    let idx_eb = self.elem_bytes_of(*index_array);
                    let idx_pattern = self.affine_pattern(index_expr, idx_eb, total);
                    let data_port = self.in_streams.len();
                    // Index stream feeds the controller, not the fabric.
                    self.push_in_stream(Stream {
                        port: 0,
                        dir: StreamDir::Read,
                        elem_bytes: idx_eb,
                        lanes,
                        pattern: idx_pattern,
                        source: StreamSource::Memory(self.mem_of(*index_array)),
                        to_fabric: false,
                    });
                    let _ = data_port;
                    self.push_in_stream(Stream {
                        port: 0,
                        dir: StreamDir::Read,
                        elem_bytes: eb,
                        lanes,
                        pattern: StreamPattern {
                            elems_per_command: total,
                            commands: 1,
                            stride_bytes: eb.into(),
                            inductive: false,
                            indirect: true,
                        },
                        source: StreamSource::Memory(self.mem_of(array)),
                        to_fabric: true,
                    })
                } else {
                    // Scalar fallback: the control core performs the
                    // gather element by element (§IV-C).
                    self.ctrl_ops += SCALAR_INDIRECT_COST * total;
                    self.push_in_stream(Stream {
                        port: 0,
                        dir: StreamDir::Read,
                        elem_bytes: eb,
                        lanes,
                        pattern: StreamPattern {
                            elems_per_command: total,
                            commands: 1,
                            stride_bytes: eb.into(),
                            inductive: false,
                            indirect: true,
                        },
                        source: StreamSource::ControlCore,
                        to_fabric: true,
                    })
                }
            }
        };
        self.load_ports.insert(key, port);
        port
    }

    // ----------------------------------------------------------- lowering

    fn lower_join(&mut self, a: &crate::JoinSide, b: &crate::JoinSide) {
        if self.join_fallback {
            // The merge loop runs on the control core; nothing to place on
            // the fabric for the keys themselves.
            self.ctrl_ops += SCALAR_JOIN_COST * self.instances;
            return;
        }
        self.stream_join_count += 1;
        let ka_port = self.load_port(
            a.key,
            &Index::Affine(AffineExpr::var(self.join_var())),
            false,
        );
        let kb_port = self.load_port(
            b.key,
            &Index::Affine(AffineExpr::var(self.join_var())),
            false,
        );
        let ka = self
            .dfg
            .push(DfgOp::Input { port: ka_port }, self.width_of(a.key));
        let kb = self
            .dfg
            .push(DfgOp::Input { port: kb_port }, self.width_of(b.key));
        let j = self.dfg.push(
            DfgOp::StreamJoin {
                left: ka,
                right: kb,
            },
            self.width_of(a.key),
        );
        // The join gates downstream consumption; record it so consumers of
        // the join predicate can find it.
        self.memo.insert((usize::MAX, 0), j);
    }

    fn join_var(&self) -> LoopVar {
        LoopVar(self.region.join_loop().expect("join region").0)
    }

    fn lower_stmt(&mut self, stmt: &SrcStmt) {
        match stmt {
            SrcStmt::Store {
                array,
                index,
                value,
            } => self.lower_store(*array, index, *value),
            SrcStmt::Update {
                array,
                index,
                op,
                value,
            } => self.lower_update(*array, index, *op, *value),
            SrcStmt::Yield { value } => self.lower_yield(*value),
        }
    }

    /// Number of firings at which a store with index `e` produces a value
    /// (its rate): the product of trips of the loops the index varies over.
    fn store_elems(&self, e: &AffineExpr, variant: bool) -> f64 {
        if e.is_constant() {
            return 1.0;
        }
        let deepest = e.innermost_var().expect("non-constant").0;
        let total = self.trip_product(|d| d <= deepest);
        total * if variant { f64::from(self.unroll) } else { 1.0 }
    }

    fn lower_store(&mut self, array: crate::ArrayId, index: &Index, value: crate::ExprId) {
        let variant = self.lane_variant(value);
        let lanes = if variant { self.unroll } else { 1 };
        let eb = self.elem_bytes_of(array);
        let port = match index {
            Index::Affine(e) => {
                if let Some(port) = (!self.join_fallback)
                    .then(|| self.join_window(&mut Dir::Out, array, e, variant))
                    .flatten()
                {
                    port
                } else {
                    let total = self.store_elems(e, variant);
                    let pattern = self.affine_pattern(e, eb, total);
                    let source = if self.join_fallback {
                        StreamSource::ControlCore
                    } else {
                        StreamSource::Memory(self.mem_of(array))
                    };
                    let port = self.push_out_stream(Stream {
                        port: 0,
                        dir: StreamDir::Write,
                        elem_bytes: eb,
                        lanes,
                        pattern,
                        source,
                        to_fabric: true,
                    });
                    if !self.join_fallback {
                        self.window_out.push(WindowGroup {
                            array,
                            base: e.clone(),
                            variant,
                            port,
                            taps: 1,
                        });
                    }
                    port
                }
            }
            Index::Indirect {
                index_array,
                index_expr,
            } => {
                let total = self.instances * f64::from(lanes);
                if self.cfg.indirect {
                    self.used_indirect = true;
                    let idx_eb = self.elem_bytes_of(*index_array);
                    let idx_pattern = self.affine_pattern(index_expr, idx_eb, total);
                    self.push_in_stream(Stream {
                        port: 0,
                        dir: StreamDir::Read,
                        elem_bytes: idx_eb,
                        lanes,
                        pattern: idx_pattern,
                        source: StreamSource::Memory(self.mem_of(*index_array)),
                        to_fabric: false,
                    });
                    self.push_out_stream(Stream {
                        port: 0,
                        dir: StreamDir::Write,
                        elem_bytes: eb,
                        lanes,
                        pattern: StreamPattern {
                            elems_per_command: total,
                            commands: 1,
                            stride_bytes: eb.into(),
                            inductive: false,
                            indirect: true,
                        },
                        source: StreamSource::Memory(self.mem_of(array)),
                        to_fabric: true,
                    })
                } else {
                    self.ctrl_ops += SCALAR_INDIRECT_COST * total;
                    self.push_out_stream(Stream {
                        port: 0,
                        dir: StreamDir::Write,
                        elem_bytes: eb,
                        lanes,
                        pattern: StreamPattern {
                            elems_per_command: total,
                            commands: 1,
                            stride_bytes: eb.into(),
                            inductive: false,
                            indirect: true,
                        },
                        source: StreamSource::ControlCore,
                        to_fabric: true,
                    })
                }
            }
        };
        for lane in 0..lanes {
            let v = self.lower_expr(value, lane);
            let w = self.dfg.width(v);
            self.dfg.push(DfgOp::Output { port, input: v }, w);
        }
    }

    fn lower_update(
        &mut self,
        array: crate::ArrayId,
        index: &Index,
        op: Opcode,
        value: crate::ExprId,
    ) {
        let eb = self.elem_bytes_of(array);
        match index {
            Index::Affine(e) => {
                // Repetitive in-place update (§IV-D, Fig 7b): if the index
                // is invariant over some outer loop and the updated slice
                // fits the sync buffers, route data on-fabric across outer
                // iterations instead of through memory.
                let variant = self.lane_variant(value) || {
                    self.unrolled.is_some_and(|uv| e.stride_of(uv) != 0)
                };
                let lanes = if variant { self.unroll } else { 1 };
                let slice_elems = self.store_elems(e, variant)
                    / self
                        .trip_product(|d| e.stride_of(LoopVar(d)) == 0 && self.varies_below(e, d));
                let slice_bytes = slice_elems * f64::from(eb);
                let invariant_outer = (0..self.region.loops.len())
                    .any(|d| e.stride_of(LoopVar(d)) == 0 && self.varies_below(e, d));
                let fits = slice_bytes <= self.features.sync_capacity_bytes as f64;

                let total = self.instances * f64::from(lanes);
                if self.cfg.forward && invariant_outer && fits {
                    // First-read + final-write touch memory; intermediate
                    // traffic is forwarded.
                    let out_port = self.push_out_stream(Stream {
                        port: 0,
                        dir: StreamDir::Write,
                        elem_bytes: eb,
                        lanes,
                        pattern: StreamPattern::linear(
                            slice_elems,
                            e.stride_of(LoopVar(self.region.loops.len() - 1)) * i64::from(eb),
                        ),
                        source: StreamSource::Memory(self.mem_of(array)),
                        to_fabric: true,
                    });
                    let in_port = self.push_in_stream(Stream {
                        port: 0,
                        dir: StreamDir::Read,
                        elem_bytes: eb,
                        lanes,
                        pattern: StreamPattern::linear(total, eb.into()),
                        source: StreamSource::Forward {
                            from_region: self.region_idx,
                            from_port: out_port,
                        },
                        to_fabric: true,
                    });
                    self.forwarded_bytes += 2.0 * f64::from(eb) * (total - slice_elems).max(0.0);
                    self.emit_update_compute(in_port, op, value, lanes, out_port, eb);
                } else {
                    // Plain read-modify-write through memory, plus a fence
                    // per outer iteration.
                    let pattern = self.affine_pattern(e, eb, total);
                    let in_port = self.push_in_stream(Stream {
                        port: 0,
                        dir: StreamDir::Read,
                        elem_bytes: eb,
                        lanes,
                        pattern,
                        source: StreamSource::Memory(self.mem_of(array)),
                        to_fabric: true,
                    });
                    let out_port = self.push_out_stream(Stream {
                        port: 0,
                        dir: StreamDir::Write,
                        elem_bytes: eb,
                        lanes,
                        pattern,
                        source: StreamSource::Memory(self.mem_of(array)),
                        to_fabric: true,
                    });
                    self.ctrl_ops += self.trip_product(|d| d + 1 < self.region.loops.len());
                    self.emit_update_compute(in_port, op, value, lanes, out_port, eb);
                }
            }
            Index::Indirect {
                index_array,
                index_expr,
            } => {
                let lanes = self.unroll;
                let total = self.instances * f64::from(lanes);
                if self.cfg.atomic_update {
                    // In-bank atomic update: index stream + value stream;
                    // no read-back into the fabric (§III-A).
                    self.used_atomic = true;
                    self.used_indirect = true;
                    let idx_eb = self.elem_bytes_of(*index_array);
                    let idx_pattern = self.affine_pattern(index_expr, idx_eb, total);
                    self.push_in_stream(Stream {
                        port: 0,
                        dir: StreamDir::Read,
                        elem_bytes: idx_eb,
                        lanes,
                        pattern: idx_pattern,
                        source: StreamSource::Memory(self.mem_of(*index_array)),
                        to_fabric: false,
                    });
                    let out_port = self.push_out_stream(Stream {
                        port: 0,
                        dir: StreamDir::AtomicUpdate,
                        elem_bytes: eb,
                        lanes,
                        pattern: StreamPattern {
                            elems_per_command: total,
                            commands: 1,
                            stride_bytes: eb.into(),
                            inductive: false,
                            indirect: true,
                        },
                        source: StreamSource::Memory(self.mem_of(array)),
                        to_fabric: true,
                    });
                    for lane in 0..lanes {
                        let v = self.lower_expr(value, lane);
                        let w = self.dfg.width(v);
                        self.dfg.push(
                            DfgOp::Output {
                                port: out_port,
                                input: v,
                            },
                            w,
                        );
                    }
                } else if self.cfg.indirect {
                    // Gather → compute → scatter; read-modify-write hazards
                    // serialize through the memory round trip.
                    let in_port = self.load_port(array, index, true);
                    let out_port = self.push_out_stream(Stream {
                        port: 0,
                        dir: StreamDir::Write,
                        elem_bytes: eb,
                        lanes,
                        pattern: StreamPattern {
                            elems_per_command: total,
                            commands: 1,
                            stride_bytes: eb.into(),
                            inductive: false,
                            indirect: true,
                        },
                        source: StreamSource::Memory(self.mem_of(array)),
                        to_fabric: true,
                    });
                    let rec = self.emit_update_compute(in_port, op, value, lanes, out_port, eb);
                    self.dfg.add_recurrence(Recurrence {
                        through: rec,
                        independent_chains: 1.0,
                    });
                } else {
                    // Full scalar fallback on the control core.
                    self.ctrl_ops += SCALAR_UPDATE_COST * total;
                }
            }
        }
    }

    /// Emits `out[port] = in[port] ⊕ value` per lane; returns the last
    /// compute node (for recurrence bookkeeping).
    fn emit_update_compute(
        &mut self,
        in_port: usize,
        op: Opcode,
        value: crate::ExprId,
        lanes: u16,
        out_port: usize,
        eb: u32,
    ) -> OpId {
        let width = BitWidth::new(u16::try_from(eb * 8).expect("element widths fit u16"))
            .expect("element widths are powers of two");
        let mut last = OpId(0);
        for lane in 0..lanes {
            let old = self.dfg.push(DfgOp::Input { port: in_port }, width);
            let v = self.lower_expr(value, lane);
            let new = self.dfg.push(
                DfgOp::Compute {
                    op,
                    ins: vec![old, v],
                },
                width,
            );
            self.dfg.push(
                DfgOp::Output {
                    port: out_port,
                    input: new,
                },
                width,
            );
            last = new;
        }
        last
    }

    fn lower_yield(&mut self, value: crate::ExprId) {
        let rate = self.region.rate_level(value);
        let total = match rate {
            None => 1.0,
            Some(v) => self.trip_product(|d| d <= v.0),
        };
        let v = self.lower_expr(value, 0);
        let w = self.dfg.width(v);
        let source = if self.cfg.forward {
            StreamSource::Forward {
                from_region: self.region_idx,
                from_port: self.out_streams.len(),
            }
        } else {
            StreamSource::Memory(MemClass::MainMemory)
        };
        let port = self.push_out_stream(Stream {
            port: 0,
            dir: StreamDir::Write,
            elem_bytes: w.bytes(),
            lanes: 1,
            pattern: StreamPattern::linear(total, w.bytes().into()),
            source,
            to_fabric: true,
        });
        self.yield_ports.push(port);
        self.dfg.push(DfgOp::Output { port, input: v }, w);
    }

    fn lower_expr(&mut self, id: crate::ExprId, lane: u16) -> OpId {
        let variant = self.lane_variant(id);
        let memo_lane = if variant { lane } else { 0 };
        if let Some(v) = self.memo.get(&(id.0, memo_lane)) {
            return *v;
        }
        let out = match self.region.expr(id).clone() {
            SrcExpr::Load { array, index } => {
                // Loop-invariant loads (constant index, e.g. filter
                // coefficients) are preloaded by the control core into the
                // PE configuration as constant operands instead of wasting
                // a vector port on a stride-0 stream.
                if matches!(&index, Index::Affine(e) if e.is_constant()) {
                    self.ctrl_ops += 2.0;
                    self.dfg.push(DfgOp::Const(0), self.width_of(array))
                } else {
                    let port = self.load_port(array, &index, variant);
                    self.dfg.push(DfgOp::Input { port }, self.width_of(array))
                }
            }
            SrcExpr::Imm(v) => self.dfg.push(DfgOp::Const(v), BitWidth::B64),
            SrcExpr::Un { op, a } => {
                let a = self.lower_expr(a, lane);
                let w = self.dfg.width(a);
                self.dfg.push(DfgOp::Compute { op, ins: vec![a] }, w)
            }
            SrcExpr::Bin { op, a, b } => {
                let a = self.lower_expr(a, lane);
                let b = self.lower_expr(b, lane);
                let w = self.dfg.width(a).max(self.dfg.width(b));
                let w = if op.is_predicate() { BitWidth::B8 } else { w };
                self.dfg.push(
                    DfgOp::Compute {
                        op,
                        ins: vec![a, b],
                    },
                    w,
                )
            }
            SrcExpr::Mux { cond, t, f } => {
                let c = self.lower_expr(cond, lane);
                let t = self.lower_expr(t, lane);
                let f = self.lower_expr(f, lane);
                let w = self.dfg.width(t).max(self.dfg.width(f));
                self.dfg.push(
                    DfgOp::Compute {
                        op: Opcode::Select,
                        ins: vec![c, t, f],
                    },
                    w,
                )
            }
            SrcExpr::Reduce { op, body, level } => self.lower_reduce(op, body, level, lane),
            SrcExpr::Consume { region, yield_idx } => {
                let key = format!("consume:{region}:{yield_idx}");
                if let Some(port) = self.load_ports.get(&key) {
                    let port = *port;
                    self.dfg.push(DfgOp::Input { port }, BitWidth::B64)
                } else {
                    let rate_total = self.trip_product(|d| d == 0);
                    let from_port = self.yield_ports_by_region[region]
                        .get(yield_idx)
                        .copied()
                        .unwrap_or(0);
                    let source = if self.cfg.forward {
                        StreamSource::Forward {
                            from_region: region,
                            from_port,
                        }
                    } else {
                        StreamSource::Memory(MemClass::MainMemory)
                    };
                    let port = self.push_in_stream(Stream {
                        port: 0,
                        dir: StreamDir::Read,
                        elem_bytes: 8,
                        lanes: 1,
                        pattern: StreamPattern::linear(rate_total, 8),
                        source,
                        to_fabric: true,
                    });
                    self.load_ports.insert(key, port);
                    self.dfg.push(DfgOp::Input { port }, BitWidth::B64)
                }
            }
        };
        self.memo.insert((id.0, memo_lane), out);
        out
    }

    /// Whether expression `e` varies in any loop deeper than depth `d`.
    fn varies_below(&self, e: &AffineExpr, d: usize) -> bool {
        e.vars().any(|v| v.0 > d) && self.trips.get(d).copied().unwrap_or(1.0) > 1.0
    }

    fn lower_reduce(&mut self, op: Opcode, body: crate::ExprId, level: LoopVar, lane: u16) -> OpId {
        // Firings between resets: the trips of every loop at `level` or
        // deeper (already divided by the unroll factor where applicable).
        let reset_every = self.trip_product(|d| d >= level.0).round().max(1.0) as u64;
        let push_accum = |this: &mut Self, l: u16| -> OpId {
            let b = this.lower_expr(body, l);
            let w = this.dfg.width(b);
            let acc = this.dfg.push(
                DfgOp::Accum {
                    op,
                    input: b,
                    reset_every,
                },
                w,
            );
            this.dfg.add_recurrence(Recurrence {
                through: acc,
                independent_chains: 1.0,
            });
            acc
        };
        // When the unrolled loop *is* the reduced loop, each lane holds a
        // partial accumulator and a combine tree merges them (the classic
        // dot-product unrolling of Fig 2). Otherwise — the reduction is
        // nested deeper than the unrolled loop — each lane simply carries
        // its own independent accumulator.
        if self.unrolled != Some(level) {
            return push_accum(self, lane);
        }
        let mut frontier: Vec<OpId> = (0..self.unroll).map(|l| push_accum(self, l)).collect();
        let comb = combine_op(op);
        while frontier.len() > 1 {
            let mut next = Vec::with_capacity(frontier.len().div_ceil(2));
            for pair in frontier.chunks(2) {
                if pair.len() == 2 {
                    let w = self.dfg.width(pair[0]);
                    next.push(self.dfg.push(
                        DfgOp::Compute {
                            op: comb,
                            ins: vec![pair[0], pair[1]],
                        },
                        w,
                    ));
                } else {
                    next.push(pair[0]);
                }
            }
            frontier = next;
        }
        frontier[0]
    }
}

#[cfg(test)]
mod tests {
    use dsagen_adg::{presets, BitWidth, Opcode};

    use super::*;
    use crate::{JoinSide, KernelBuilder, TripCount};

    fn features() -> FeatureSet {
        presets::dse_initial().features()
    }

    fn dot(n: u64) -> Kernel {
        let mut k = KernelBuilder::new("dot");
        let a = k.array("a", BitWidth::B64, n, MemClass::MainMemory);
        let b = k.array("b", BitWidth::B64, n, MemClass::MainMemory);
        let c = k.array("c", BitWidth::B64, 1, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(n), true);
        let va = r.load(a, AffineExpr::var(i));
        let vb = r.load(b, AffineExpr::var(i));
        let p = r.bin(Opcode::Mul, va, vb);
        let acc = r.reduce(Opcode::Add, p, i);
        r.store(c, AffineExpr::constant(0), acc);
        k.finish_region(r);
        k.build().unwrap()
    }

    #[test]
    fn dot_scalar_compiles() {
        let ck = compile_kernel(&dot(1024), &TransformConfig::fallback(), &features()).unwrap();
        let r = &ck.regions[0];
        assert_eq!(r.instances, 1024.0);
        assert_eq!(r.in_streams.len(), 2);
        assert_eq!(r.out_streams.len(), 1);
        // mul + accum
        assert_eq!(r.dfg.inst_count(), 2);
        assert_eq!(r.out_streams[0].pattern.total_elems(), 1.0);
        assert_eq!(r.dfg.recurrences().len(), 1);
    }

    #[test]
    fn dot_unrolled_by_4() {
        let cfg = TransformConfig {
            unroll: 4,
            ..TransformConfig::fallback()
        };
        let ck = compile_kernel(&dot(1024), &cfg, &features()).unwrap();
        let r = &ck.regions[0];
        assert_eq!(r.unroll, 4);
        assert_eq!(r.instances, 256.0);
        // 4 muls + 4 accums + 3 combine adds
        assert_eq!(r.dfg.inst_count(), 11);
        assert_eq!(r.dfg.recurrences().len(), 4);
        // Streams are 4-lane wide; total elements conserved.
        assert_eq!(r.in_streams[0].lanes, 4);
        assert_eq!(r.in_streams[0].pattern.total_elems(), 1024.0);
    }

    #[test]
    fn mm_stream_shapes() {
        // c[i][j] = Σ_k a[i][k] * b[k][j], n = 8
        let n = 8u64;
        let mut k = KernelBuilder::new("mm");
        let a = k.array("a", BitWidth::B64, n * n, MemClass::MainMemory);
        let b = k.array("b", BitWidth::B64, n * n, MemClass::MainMemory);
        let c = k.array("c", BitWidth::B64, n * n, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(n), true);
        let j = r.for_loop(TripCount::fixed(n), true);
        let kk = r.for_loop(TripCount::fixed(n), false);
        let va = r.load(
            a,
            AffineExpr::var(i)
                .scaled(n as i64)
                .plus(&AffineExpr::var(kk)),
        );
        let vb = r.load(
            b,
            AffineExpr::var(kk)
                .scaled(n as i64)
                .plus(&AffineExpr::var(j)),
        );
        let p = r.bin(Opcode::Mul, va, vb);
        let acc = r.reduce(Opcode::Add, p, kk);
        r.store(
            c,
            AffineExpr::var(i)
                .scaled(n as i64)
                .plus(&AffineExpr::var(j)),
            acc,
        );
        k.finish_region(r);
        let kernel = k.build().unwrap();

        let ck = compile_kernel(&kernel, &TransformConfig::fallback(), &features()).unwrap();
        let r = &ck.regions[0];
        assert_eq!(r.instances, 512.0);
        // a stream: stride over k is 1 elem → contiguous; one command per i
        // (depth 3 ⇒ commands = trips of loop 0).
        let sa = &r.in_streams[0];
        assert_eq!(sa.pattern.commands, 8);
        assert_eq!(sa.pattern.stride_bytes, 8);
        // b stream: innermost (k) stride is n elems → strided.
        let sb = &r.in_streams[1];
        assert_eq!(sb.pattern.stride_bytes, 64);
        // c written once per (i, j): 64 elements.
        assert_eq!(r.out_streams[0].pattern.total_elems(), 64.0);
    }

    #[test]
    fn indirect_lowering_and_fallback() {
        // s += a[b[i]]
        let mut k = KernelBuilder::new("gather");
        let a = k.array("a", BitWidth::B64, 4096, MemClass::MainMemory);
        let b = k.array("b", BitWidth::B64, 1024, MemClass::MainMemory);
        let s = k.array("s", BitWidth::B64, 1, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(1024), true);
        let v = r.load_indirect(a, b, AffineExpr::var(i));
        let acc = r.reduce(Opcode::Add, v, i);
        r.store(s, AffineExpr::constant(0), acc);
        k.finish_region(r);
        let kernel = k.build().unwrap();

        let on = compile_kernel(
            &kernel,
            &TransformConfig {
                indirect: true,
                ..TransformConfig::fallback()
            },
            &features(),
        )
        .unwrap();
        assert!(on.requires.indirect_memory);
        assert_eq!(on.regions[0].ctrl_ops, 0.0);
        // Index stream (not to fabric) + data stream.
        assert_eq!(on.regions[0].in_streams.len(), 2);
        assert!(!on.regions[0].in_streams[0].to_fabric);
        assert!(on.regions[0].in_streams[1].pattern.indirect);

        let off = compile_kernel(&kernel, &TransformConfig::fallback(), &features()).unwrap();
        assert!(!off.requires.indirect_memory);
        assert!(off.regions[0].ctrl_ops > 0.0);
        assert!(matches!(
            off.regions[0].in_streams[0].source,
            StreamSource::ControlCore
        ));
    }

    #[test]
    fn histogram_atomic_vs_fallbacks() {
        let mut k = KernelBuilder::new("hist");
        let h = k.array("h", BitWidth::B64, 1024, MemClass::Scratchpad);
        let b = k.array("b", BitWidth::B64, 65536, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(65536), true);
        let one = r.imm(1);
        r.update_indirect(h, b, AffineExpr::var(i), Opcode::Add, one);
        k.finish_region(r);
        let kernel = k.build().unwrap();

        let atomic = compile_kernel(
            &kernel,
            &TransformConfig {
                indirect: true,
                atomic_update: true,
                ..TransformConfig::fallback()
            },
            &features(),
        )
        .unwrap();
        assert!(atomic.requires.atomic_update);
        assert!(atomic.regions[0]
            .out_streams
            .iter()
            .any(|s| s.dir == StreamDir::AtomicUpdate));
        assert!(atomic.regions[0].dfg.recurrences().is_empty());

        let gather = compile_kernel(
            &kernel,
            &TransformConfig {
                indirect: true,
                ..TransformConfig::fallback()
            },
            &features(),
        )
        .unwrap();
        assert!(!gather.requires.atomic_update);
        assert_eq!(gather.regions[0].dfg.recurrences().len(), 1);

        let scalar = compile_kernel(&kernel, &TransformConfig::fallback(), &features()).unwrap();
        assert!(scalar.regions[0].ctrl_ops >= 6.0 * 65536.0);
    }

    #[test]
    fn join_stream_join_vs_fallback() {
        let mut k = KernelBuilder::new("join");
        let k0 = k.array("k0", BitWidth::B64, 768, MemClass::MainMemory);
        let v0 = k.array("v0", BitWidth::B64, 768, MemClass::MainMemory);
        let k1 = k.array("k1", BitWidth::B64, 768, MemClass::MainMemory);
        let v1 = k.array("v1", BitWidth::B64, 768, MemClass::MainMemory);
        let out = k.array("out", BitWidth::B64, 1, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let j = r.join_loop(
            JoinSide {
                key: k0,
                payloads: vec![v0],
                len: 768,
            },
            JoinSide {
                key: k1,
                payloads: vec![v1],
                len: 768,
            },
            0.5,
        );
        let a = r.load(v0, AffineExpr::var(j));
        let b = r.load(v1, AffineExpr::var(j));
        let p = r.bin(Opcode::Mul, a, b);
        let acc = r.reduce(Opcode::Add, p, j);
        r.store(out, AffineExpr::constant(0), acc);
        k.finish_region(r);
        let kernel = k.build().unwrap();

        let sj = compile_kernel(
            &kernel,
            &TransformConfig {
                stream_join: true,
                ..TransformConfig::fallback()
            },
            &features(),
        )
        .unwrap();
        assert_eq!(sj.requires.stream_join_pes, 1);
        assert!(sj.regions[0].dfg.has_stream_join());
        assert_eq!(sj.regions[0].ctrl_ops, 0.0);

        let fb = compile_kernel(&kernel, &TransformConfig::fallback(), &features()).unwrap();
        assert_eq!(fb.requires.stream_join_pes, 0);
        assert!(!fb.regions[0].dfg.has_stream_join());
        assert!(fb.regions[0].ctrl_ops > 0.0);
    }

    #[test]
    fn repetitive_update_forwards_when_it_fits() {
        // c[j] += a[i] * b[j] — Fig 7b.
        let (n, m) = (64u64, 32u64);
        let mut k = KernelBuilder::new("repupd");
        let a = k.array("a", BitWidth::B64, n, MemClass::MainMemory);
        let b = k.array("b", BitWidth::B64, m, MemClass::MainMemory);
        let c = k.array("c", BitWidth::B64, m, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(n), false);
        let j = r.for_loop(TripCount::fixed(m), true);
        let va = r.load(a, AffineExpr::var(i));
        let vb = r.load(b, AffineExpr::var(j));
        let p = r.bin(Opcode::Mul, va, vb);
        r.update(c, AffineExpr::var(j), Opcode::Add, p);
        k.finish_region(r);
        let kernel = k.build().unwrap();

        let fwd = compile_kernel(
            &kernel,
            &TransformConfig {
                forward: true,
                ..TransformConfig::fallback()
            },
            &features(),
        )
        .unwrap();
        assert!(fwd.forwarded_bytes > 0.0);
        assert!(fwd.regions[0]
            .in_streams
            .iter()
            .any(|s| matches!(s.source, StreamSource::Forward { .. })));

        let plain = compile_kernel(&kernel, &TransformConfig::fallback(), &features()).unwrap();
        assert_eq!(plain.forwarded_bytes, 0.0);
        // Bytes moved to/from memories (forwarded streams excluded).
        let memory_bytes = |r: &CompiledRegion| -> f64 {
            r.in_streams
                .iter()
                .chain(&r.out_streams)
                .filter(|s| matches!(s.source, StreamSource::Memory(_)))
                .map(|s| s.pattern.total_elems() * f64::from(s.elem_bytes))
                .sum()
        };
        assert!(memory_bytes(&plain.regions[0]) > memory_bytes(&fwd.regions[0]));
    }

    #[test]
    fn producer_consumer_pipelines() {
        let mut k = KernelBuilder::new("pc");
        let a = k.array("a", BitWidth::B64, 64, MemClass::MainMemory);
        let b = k.array("b", BitWidth::B64, 64, MemClass::MainMemory);
        let d = k.array("d", BitWidth::B64, 64, MemClass::MainMemory);
        let mut r0 = k.region("produce", 1.0);
        let i0 = r0.for_loop(TripCount::fixed(16), false);
        let j0 = r0.for_loop(TripCount::fixed(64), true);
        let va = r0.load(a, AffineExpr::var(j0));
        let acc = r0.reduce(Opcode::Add, va, j0);
        let _ = i0;
        r0.yield_value(acc);
        let r0i = k.finish_region(r0);
        let mut r1 = k.region("consume", 1.0);
        let _i1 = r1.for_loop(TripCount::fixed(16), false);
        let j1 = r1.for_loop(TripCount::fixed(64), true);
        let v = r1.consume(r0i, 0);
        let vb = r1.load(b, AffineExpr::var(j1));
        let p = r1.bin(Opcode::Mul, v, vb);
        r1.store(d, AffineExpr::var(j1), p);
        k.finish_region(r1);
        let kernel = k.build().unwrap();

        let fwd = compile_kernel(
            &kernel,
            &TransformConfig {
                forward: true,
                ..TransformConfig::fallback()
            },
            &features(),
        )
        .unwrap();
        assert!(fwd.regions[0].pipelined_with_next);
        assert!(fwd.regions[1]
            .in_streams
            .iter()
            .any(|s| matches!(s.source, StreamSource::Forward { from_region: 0, .. })));

        let plain = compile_kernel(&kernel, &TransformConfig::fallback(), &features()).unwrap();
        assert!(!plain.regions[0].pipelined_with_next);
    }

    #[test]
    fn loads_are_deduplicated() {
        // a[i] used twice → one stream.
        let mut k = KernelBuilder::new("dedupe");
        let a = k.array("a", BitWidth::B64, 64, MemClass::MainMemory);
        let c = k.array("c", BitWidth::B64, 64, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(64), true);
        let v1 = r.load(a, AffineExpr::var(i));
        let v2 = r.load(a, AffineExpr::var(i));
        let s = r.bin(Opcode::Mul, v1, v2);
        r.store(c, AffineExpr::var(i), s);
        k.finish_region(r);
        let kernel = k.build().unwrap();
        let ck = compile_kernel(&kernel, &TransformConfig::fallback(), &features()).unwrap();
        assert_eq!(ck.regions[0].in_streams.len(), 1);
    }

    #[test]
    fn inst_counts_accumulate_into_requirements() {
        let ck = compile_kernel(&dot(64), &TransformConfig::fallback(), &features()).unwrap();
        assert_eq!(ck.requires.instruction_slots, 2);
        assert!(ck.requires.ops.contains(Opcode::Mul));
        assert!(ck.requires.ops.contains(Opcode::Add));
    }
}
