//! Functional (value-level) interpreter for source kernels.
//!
//! Executes a [`Kernel`] exactly per the IR's semantics — loop nests,
//! affine/indirect accesses, reductions, predicated selects, merge joins,
//! in-place updates, and producer-consumer yields — over real data. The
//! timing simulator (`dsagen-sim`) answers *how fast*; this answers *what*,
//! and is used to validate that every evaluation workload computes what its
//! reference implementation computes.
//!
//! Statement firing semantics: a statement executes once per complete
//! iteration of the loops its index (and value) actually varies over — a
//! store indexed by `(i, j)` under an inner `k` reduction fires once per
//! `(i, j)`, reading the completed accumulation. [`SrcExpr::Consume`]
//! values are indexed by the consumer's outermost loop variable.
//!
//! # Example
//!
//! ```
//! use dsagen_adg::{BitWidth, Opcode};
//! use dsagen_dfg::{interp, AffineExpr, KernelBuilder, MemClass, TripCount};
//! use std::collections::BTreeMap;
//!
//! // acc += a[i] * b[i]
//! let mut k = KernelBuilder::new("dot");
//! let a = k.array("a", BitWidth::B64, 4, MemClass::MainMemory);
//! let b = k.array("b", BitWidth::B64, 4, MemClass::MainMemory);
//! let c = k.array("c", BitWidth::B64, 1, MemClass::MainMemory);
//! let mut r = k.region("body", 1.0);
//! let i = r.for_loop(TripCount::fixed(4), true);
//! let va = r.load(a, AffineExpr::var(i));
//! let vb = r.load(b, AffineExpr::var(i));
//! let p = r.bin(Opcode::FMul, va, vb);
//! let acc = r.reduce(Opcode::FAdd, p, i);
//! r.store(c, AffineExpr::constant(0), acc);
//! k.finish_region(r);
//! let kernel = k.build()?;
//!
//! let mut inputs = BTreeMap::new();
//! inputs.insert("a".to_string(), vec![1.0, 2.0, 3.0, 4.0]);
//! inputs.insert("b".to_string(), vec![10.0, 20.0, 30.0, 40.0]);
//! let out = interp::execute(&kernel, &inputs)?;
//! assert_eq!(out["c"][0], 300.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use dsagen_adg::Opcode;

use crate::{
    ArrayId, ExprId, Index, Kernel, LoopKind, LoopVar, Region, SrcExpr, SrcStmt,
};

/// A functional-execution failure.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ExecError {
    /// An access evaluated outside its array's declared bounds.
    OutOfBounds {
        /// Array name.
        array: String,
        /// Evaluated index.
        index: i64,
        /// Declared length.
        len: u64,
    },
    /// A load inside a join loop referenced an array on neither side.
    JoinSideUnknown {
        /// Array name.
        array: String,
    },
    /// A consume ran out of yielded values.
    ConsumeUnderflow {
        /// Producing region index.
        region: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::OutOfBounds { array, index, len } => {
                write!(f, "access to '{array}[{index}]' outside length {len}")
            }
            ExecError::JoinSideUnknown { array } => {
                write!(f, "array '{array}' is indexed by the join variable but belongs to neither side")
            }
            ExecError::ConsumeUnderflow { region } => {
                write!(f, "consume exhausted the yields of region {region}")
            }
        }
    }
}

impl Error for ExecError {}

/// Executes `kernel` over `inputs` (arrays by declared name; missing arrays
/// start zeroed) and returns the final contents of every array.
///
/// # Errors
///
/// Returns [`ExecError`] on out-of-bounds accesses, unknown join sides, or
/// consume/yield mismatches — all of which indicate a malformed kernel, so
/// this doubles as a semantic validator.
pub fn execute(
    kernel: &Kernel,
    inputs: &BTreeMap<String, Vec<f64>>,
) -> Result<BTreeMap<String, Vec<f64>>, ExecError> {
    let mut mem: Vec<Vec<f64>> = kernel
        .arrays
        .iter()
        .map(|decl| {
            let mut v = inputs.get(&decl.name).cloned().unwrap_or_default();
            v.resize(decl.len as usize, 0.0);
            v
        })
        .collect();
    let mut yields: Vec<Vec<Vec<f64>>> = Vec::with_capacity(kernel.regions.len());

    for region in &kernel.regions {
        let plan = Plan::new(region);
        let mut my_yields = vec![Vec::new(); plan.yields];
        RegionExec::new(kernel, region, &plan, &mut mem, &yields, &mut my_yields).walk(0)?;
        yields.push(my_yields);
    }

    Ok(kernel
        .arrays
        .iter()
        .zip(mem)
        .map(|(decl, data)| (decl.name.clone(), data))
        .collect())
}

/// Which loop-index tuple an access's address reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    /// The loop indices as they stand: no join varies the address, or the
    /// array is on the join's left side, whose pointer is the join
    /// variable's value.
    Loop,
    /// The loop indices with the join variable replaced by the right
    /// side's pointer.
    Right,
    /// Indexed by the join variable but on neither side: evaluating it is
    /// [`ExecError::JoinSideUnknown`].
    Neither,
}

/// One memory access, lowered from its [`Index`]: `array[base + strides·i]`,
/// or `array[via[base + strides·i]]` when indirect.
#[derive(Debug, Clone, Copy)]
struct Access {
    array: usize,
    /// The index array of an indirect access.
    via: Option<usize>,
    base: i64,
    /// Start of this access's stride row (one stride per loop depth) in
    /// [`Plan::strides`].
    row: usize,
    side: Side,
}

/// An expression node with its ids flattened and its access lowered.
#[derive(Debug, Clone, Copy)]
enum Node {
    Load(Access),
    Imm(f64),
    Un(Opcode, usize),
    Bin(Opcode, usize, usize),
    Mux(usize, usize, usize),
    /// Reads the accumulator slot.
    Reduce(usize),
    Consume {
        region: usize,
        yield_idx: usize,
    },
}

/// What a statement does when it fires.
#[derive(Debug, Clone, Copy)]
enum Effect {
    Store {
        access: Access,
        value: usize,
    },
    Update {
        access: Access,
        op: Opcode,
        value: usize,
    },
    Yield {
        slot: usize,
        value: usize,
    },
}

/// One reduction: each iteration folds `body` into its accumulator.
#[derive(Debug, Clone, Copy)]
struct Reduction {
    op: Opcode,
    body: usize,
}

/// A region's tables, built once per [`execute`] call so that an iteration
/// neither walks the IR nor allocates (beyond the values it yields).
#[derive(Debug)]
struct Plan {
    /// One node per expression, in expression order, and whether its value
    /// is kept for the rest of the iteration.
    nodes: Vec<(Node, bool)>,
    /// Every reduction, in expression order (the order they fold in); its
    /// position is its accumulator slot.
    reduces: Vec<Reduction>,
    /// Per loop level, the accumulator slots entering that loop resets.
    resets: Vec<Vec<usize>>,
    /// Per statement: its firing level (the deepest loop its index or value
    /// varies over) and its effect.
    stmts: Vec<(usize, Effect)>,
    /// Concatenated stride rows of every access.
    strides: Vec<i64>,
    /// Number of `Yield` statements.
    yields: usize,
}

impl Plan {
    fn new(region: &Region) -> Plan {
        let depth = region.depth();
        let mut strides = Vec::new();
        let mut lower = |array: ArrayId, index: &Index| -> Access {
            let (via, e) = match index {
                Index::Affine(e) => (None, e),
                Index::Indirect {
                    index_array,
                    index_expr,
                } => (Some(*index_array), index_expr),
            };
            // The join side is decided by the array the affine part
            // addresses: the index array of an indirect access.
            let walked = via.unwrap_or(array);
            let side = match region.join_loop() {
                Some((jd, LoopKind::Join { a, b, .. })) if e.stride_of(LoopVar(jd)) != 0 => {
                    if a.key == walked || a.payloads.contains(&walked) {
                        Side::Loop
                    } else if b.key == walked || b.payloads.contains(&walked) {
                        Side::Right
                    } else {
                        Side::Neither
                    }
                }
                _ => Side::Loop,
            };
            let row = strides.len();
            strides.extend((0..depth).map(|d| e.stride_of(LoopVar(d))));
            Access {
                array: array.0,
                via: via.map(|v| v.0),
                base: e.base(),
                row,
                side,
            }
        };

        // Who reads each value: its operand edges, the fold of a reduction,
        // and the statements. Each reader reads at most once per iteration,
        // so a value with one reader is computed at most once anyway.
        let mut readers = vec![0u32; region.exprs.len()];
        let mut backward = true;
        let mut nodes = Vec::with_capacity(region.exprs.len());
        let mut reduces = Vec::new();
        let mut resets = vec![Vec::new(); depth];
        for (i, e) in region.exprs.iter().enumerate() {
            let mut read = |x: &ExprId| {
                readers[x.0] += 1;
                backward &= x.0 < i;
                x.0
            };
            nodes.push(match e {
                SrcExpr::Load { array, index } => Node::Load(lower(*array, index)),
                SrcExpr::Imm(v) => Node::Imm(*v as f64),
                SrcExpr::Un { op, a } => Node::Un(*op, read(a)),
                SrcExpr::Bin { op, a, b } => Node::Bin(*op, read(a), read(b)),
                SrcExpr::Mux { cond, t, f } => Node::Mux(read(cond), read(t), read(f)),
                SrcExpr::Reduce { op, body, level } => {
                    if let Some(reset) = resets.get_mut(level.0) {
                        reset.push(reduces.len());
                    }
                    reduces.push(Reduction {
                        op: *op,
                        body: read(body),
                    });
                    Node::Reduce(reduces.len() - 1)
                }
                SrcExpr::Consume { region, yield_idx } => Node::Consume {
                    region: *region,
                    yield_idx: *yield_idx,
                },
            });
        }
        for stmt in &region.stmts {
            let (SrcStmt::Store { value, .. }
            | SrcStmt::Update { value, .. }
            | SrcStmt::Yield { value }) = stmt;
            readers[value.0] += 1;
        }
        // Keeping a value until the iteration ends is exact when every
        // expression reads only earlier ones (as `Kernel::validate`
        // requires): reductions fold in expression order, so every
        // accumulator an expression reads has folded before anything
        // evaluates that expression, and memory changes only after the
        // iteration's statements. Immediates and accumulator reads cost less
        // than the lookup.
        let nodes = nodes
            .into_iter()
            .zip(readers)
            .map(|(node, readers)| {
                let cheap = matches!(node, Node::Imm(_) | Node::Reduce(_));
                (node, backward && readers > 1 && !cheap)
            })
            .collect();

        let expr_level = |id: ExprId| region.rate_level(id).map_or(0, |v| v.0);
        let mut yields = 0;
        let stmts = region
            .stmts
            .iter()
            .map(|stmt| match stmt {
                SrcStmt::Store {
                    array,
                    index,
                    value,
                } => (
                    stmt_level(index, expr_level(*value)),
                    Effect::Store {
                        access: lower(*array, index),
                        value: value.0,
                    },
                ),
                SrcStmt::Update {
                    array,
                    index,
                    op,
                    value,
                } => (
                    stmt_level(index, expr_level(*value)),
                    Effect::Update {
                        access: lower(*array, index),
                        op: *op,
                        value: value.0,
                    },
                ),
                SrcStmt::Yield { value } => {
                    yields += 1;
                    (
                        expr_level(*value),
                        Effect::Yield {
                            slot: yields - 1,
                            value: value.0,
                        },
                    )
                }
            })
            .collect();

        Plan {
            nodes,
            reduces,
            resets,
            stmts,
            strides,
            yields,
        }
    }
}

/// The firing level of a store or update: the deeper of its index's
/// innermost variable and its value's rate level.
fn stmt_level(index: &Index, value_level: usize) -> usize {
    index
        .driving_expr()
        .innermost_var()
        .map_or(0, |v| v.0)
        .max(value_level)
}

/// One region's execution state.
struct RegionExec<'a> {
    kernel: &'a Kernel,
    region: &'a Region,
    plan: &'a Plan,
    mem: &'a mut [Vec<f64>],
    yields: &'a [Vec<Vec<f64>>],
    my_yields: &'a mut [Vec<f64>],
    /// Current loop indices; a join loop's entry is its left pointer.
    idx: Vec<i64>,
    /// `idx` with the join loop's entry replaced by its right pointer.
    idx_right: Vec<i64>,
    /// Trip count of each `For` loop at its current entry; 0 for a join,
    /// whose every match counts as its last iteration.
    trips: Vec<i64>,
    /// Running accumulator per reduction slot (`None` = not started).
    acc: Vec<Option<f64>>,
    /// Per kept expression, its last value and the iteration it was
    /// computed in.
    memo: Vec<f64>,
    stamp: Vec<u64>,
    /// Iterations begun so far.
    iteration: u64,
    /// Writes of the firing statements, landed together after all of them.
    writes: Vec<(usize, usize, f64)>,
    /// The join's key arrays as they were when the join loop was entered.
    keys: [Vec<f64>; 2],
}

impl<'a> RegionExec<'a> {
    fn new(
        kernel: &'a Kernel,
        region: &'a Region,
        plan: &'a Plan,
        mem: &'a mut [Vec<f64>],
        yields: &'a [Vec<Vec<f64>>],
        my_yields: &'a mut [Vec<f64>],
    ) -> Self {
        let depth = region.depth();
        let exprs = plan.nodes.len();
        RegionExec {
            kernel,
            region,
            plan,
            mem,
            yields,
            my_yields,
            idx: vec![0; depth],
            idx_right: vec![0; depth],
            trips: vec![0; depth],
            acc: vec![None; plan.reduces.len()],
            memo: vec![0.0; exprs],
            stamp: vec![0; exprs],
            iteration: 0,
            writes: Vec::new(),
            keys: [Vec::new(), Vec::new()],
        }
    }

    /// Recursively walks loop levels; at the innermost level evaluates the
    /// body and fires the statements whose rate boundary completes.
    fn walk(&mut self, level: usize) -> Result<(), ExecError> {
        if level == self.idx.len() {
            return self.body();
        }
        // Entering loop `level`'s block: reducers over exactly this level
        // start a fresh accumulation.
        let (plan, region) = (self.plan, self.region);
        for &slot in &plan.resets[level] {
            self.acc[slot] = None;
        }
        match &region.loops[level].kind {
            LoopKind::For { trip } => {
                let outer = if level == 0 { 0 } else { self.idx[level - 1] };
                let count = trip.at(outer);
                self.trips[level] = count as i64;
                for i in 0..count as i64 {
                    self.idx[level] = i;
                    self.idx_right[level] = i;
                    self.walk(level + 1)?;
                }
                Ok(())
            }
            LoopKind::Join { a, b, .. } => {
                // Two-pointer sorted merge (§IV-E, Fig 8a) over the keys as
                // they stand at entry: writes inside the loop do not move it.
                let mut lens = [0; 2];
                for (k, side) in [a, b].into_iter().enumerate() {
                    let data = &self.mem[side.key.0];
                    lens[k] = side.len.min(data.len() as u64) as usize;
                    self.keys[k].clear();
                    self.keys[k].extend_from_slice(&data[..lens[k]]);
                }
                let (mut i0, mut i1) = (0, 0);
                while i0 < lens[0] && i1 < lens[1] {
                    let (k0, k1) = (self.keys[0][i0], self.keys[1][i1]);
                    if k0 == k1 {
                        // Match: the body computes, both pointers advance.
                        self.idx[level] = i0 as i64;
                        self.idx_right[level] = i1 as i64;
                        self.walk(level + 1)?;
                        i0 += 1;
                        i1 += 1;
                    } else if k0 < k1 {
                        i0 += 1;
                    } else {
                        i1 += 1;
                    }
                }
                Ok(())
            }
        }
    }

    /// Evaluates the DAG once at the current index tuple, accumulates
    /// reductions, and fires boundary statements.
    fn body(&mut self) -> Result<(), ExecError> {
        let plan = self.plan;
        self.iteration += 1;
        // Accumulate every reduction this iteration; a later reduction (or
        // a statement) reading an earlier one sees its updated value.
        for (slot, r) in plan.reduces.iter().enumerate() {
            let v = self.eval(r.body)?;
            let acc = &mut self.acc[slot];
            *acc = Some(match *acc {
                None => v,
                Some(c) => fold(r.op, c, v),
            });
        }

        // A statement fires when every loop deeper than its level is at its
        // last iteration, i.e. when its level reaches past `boundary`.
        let mut boundary = self.idx.len();
        while boundary > 0 && self.idx[boundary - 1] + 1 >= self.trips[boundary - 1] {
            boundary -= 1;
        }
        // All values and addresses are evaluated against the
        // *pre-iteration* memory state (streams are hoisted; a store in this
        // firing is not visible to this firing's loads), then the writes
        // land together.
        for &(level, effect) in &plan.stmts {
            if level + 1 < boundary {
                continue;
            }
            match effect {
                Effect::Store { access, value } => {
                    let v = self.eval(value)?;
                    let at = self.address(&access)?;
                    self.writes.push((access.array, at, v));
                }
                Effect::Update { access, op, value } => {
                    let v = self.eval(value)?;
                    let at = self.address(&access)?;
                    let old = self.mem[access.array][at];
                    let new = match op {
                        Opcode::Add | Opcode::FAdd => old + v,
                        Opcode::Sub | Opcode::FSub => old - v,
                        other => other.eval_scalar(&[old, v]),
                    };
                    self.writes.push((access.array, at, new));
                }
                Effect::Yield { slot, value } => {
                    let v = self.eval(value)?;
                    self.my_yields[slot].push(v);
                }
            }
        }
        for &(array, at, v) in &self.writes {
            self.mem[array][at] = v;
        }
        self.writes.clear();
        Ok(())
    }

    /// Resolves an access to a bounds-checked element offset.
    #[inline(always)]
    fn address(&self, a: &Access) -> Result<usize, ExecError> {
        let vals = match a.side {
            Side::Loop => &self.idx,
            Side::Right => &self.idx_right,
            Side::Neither => {
                return Err(ExecError::JoinSideUnknown {
                    array: self.kernel.arrays[a.via.unwrap_or(a.array)].name.clone(),
                })
            }
        };
        let strides = &self.plan.strides[a.row..a.row + vals.len()];
        let pos = a.base + strides.iter().zip(vals).map(|(k, v)| k * v).sum::<i64>();
        let at = match a.via {
            None => pos,
            Some(via) => {
                let inner = &self.kernel.arrays[via];
                self.mem[via][check(pos, inner.len, &inner.name)?] as i64
            }
        };
        let decl = &self.kernel.arrays[a.array];
        check(at, decl.len, &decl.name)
    }

    /// [`RegionExec::eval`] with a single-reader load or an immediate
    /// evaluated in place.
    #[inline(always)]
    fn operand(&mut self, id: usize) -> Result<f64, ExecError> {
        match self.plan.nodes[id] {
            (Node::Load(access), false) => {
                let at = self.address(&access)?;
                Ok(self.mem[access.array][at])
            }
            (Node::Imm(v), _) => Ok(v),
            _ => self.eval(id),
        }
    }

    /// Evaluates expression `id`, or returns the value a kept expression
    /// already has this iteration.
    fn eval(&mut self, id: usize) -> Result<f64, ExecError> {
        let plan = self.plan;
        let (node, keep) = plan.nodes[id];
        if keep && self.stamp[id] == self.iteration {
            return Ok(self.memo[id]);
        }
        let v = match node {
            Node::Load(access) => {
                let at = self.address(&access)?;
                self.mem[access.array][at]
            }
            Node::Imm(v) => v,
            Node::Un(op, a) => {
                let x = self.operand(a)?;
                op.eval_scalar(&[x])
            }
            Node::Bin(op, a, b) => {
                let x = self.operand(a)?;
                let y = self.operand(b)?;
                // The float ops most kernels are made of, in place; every
                // other op through `eval_scalar`, which computes these the
                // same way.
                match op {
                    Opcode::FAdd => x + y,
                    Opcode::FSub => x - y,
                    Opcode::FMul => x * y,
                    _ => op.eval_scalar(&[x, y]),
                }
            }
            Node::Mux(cond, t, f) => {
                let c = self.eval(cond)?;
                if c != 0.0 {
                    self.eval(t)?
                } else {
                    self.eval(f)?
                }
            }
            Node::Reduce(slot) => self.acc[slot].unwrap_or(0.0),
            Node::Consume { region, yield_idx } => {
                let k = self.idx.first().copied().unwrap_or(0) as usize;
                self.yields
                    .get(region)
                    .and_then(|r| r.get(yield_idx))
                    .and_then(|vals| vals.get(k))
                    .copied()
                    .ok_or(ExecError::ConsumeUnderflow { region })?
            }
        };
        if keep {
            self.memo[id] = v;
            self.stamp[id] = self.iteration;
        }
        Ok(v)
    }
}

/// Folds `v` into a running accumulation `c`.
fn fold(op: Opcode, c: f64, v: f64) -> f64 {
    match op {
        Opcode::Add | Opcode::FAdd => c + v,
        Opcode::Mul | Opcode::FMul => c * v,
        Opcode::Min | Opcode::FMin => c.min(v),
        Opcode::Max | Opcode::FMax => c.max(v),
        other if other.arity() == 2 => other.eval_scalar(&[c, v]),
        other => other.eval_scalar(&[c]),
    }
}

fn check(at: i64, len: u64, name: &str) -> Result<usize, ExecError> {
    if at < 0 || at as u64 >= len {
        return Err(ExecError::OutOfBounds {
            array: name.to_string(),
            index: at,
            len,
        });
    }
    Ok(at as usize)
}

/// The interpreter before its per-region tables, kept as the oracle the
/// generated-kernel property compares [`execute`] against: it clones every
/// statement and expression it evaluates, rebuilds the reduce list and
/// recomputes firing levels on every iteration, keys accumulators in a
/// `BTreeMap`, and re-walks shared sub-expressions.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn execute(
        kernel: &Kernel,
        inputs: &BTreeMap<String, Vec<f64>>,
    ) -> Result<BTreeMap<String, Vec<f64>>, ExecError> {
        let mut mem: Vec<Vec<f64>> = kernel
            .arrays
            .iter()
            .map(|decl| {
                let mut v = inputs.get(&decl.name).cloned().unwrap_or_default();
                v.resize(decl.len as usize, 0.0);
                v
            })
            .collect();
        let mut yields: Vec<Vec<Vec<f64>>> = Vec::with_capacity(kernel.regions.len());

        for region in &kernel.regions {
            let n_yields = region
                .stmts
                .iter()
                .filter(|s| matches!(s, SrcStmt::Yield { .. }))
                .count();
            let mut my_yields = vec![Vec::new(); n_yields];
            let mut exec = RegionExec {
                kernel,
                region,
                mem: &mut mem,
                yields: &yields,
                my_yields: &mut my_yields,
                acc: BTreeMap::new(),
                join: None,
            };
            exec.run()?;
            yields.push(my_yields);
        }

        Ok(kernel
            .arrays
            .iter()
            .zip(mem)
            .map(|(decl, data)| (decl.name.clone(), data))
            .collect())
    }

    /// Join-loop pointer state during one region execution.
    struct JoinState {
        depth: usize,
        i0: i64,
        i1: i64,
    }

    struct RegionExec<'a> {
        kernel: &'a Kernel,
        region: &'a Region,
        mem: &'a mut Vec<Vec<f64>>,
        yields: &'a [Vec<Vec<f64>>],
        my_yields: &'a mut Vec<Vec<f64>>,
        /// Running accumulator per Reduce expression.
        acc: BTreeMap<usize, f64>,
        join: Option<JoinState>,
    }

    impl RegionExec<'_> {
        fn run(&mut self) -> Result<(), ExecError> {
            let depth = self.region.depth();
            self.walk(0, &mut vec![0i64; depth])
        }

        /// Recursively walks loop levels; at the innermost level evaluates the
        /// body and fires the statements whose rate boundary completes.
        fn walk(&mut self, level: usize, idx: &mut Vec<i64>) -> Result<(), ExecError> {
            if level == self.region.depth() {
                return self.body(idx);
            }
            // Entering loop `level`'s block: reducers over exactly this level
            // start a fresh accumulation.
            self.reset_accumulators(level);
            match self.region.loops[level].kind.clone() {
                LoopKind::For { trip } => {
                    let outer = if level == 0 { 0 } else { idx[level - 1] };
                    let count = trip.at(outer);
                    for i in 0..count as i64 {
                        idx[level] = i;
                        self.walk(level + 1, idx)?;
                    }
                    // Zero-trip loops still need deeper statements skipped —
                    // nothing to do, by construction.
                    Ok(())
                }
                LoopKind::Join { a, b, .. } => {
                    // Two-pointer sorted merge (§IV-E, Fig 8a).
                    let ka = self.array_data(a.key)?.to_vec();
                    let kb = self.array_data(b.key)?.to_vec();
                    self.join = Some(JoinState {
                        depth: level,
                        i0: 0,
                        i1: 0,
                    });
                    let (la, lb) = (a.len.min(ka.len() as u64), b.len.min(kb.len() as u64));
                    loop {
                        let js = self.join.as_ref().expect("join state set above");
                        let (i0, i1) = (js.i0, js.i1);
                        if i0 >= la as i64 || i1 >= lb as i64 {
                            break;
                        }
                        let (k0, k1) = (ka[i0 as usize], kb[i1 as usize]);
                        if k0 == k1 {
                            // Match: the body computes, both pointers advance.
                            idx[level] = i0;
                            self.walk(level + 1, idx)?;
                            let js = self.join.as_mut().expect("set");
                            js.i0 += 1;
                            js.i1 += 1;
                        } else if k0 < k1 {
                            self.join.as_mut().expect("set").i0 += 1;
                        } else {
                            self.join.as_mut().expect("set").i1 += 1;
                        }
                    }
                    self.join = None;
                    // Join regions fire their post-loop statements once.
                    Ok(())
                }
            }
        }

        /// Resets accumulators reducing over exactly `level` — called once when
        /// that loop's block begins (deeper reducers reset when their own loop
        /// block begins).
        fn reset_accumulators(&mut self, level: usize) {
            let ids: Vec<usize> = self
                .region
                .iter_exprs()
                .filter_map(|(id, e)| match e {
                    SrcExpr::Reduce { level: l, .. } if l.0 == level => Some(id.0),
                    _ => None,
                })
                .collect();
            for id in ids {
                self.acc.remove(&id);
            }
        }

        /// Evaluates the DAG once at the current index tuple, accumulates
        /// reductions, and fires boundary statements.
        fn body(&mut self, idx: &[i64]) -> Result<(), ExecError> {
            // Accumulate every reduction this iteration.
            let reduce_ids: Vec<(usize, Opcode, ExprId)> = self
                .region
                .iter_exprs()
                .filter_map(|(id, e)| match e {
                    SrcExpr::Reduce { op, body, .. } => Some((id.0, *op, *body)),
                    _ => None,
                })
                .collect();
            for (id, op, body) in reduce_ids {
                let v = self.eval(body, idx)?;
                let cur = self.acc.get(&id).copied();
                let next = match cur {
                    None => v,
                    Some(c) => match op {
                        Opcode::Add | Opcode::FAdd => c + v,
                        Opcode::Mul | Opcode::FMul => c * v,
                        Opcode::Min | Opcode::FMin => c.min(v),
                        Opcode::Max | Opcode::FMax => c.max(v),
                        other => other.eval_scalar(&match other.arity() {
                            2 => vec![c, v],
                            _ => vec![c],
                        }),
                    },
                };
                self.acc.insert(id, next);
            }

            // Fire statements whose rate boundary completes here. All values
            // and addresses are evaluated against the *pre-iteration* memory
            // state (streams are hoisted; a store in this firing is not
            // visible to this firing's loads), then the writes land together.
            let stmts = self.region.stmts.clone();
            let mut writes: Vec<(usize, usize, f64)> = Vec::new();
            let mut yield_cursor = 0usize;
            for stmt in &stmts {
                let stmt_level = self.stmt_level(stmt);
                let fires = self.deeper_loops_complete(stmt_level, idx);
                match stmt {
                    SrcStmt::Store {
                        array,
                        index,
                        value,
                    } => {
                        if fires {
                            let v = self.eval(*value, idx)?;
                            let at = self.resolve(*array, index, idx)?;
                            writes.push((array.0, at, v));
                        }
                    }
                    SrcStmt::Update {
                        array,
                        index,
                        op,
                        value,
                    } => {
                        if fires {
                            let v = self.eval(*value, idx)?;
                            let at = self.resolve(*array, index, idx)?;
                            let old = self.mem[array.0][at];
                            let new = match op {
                                Opcode::Add | Opcode::FAdd => old + v,
                                Opcode::Sub | Opcode::FSub => old - v,
                                other => other.eval_scalar(&[old, v]),
                            };
                            writes.push((array.0, at, new));
                        }
                    }
                    SrcStmt::Yield { value } => {
                        if fires {
                            let v = self.eval(*value, idx)?;
                            self.my_yields[yield_cursor].push(v);
                        }
                        yield_cursor += 1;
                    }
                }
            }
            for (array, at, v) in writes {
                self.mem[array][at] = v;
            }
            Ok(())
        }

        /// The deepest loop a statement's effect varies over.
        fn stmt_level(&self, stmt: &SrcStmt) -> usize {
            let expr_level = |id: ExprId| self.region.rate_level(id).map_or(0, |v| v.0);
            match stmt {
                SrcStmt::Store { index, value, .. } | SrcStmt::Update { index, value, .. } => {
                    let idx_level = index.driving_expr().innermost_var().map_or(0, |v| v.0);
                    idx_level.max(expr_level(*value))
                }
                SrcStmt::Yield { value } => expr_level(*value),
            }
        }

        /// Whether every loop deeper than `level` is at its final iteration —
        /// the statement's rate boundary.
        fn deeper_loops_complete(&self, level: usize, idx: &[i64]) -> bool {
            for d in (level + 1)..self.region.depth() {
                match &self.region.loops[d].kind {
                    LoopKind::For { trip } => {
                        let outer = if d == 0 { 0 } else { idx[d - 1] };
                        if idx[d] + 1 < trip.at(outer) as i64 {
                            return false;
                        }
                    }
                    // A join loop at a deeper level: its statements fire per
                    // match; treat any iteration as boundary.
                    LoopKind::Join { .. } => {}
                }
            }
            true
        }

        fn array_data(&self, id: ArrayId) -> Result<&[f64], ExecError> {
            Ok(&self.mem[id.0])
        }

        /// Resolves an index to a bounds-checked element offset.
        fn resolve(&self, array: ArrayId, index: &Index, idx: &[i64]) -> Result<usize, ExecError> {
            let decl = self.kernel.array(array);
            let at = match index {
                Index::Affine(e) => self.join_aware_eval(array, e, idx)?,
                Index::Indirect {
                    index_array,
                    index_expr,
                } => {
                    let pos = self.join_aware_eval(*index_array, index_expr, idx)?;
                    let inner = self.kernel.array(*index_array);
                    let pos_checked = check(pos, inner.len, &inner.name)?;
                    self.mem[index_array.0][pos_checked] as i64
                }
            };
            check(at, decl.len, &decl.name)
        }

        /// Evaluates an affine index, substituting join pointers for the join
        /// variable based on which side `array` belongs to.
        fn join_aware_eval(
            &self,
            array: ArrayId,
            e: &crate::AffineExpr,
            idx: &[i64],
        ) -> Result<i64, ExecError> {
            let Some(js) = &self.join else {
                return Ok(e.eval(idx));
            };
            let jvar = LoopVar(js.depth);
            if e.stride_of(jvar) == 0 {
                return Ok(e.eval(idx));
            }
            // Which side does the array belong to?
            let Some((_, LoopKind::Join { a, b, .. })) = self.region.join_loop() else {
                return Ok(e.eval(idx));
            };
            let ptr = if a.key == array || a.payloads.contains(&array) {
                js.i0
            } else if b.key == array || b.payloads.contains(&array) {
                js.i1
            } else {
                return Err(ExecError::JoinSideUnknown {
                    array: self.kernel.array(array).name.clone(),
                });
            };
            let mut vals = idx.to_vec();
            vals[js.depth] = ptr;
            Ok(e.eval(&vals))
        }

        fn eval(&mut self, id: ExprId, idx: &[i64]) -> Result<f64, ExecError> {
            match self.region.expr(id).clone() {
                SrcExpr::Load { array, index } => {
                    let at = self.resolve(array, &index, idx)?;
                    Ok(self.mem[array.0][at])
                }
                SrcExpr::Imm(v) => Ok(v as f64),
                SrcExpr::Un { op, a } => {
                    let x = self.eval(a, idx)?;
                    Ok(op.eval_scalar(&[x]))
                }
                SrcExpr::Bin { op, a, b } => {
                    let x = self.eval(a, idx)?;
                    let y = self.eval(b, idx)?;
                    Ok(op.eval_scalar(&[x, y]))
                }
                SrcExpr::Mux { cond, t, f } => {
                    let c = self.eval(cond, idx)?;
                    if c != 0.0 {
                        self.eval(t, idx)
                    } else {
                        self.eval(f, idx)
                    }
                }
                SrcExpr::Reduce { .. } => Ok(self.acc.get(&id.0).copied().unwrap_or(0.0)),
                SrcExpr::Consume { region, yield_idx } => {
                    let k = idx.first().copied().unwrap_or(0) as usize;
                    self.yields
                        .get(region)
                        .and_then(|r| r.get(yield_idx))
                        .and_then(|vals| vals.get(k))
                        .copied()
                        .ok_or(ExecError::ConsumeUnderflow { region })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use dsagen_adg::{BitWidth, Opcode};

    use proptest::prelude::*;

    use super::*;
    use crate::{testgen, AffineExpr, JoinSide, KernelBuilder, MemClass, TripCount};

    fn run(kernel: &Kernel, inputs: &[(&str, Vec<f64>)]) -> BTreeMap<String, Vec<f64>> {
        let map: BTreeMap<String, Vec<f64>> = inputs
            .iter()
            .map(|(n, v)| (n.to_string(), v.clone()))
            .collect();
        execute(kernel, &map).expect("executes")
    }

    #[test]
    fn axpy_semantics() {
        let mut k = KernelBuilder::new("axpy");
        let a = k.array("a", BitWidth::B64, 4, MemClass::MainMemory);
        let b = k.array("b", BitWidth::B64, 4, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(4), true);
        let va = r.load(a, AffineExpr::var(i));
        let vb = r.load(b, AffineExpr::var(i));
        let two = r.imm(2);
        let m = r.bin(Opcode::FMul, va, two);
        let s = r.bin(Opcode::FAdd, m, vb);
        r.store(b, AffineExpr::var(i), s);
        k.finish_region(r);
        let kernel = k.build().unwrap();
        let out = run(
            &kernel,
            &[("a", vec![1.0, 2.0, 3.0, 4.0]), ("b", vec![10.0; 4])],
        );
        assert_eq!(out["b"], vec![12.0, 14.0, 16.0, 18.0]);
    }

    #[test]
    fn nested_reduction_fires_store_at_outer_rate() {
        // c[i] = Σ_j a[i*3 + j]
        let mut k = KernelBuilder::new("rowsum");
        let a = k.array("a", BitWidth::B64, 6, MemClass::MainMemory);
        let c = k.array("c", BitWidth::B64, 2, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(2), false);
        let j = r.for_loop(TripCount::fixed(3), false);
        let v = r.load(a, AffineExpr::var(i).scaled(3).plus(&AffineExpr::var(j)));
        let s = r.reduce(Opcode::FAdd, v, j);
        r.store(c, AffineExpr::var(i), s);
        k.finish_region(r);
        let kernel = k.build().unwrap();
        let out = run(&kernel, &[("a", vec![1.0, 2.0, 3.0, 10.0, 20.0, 30.0])]);
        assert_eq!(out["c"], vec![6.0, 60.0]);
    }

    #[test]
    fn mux_predication() {
        // b[i] = a[i] < 3 ? a[i] : 0
        let mut k = KernelBuilder::new("clip");
        let a = k.array("a", BitWidth::B64, 4, MemClass::MainMemory);
        let b = k.array("b", BitWidth::B64, 4, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(4), true);
        let v = r.load(a, AffineExpr::var(i));
        let three = r.imm(3);
        let zero = r.imm(0);
        let c = r.bin(Opcode::CmpLt, v, three);
        let sel = r.mux(c, v, zero);
        r.store(b, AffineExpr::var(i), sel);
        k.finish_region(r);
        let kernel = k.build().unwrap();
        let out = run(&kernel, &[("a", vec![1.0, 5.0, 2.0, 9.0])]);
        assert_eq!(out["b"], vec![1.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn indirect_histogram() {
        let mut k = KernelBuilder::new("hist");
        let h = k.array("h", BitWidth::B64, 4, MemClass::Scratchpad);
        let s = k.array("s", BitWidth::B64, 6, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(6), true);
        let one = r.imm(1);
        r.update_indirect(h, s, AffineExpr::var(i), Opcode::Add, one);
        k.finish_region(r);
        let kernel = k.build().unwrap();
        let out = run(&kernel, &[("s", vec![0.0, 1.0, 1.0, 3.0, 3.0, 3.0])]);
        assert_eq!(out["h"], vec![1.0, 2.0, 0.0, 3.0]);
    }

    #[test]
    fn sorted_merge_join() {
        // Matched keys: 2, 5 → Σ v0*v1 at matches.
        let mut k = KernelBuilder::new("join");
        let k0 = k.array("k0", BitWidth::B64, 4, MemClass::MainMemory);
        let v0 = k.array("v0", BitWidth::B64, 4, MemClass::MainMemory);
        let k1 = k.array("k1", BitWidth::B64, 4, MemClass::MainMemory);
        let v1 = k.array("v1", BitWidth::B64, 4, MemClass::MainMemory);
        let out = k.array("out", BitWidth::B64, 1, MemClass::MainMemory);
        let mut r = k.region("merge", 1.0);
        let j = r.join_loop(
            JoinSide {
                key: k0,
                payloads: vec![v0],
                len: 4,
            },
            JoinSide {
                key: k1,
                payloads: vec![v1],
                len: 4,
            },
            0.5,
        );
        let a = r.load(v0, AffineExpr::var(j));
        let b = r.load(v1, AffineExpr::var(j));
        let p = r.bin(Opcode::FMul, a, b);
        let acc = r.reduce(Opcode::FAdd, p, j);
        r.store(out, AffineExpr::constant(0), acc);
        k.finish_region(r);
        let kernel = k.build().unwrap();
        let result = run(
            &kernel,
            &[
                ("k0", vec![1.0, 2.0, 5.0, 7.0]),
                ("v0", vec![10.0, 20.0, 30.0, 40.0]),
                ("k1", vec![2.0, 3.0, 5.0, 9.0]),
                ("v1", vec![1.0, 2.0, 3.0, 4.0]),
            ],
        );
        // matches: key 2 → 20*1; key 5 → 30*3 → total 110.
        assert_eq!(result["out"], vec![110.0]);
    }

    #[test]
    fn producer_consumer_yields() {
        // Region 0 yields Σ_j a[i*2+j] per i; region 1 stores v*10 per i.
        let mut k = KernelBuilder::new("pc");
        let a = k.array("a", BitWidth::B64, 4, MemClass::MainMemory);
        let d = k.array("d", BitWidth::B64, 2, MemClass::MainMemory);
        let mut r0 = k.region("produce", 1.0);
        let i0 = r0.for_loop(TripCount::fixed(2), false);
        let j0 = r0.for_loop(TripCount::fixed(2), false);
        let v = r0.load(a, AffineExpr::var(i0).scaled(2).plus(&AffineExpr::var(j0)));
        let s = r0.reduce(Opcode::FAdd, v, j0);
        r0.yield_value(s);
        let r0i = k.finish_region(r0);
        let mut r1 = k.region("consume", 1.0);
        let i1 = r1.for_loop(TripCount::fixed(2), false);
        let c = r1.consume(r0i, 0);
        let ten = r1.imm(10);
        let m = r1.bin(Opcode::FMul, c, ten);
        r1.store(d, AffineExpr::var(i1), m);
        k.finish_region(r1);
        let kernel = k.build().unwrap();
        let out = run(&kernel, &[("a", vec![1.0, 2.0, 3.0, 4.0])]);
        assert_eq!(out["d"], vec![30.0, 70.0]);
    }

    #[test]
    fn inductive_triangular_loops() {
        // For i in 0..3: for j in 0..(3-i): t[i] += 1 → t = [3,2,1]
        let mut k = KernelBuilder::new("tri");
        let t = k.array("t", BitWidth::B64, 3, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(3), false);
        let j = r.for_loop(TripCount::inductive(3, -1), false);
        let one = r.imm(1);
        let red = r.reduce(Opcode::FAdd, one, j);
        r.store(t, AffineExpr::var(i), red);
        k.finish_region(r);
        let kernel = k.build().unwrap();
        let out = run(&kernel, &[]);
        assert_eq!(out["t"], vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn consume_underflow_is_reported() {
        // Region 1 consumes more values than region 0 yields.
        let mut k = KernelBuilder::new("under");
        let a = k.array("a", BitWidth::B64, 4, MemClass::MainMemory);
        let mut r0 = k.region("produce", 1.0);
        let i0 = r0.for_loop(TripCount::fixed(1), false);
        let v = r0.load(a, AffineExpr::var(i0));
        r0.yield_value(v);
        let r0i = k.finish_region(r0);
        let mut r1 = k.region("consume", 1.0);
        let i1 = r1.for_loop(TripCount::fixed(4), false);
        let c = r1.consume(r0i, 0);
        r1.store(a, AffineExpr::var(i1), c);
        k.finish_region(r1);
        let kernel = k.build().unwrap();
        let e = execute(&kernel, &BTreeMap::new()).expect_err("must underflow");
        assert!(matches!(e, ExecError::ConsumeUnderflow { region: 0 }));
    }

    #[test]
    fn zero_trip_inductive_loop_is_skipped() {
        // for i in 0..2: for j in 0..(1-i): t[i] += 1 → t = [1, 0, 9]
        let mut k = KernelBuilder::new("zero");
        let t = k.array("t", BitWidth::B64, 3, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(2), false);
        let j = r.for_loop(TripCount::inductive(1, -1), false);
        let one = r.imm(1);
        let red = r.reduce(Opcode::FAdd, one, j);
        r.store(t, AffineExpr::var(i), red);
        k.finish_region(r);
        let kernel = k.build().unwrap();
        let out = execute(
            &kernel,
            &BTreeMap::from([(String::from("t"), vec![9.0, 9.0, 9.0])]),
        )
        .unwrap();
        // i=0 stores 1; i=1's inner loop is zero-trip so nothing fires.
        assert_eq!(out["t"], vec![1.0, 9.0, 9.0]);
    }

    #[test]
    fn update_statement_rates() {
        // c[j] += a[i]*b[j] over i in 0..2, j in 0..3 (Fig 7b shape).
        let mut k = KernelBuilder::new("repupd");
        let a = k.array("a", BitWidth::B64, 2, MemClass::MainMemory);
        let b = k.array("b", BitWidth::B64, 3, MemClass::MainMemory);
        let c = k.array("c", BitWidth::B64, 3, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(2), false);
        let j = r.for_loop(TripCount::fixed(3), true);
        let va = r.load(a, AffineExpr::var(i));
        let vb = r.load(b, AffineExpr::var(j));
        let p = r.bin(Opcode::FMul, va, vb);
        r.update(c, AffineExpr::var(j), Opcode::FAdd, p);
        k.finish_region(r);
        let kernel = k.build().unwrap();
        let out = execute(
            &kernel,
            &BTreeMap::from([
                (String::from("a"), vec![2.0, 10.0]),
                (String::from("b"), vec![1.0, 2.0, 3.0]),
            ]),
        )
        .unwrap();
        // c[j] = (2+10)*b[j]
        assert_eq!(out["c"], vec![12.0, 24.0, 36.0]);
    }

    /// Outputs with every element by bit pattern, so NaNs compare equal.
    type Bits = Result<Vec<(String, Vec<u64>)>, ExecError>;

    fn bits(result: Result<BTreeMap<String, Vec<f64>>, ExecError>) -> Bits {
        result.map(|arrays| {
            arrays
                .into_iter()
                .map(|(name, data)| (name, data.iter().map(|x| x.to_bits()).collect()))
                .collect()
        })
    }

    proptest! {
        // `cargo test --release -p dsagen-dfg --lib interp` runs a hundred
        // times as many (~2 s).
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 1000 } else { 100_000 }
        ))]

        /// The table-driven interpreter gives the old one's `Result` on
        /// generated kernels: the same arrays bit for bit, or the same first
        /// error.
        #[test]
        fn execute_matches_the_reference_on_generated_kernels(seed in any::<u64>()) {
            let (kernel, inputs) = testgen::case(seed);
            let (got, want) = (
                bits(execute(&kernel, &inputs)),
                bits(reference::execute(&kernel, &inputs)),
            );
            prop_assert!(got == want, "seed {seed:#x}:\n got: {got:?}\nwant: {want:?}");
        }
    }

    /// The property above is not vacuous: over its first thousand seeds the
    /// generator reaches every construct it is meant to, and kernels end in
    /// success and in each kind of error.
    #[test]
    fn generated_kernels_reach_every_feature_and_outcome() {
        let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
        let mut rng = proptest::test_runner::TestRng::deterministic(
            "execute_matches_the_reference_on_generated_kernels",
        );
        for _ in 0..1000 {
            let (kernel, inputs) = testgen::case(rng.next_u64());
            let result = execute(&kernel, &inputs);
            let mut note = |what| *seen.entry(what).or_default() += 1;
            note(match &result {
                Ok(_) => "ok",
                Err(ExecError::OutOfBounds { .. }) => "out-of-bounds",
                Err(ExecError::JoinSideUnknown { .. }) => "join-side-unknown",
                Err(ExecError::ConsumeUnderflow { .. }) => "consume-underflow",
            });
            for region in &kernel.regions {
                if region.depth() == 3 {
                    note("depth 3");
                }
                if region.join_loop().is_some() {
                    note("join");
                }
                for l in &region.loops {
                    match &l.kind {
                        LoopKind::For { trip } if trip.is_inductive() => note("inductive trip"),
                        LoopKind::For { trip } if trip.base == 0 => note("zero trip"),
                        _ => {}
                    }
                }
                for (_, e) in region.iter_exprs() {
                    match e {
                        SrcExpr::Reduce { body, level, .. } => {
                            note(["reduce level 0", "reduce level 1", "reduce level 2"][level.0]);
                            if matches!(region.expr(*body), SrcExpr::Reduce { .. }) {
                                note("reduce of reduce");
                            }
                        }
                        SrcExpr::Load {
                            index: Index::Indirect { .. },
                            ..
                        } => note("indirect load"),
                        SrcExpr::Mux { t, f, .. } if result.is_ok() => {
                            let past_end = |x: &ExprId| match region.expr(*x) {
                                SrcExpr::Load {
                                    array,
                                    index: Index::Affine(at),
                                } => {
                                    at.is_constant() && at.base() >= kernel.array(*array).len as i64
                                }
                                _ => false,
                            };
                            if past_end(t) || past_end(f) {
                                note("untaken out-of-bounds branch, run ok");
                            }
                        }
                        SrcExpr::Consume { .. } => note("consume"),
                        _ => {}
                    }
                }
                for (i, stmt) in region.stmts.iter().enumerate() {
                    match stmt {
                        SrcStmt::Update {
                            index: Index::Indirect { .. },
                            ..
                        } => {
                            note("indirect update");
                        }
                        SrcStmt::Update { array, index, .. } if i > 0 => {
                            let prev = &region.stmts[i - 1];
                            if matches!(prev, SrcStmt::Store { array: a, index: x, .. } if a == array && x == index)
                            {
                                note("store and update of one address");
                            }
                        }
                        SrcStmt::Store { array, .. } if matches!(region.join_loop(), Some((_, LoopKind::Join { a, b, .. })) if [a.key, b.key].contains(array)) =>
                        {
                            note("store to a join key in the join");
                        }
                        SrcStmt::Yield { .. } => note("yield"),
                        _ => {}
                    }
                }
            }
        }
        let wanted = [
            "ok",
            "out-of-bounds",
            "join-side-unknown",
            "consume-underflow",
            "depth 3",
            "join",
            "inductive trip",
            "zero trip",
            "reduce level 0",
            "reduce level 1",
            "reduce level 2",
            "reduce of reduce",
            "indirect load",
            "untaken out-of-bounds branch, run ok",
            "consume",
            "indirect update",
            "store and update of one address",
            "store to a join key in the join",
            "yield",
        ];
        for what in wanted {
            assert!(
                seen.get(what).copied().unwrap_or(0) >= 10,
                "{what}: {seen:?}"
            );
        }
        assert!(
            seen["ok"] >= 400,
            "too few kernels run to the end: {seen:?}"
        );
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let mut k = KernelBuilder::new("oob");
        let a = k.array("a", BitWidth::B64, 2, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(4), true);
        let v = r.load(a, AffineExpr::var(i));
        r.store(a, AffineExpr::var(i), v);
        k.finish_region(r);
        let kernel = k.build().unwrap();
        let e = execute(&kernel, &BTreeMap::new()).expect_err("must detect OOB");
        assert!(matches!(e, ExecError::OutOfBounds { .. }));
    }
}
