//! Source-level kernel IR: annotated loop nests over arrays.
//!
//! This is the compiler's input — the moral equivalent of the paper's C
//! functions annotated with `#pragma dsa config/decouple/offload` (§IV-B).
//! A [`Kernel`] is one `config` scope; each [`Region`] is one `offload`
//! region (a loop nest whose innermost body is a dataflow expression DAG);
//! [`Kernel::decoupled`] is the `decouple` pragma (all memory dependences
//! are carried by data dependences, so streams may be hoisted).

use std::fmt;

use dsagen_adg::{BitWidth, Opcode};
use serde::{Deserialize, Serialize};

use crate::{AffineExpr, DfgError, LoopVar, TripCount};

/// Where an array's backing storage lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemClass {
    /// The shared cache hierarchy (L2 interface).
    MainMemory,
    /// The accelerator's scratchpad.
    Scratchpad,
}

/// Identifier of an array declared in a [`Kernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ArrayId(pub(crate) usize);

impl fmt::Display for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// An array declaration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrayDecl {
    /// Source-level name.
    pub name: String,
    /// Element width.
    pub elem: BitWidth,
    /// Length in elements.
    pub len: u64,
    /// Backing storage.
    pub location: MemClass,
}

impl ArrayDecl {
    /// Total size in bytes.
    #[must_use]
    pub(crate) fn bytes(&self) -> u64 {
        self.len * u64::from(self.elem.bytes())
    }
}

/// An array index: affine in the loop variables, or indirect through
/// another array (`a[b[expr]]`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Index {
    /// Affine index.
    Affine(AffineExpr),
    /// Indirect index: the value of `index_array[index_expr]`.
    Indirect {
        /// The array holding indices.
        index_array: ArrayId,
        /// Affine position within the index array.
        index_expr: AffineExpr,
    },
}

impl Index {
    /// The affine expression that generates addresses: the index itself for
    /// affine accesses, the index-*array* position for indirect ones.
    #[must_use]
    pub fn driving_expr(&self) -> &AffineExpr {
        match self {
            Index::Affine(e) => e,
            Index::Indirect { index_expr, .. } => index_expr,
        }
    }

    /// Whether this access is indirect.
    #[must_use]
    pub(crate) fn is_indirect(&self) -> bool {
        matches!(self, Index::Indirect { .. })
    }
}

/// Identifier of an expression within one region's DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ExprId(pub(crate) usize);

/// A node in a region's expression DAG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SrcExpr {
    /// A memory load.
    Load {
        /// Source array.
        array: ArrayId,
        /// Access index.
        index: Index,
    },
    /// An integer immediate.
    Imm(i64),
    /// A unary operation.
    Un {
        /// Operation (arity 1).
        op: Opcode,
        /// Operand.
        a: ExprId,
    },
    /// A binary operation.
    Bin {
        /// Operation (arity 2).
        op: Opcode,
        /// Left operand.
        a: ExprId,
        /// Right operand.
        b: ExprId,
    },
    /// Predicated selection — the data-dependence form of an if/else
    /// (§IV-C, Fig 6: "both branches will be executed, and a selector will
    /// select the proper value").
    Mux {
        /// Predicate.
        cond: ExprId,
        /// Value when true.
        t: ExprId,
        /// Value when false.
        f: ExprId,
    },
    /// A reduction of `body` over loop `level` (e.g. `acc += body` in the
    /// loop at depth `level`). Creates a loop-carried recurrence.
    Reduce {
        /// Combining operation.
        op: Opcode,
        /// Reduced value.
        body: ExprId,
        /// Loop level being reduced over.
        level: LoopVar,
    },
    /// A scalar produced by an earlier region's [`SrcStmt::Yield`] —
    /// the producer-consumer idiom of §IV-D (Fig 7a).
    Consume {
        /// Producing region index within the kernel.
        region: usize,
        /// Which of that region's yields.
        yield_idx: usize,
    },
}

/// A side-effecting statement in a region body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SrcStmt {
    /// `array[index] = value`.
    Store {
        /// Destination array.
        array: ArrayId,
        /// Access index.
        index: Index,
        /// Stored value.
        value: ExprId,
    },
    /// `array[index] op= value` — an in-place (possibly atomic) update,
    /// e.g. histogramming `h[b[i]] += 1`.
    Update {
        /// Destination array.
        array: ArrayId,
        /// Access index.
        index: Index,
        /// Combining operation.
        op: Opcode,
        /// Update value.
        value: ExprId,
    },
    /// Yields a scalar (one value per region execution) for consumption by
    /// a later region via [`SrcExpr::Consume`].
    Yield {
        /// Yielded value.
        value: ExprId,
    },
}

/// One side of a two-pointer merge join.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JoinSide {
    /// Sorted key array.
    pub key: ArrayId,
    /// Payload arrays advanced in lockstep with the key.
    pub payloads: Vec<ArrayId>,
    /// Number of elements on this side.
    pub len: u64,
}

/// The kind of one loop in a region's nest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LoopKind {
    /// A counted `for` loop.
    For {
        /// Trip count (possibly inductive in the enclosing loop).
        trip: TripCount,
    },
    /// A two-pointer merge join over sorted keys — the control-dependent
    /// memory-access idiom of §IV-E (Fig 8: sparse inner product). Loads of
    /// the side arrays indexed by this loop's variable denote
    /// stream-consumption on that side.
    Join {
        /// Left side.
        a: JoinSide,
        /// Right side.
        b: JoinSide,
        /// Fraction of iterations where the keys match (both advance and
        /// the body computes).
        match_ratio: f64,
    },
}

/// One loop in a region's nest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Loop {
    /// What kind of loop.
    pub kind: LoopKind,
    /// Whether iterations are independent (legal to unroll/vectorize).
    pub parallel: bool,
}

impl Loop {
    /// Expected number of iterations (for joins: the merge length
    /// `len_a + len_b − matches`).
    #[must_use]
    pub fn expected_trip(&self, outer_trip: u64) -> f64 {
        match &self.kind {
            LoopKind::For { trip } => trip.average_over(outer_trip.max(1)),
            LoopKind::Join { a, b, match_ratio } => {
                let total = (a.len + b.len) as f64;
                // Each matching iteration advances both pointers at once.
                total / (1.0 + match_ratio)
            }
        }
    }
}

/// An offload region: a loop nest with a dataflow body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Region {
    /// Region name (diagnostics).
    pub name: String,
    /// Loop nest, outermost first.
    pub loops: Vec<Loop>,
    /// Expression DAG (arena; ids index into this).
    pub exprs: Vec<SrcExpr>,
    /// Side-effecting statements.
    pub stmts: Vec<SrcStmt>,
    /// Relative execution frequency (the `BlockFrequencyInfo` equivalent of
    /// §V-B, used to weight regions in the performance model).
    pub exec_freq: f64,
}

impl Region {
    /// Number of loops.
    #[must_use]
    pub(crate) fn depth(&self) -> usize {
        self.loops.len()
    }

    /// The expression node for an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (ids are only minted by the builder).
    #[must_use]
    pub(crate) fn expr(&self, id: ExprId) -> &SrcExpr {
        &self.exprs[id.0]
    }

    /// The join loop's depth and kind, if the nest contains one.
    #[must_use]
    pub fn join_loop(&self) -> Option<(usize, &LoopKind)> {
        self.loops
            .iter()
            .enumerate()
            .find(|(_, l)| matches!(l.kind, LoopKind::Join { .. }))
            .map(|(d, l)| (d, &l.kind))
    }

    /// The deepest loop variable an expression transitively depends on
    /// (`None` for fully loop-invariant expressions). Determines the
    /// expression's firing rate: expressions pinned above the innermost
    /// loop are low-rate and favor shared PEs (§IV-C "Spatial Scheduling").
    #[must_use]
    pub fn rate_level(&self, id: ExprId) -> Option<LoopVar> {
        match self.expr(id) {
            SrcExpr::Load { index, .. } => index.driving_expr().innermost_var(),
            SrcExpr::Imm(_) | SrcExpr::Consume { .. } => None,
            SrcExpr::Un { a, .. } => self.rate_level(*a),
            SrcExpr::Bin { a, b, .. } => self.rate_level(*a).max(self.rate_level(*b)),
            SrcExpr::Mux { cond, t, f } => self
                .rate_level(*cond)
                .max(self.rate_level(*t))
                .max(self.rate_level(*f)),
            // A reduction consumes at `level`'s rate but *produces* at the
            // rate of the loop just above it.
            SrcExpr::Reduce { level, .. } => {
                if level.0 == 0 {
                    None
                } else {
                    Some(LoopVar(level.0 - 1))
                }
            }
        }
    }

    /// Iterates over every (id, expr) pair.
    pub fn iter_exprs(&self) -> impl Iterator<Item = (ExprId, &SrcExpr)> {
        self.exprs.iter().enumerate().map(|(i, e)| (ExprId(i), e))
    }

    /// Count of compute operations (Un/Bin/Mux/Reduce — loads, immediates
    /// and consumes are not compute).
    #[must_use]
    pub fn compute_op_count(&self) -> usize {
        self.exprs
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    SrcExpr::Un { .. }
                        | SrcExpr::Bin { .. }
                        | SrcExpr::Mux { .. }
                        | SrcExpr::Reduce { .. }
                )
            })
            .count()
    }

    /// Whether any access in the region is indirect.
    #[must_use]
    pub(crate) fn has_indirect_access(&self) -> bool {
        let expr_indirect = self.exprs.iter().any(|e| match e {
            SrcExpr::Load { index, .. } => index.is_indirect(),
            _ => false,
        });
        let stmt_indirect = self.stmts.iter().any(|s| match s {
            SrcStmt::Store { index, .. } | SrcStmt::Update { index, .. } => index.is_indirect(),
            SrcStmt::Yield { .. } => false,
        });
        expr_indirect || stmt_indirect
    }

    /// Whether the region contains an in-place `Update` statement.
    #[must_use]
    pub(crate) fn has_update(&self) -> bool {
        self.stmts
            .iter()
            .any(|s| matches!(s, SrcStmt::Update { .. }))
    }

    fn validate(&self, region_idx: usize, arrays: &[ArrayDecl]) -> Result<(), DfgError> {
        let depth = self.loops.len();
        if depth == 0 {
            return Err(DfgError::Malformed {
                region: self.name.clone(),
                what: "region has no loops".into(),
            });
        }
        let check_array = |a: ArrayId| -> Result<(), DfgError> {
            if a.0 >= arrays.len() {
                return Err(DfgError::Malformed {
                    region: self.name.clone(),
                    what: format!("unknown array {a}"),
                });
            }
            Ok(())
        };
        let check_index = |idx: &Index| -> Result<(), DfgError> {
            if let Index::Indirect { index_array, .. } = idx {
                check_array(*index_array)?;
            }
            if idx.driving_expr().vars().any(|v| v.0 >= depth) {
                return Err(DfgError::Malformed {
                    region: self.name.clone(),
                    what: "index references a loop variable deeper than the nest".into(),
                });
            }
            Ok(())
        };
        for (i, e) in self.exprs.iter().enumerate() {
            let check_ref = |x: ExprId| -> Result<(), DfgError> {
                if x.0 >= i {
                    return Err(DfgError::Malformed {
                        region: self.name.clone(),
                        what: format!("expression e{i} references a later expression"),
                    });
                }
                Ok(())
            };
            match e {
                SrcExpr::Load { array, index } => {
                    check_array(*array)?;
                    check_index(index)?;
                }
                SrcExpr::Imm(_) => {}
                SrcExpr::Un { op, a } => {
                    if op.arity() != 1 {
                        return Err(DfgError::Malformed {
                            region: self.name.clone(),
                            what: format!("{op} used as unary"),
                        });
                    }
                    check_ref(*a)?;
                }
                SrcExpr::Bin { op, a, b } => {
                    if op.arity() != 2 {
                        return Err(DfgError::Malformed {
                            region: self.name.clone(),
                            what: format!("{op} used as binary"),
                        });
                    }
                    check_ref(*a)?;
                    check_ref(*b)?;
                }
                SrcExpr::Mux { cond, t, f } => {
                    check_ref(*cond)?;
                    check_ref(*t)?;
                    check_ref(*f)?;
                }
                SrcExpr::Reduce { body, level, .. } => {
                    check_ref(*body)?;
                    if level.0 >= depth {
                        return Err(DfgError::Malformed {
                            region: self.name.clone(),
                            what: "reduction over a nonexistent loop level".into(),
                        });
                    }
                }
                SrcExpr::Consume { region, .. } => {
                    if *region >= region_idx {
                        return Err(DfgError::Malformed {
                            region: self.name.clone(),
                            what: "consume must reference an earlier region".into(),
                        });
                    }
                }
            }
        }
        for s in &self.stmts {
            match s {
                SrcStmt::Store {
                    array,
                    index,
                    value,
                }
                | SrcStmt::Update {
                    array,
                    index,
                    value,
                    ..
                } => {
                    check_array(*array)?;
                    check_index(index)?;
                    if value.0 >= self.exprs.len() {
                        return Err(DfgError::Malformed {
                            region: self.name.clone(),
                            what: "statement references an unknown expression".into(),
                        });
                    }
                }
                SrcStmt::Yield { value } => {
                    if value.0 >= self.exprs.len() {
                        return Err(DfgError::Malformed {
                            region: self.name.clone(),
                            what: "yield references an unknown expression".into(),
                        });
                    }
                }
            }
        }
        // At most one join loop per region, and join sides must be arrays.
        let joins = self
            .loops
            .iter()
            .filter(|l| matches!(l.kind, LoopKind::Join { .. }))
            .count();
        if joins > 1 {
            return Err(DfgError::Malformed {
                region: self.name.clone(),
                what: "at most one join loop per region".into(),
            });
        }
        if let Some((_, LoopKind::Join { a, b, match_ratio })) = self.join_loop() {
            check_array(a.key)?;
            check_array(b.key)?;
            for p in a.payloads.iter().chain(&b.payloads) {
                check_array(*p)?;
            }
            if !(0.0..=1.0).contains(match_ratio) {
                return Err(DfgError::Malformed {
                    region: self.name.clone(),
                    what: "join match ratio must be within [0, 1]".into(),
                });
            }
        }
        Ok(())
    }
}

/// A complete kernel: one `#pragma dsa config` scope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Kernel {
    /// Kernel name.
    pub name: String,
    /// Declared arrays.
    pub arrays: Vec<ArrayDecl>,
    /// Offload regions, in program order; all are concurrent within the
    /// config scope (§IV-B).
    pub regions: Vec<Region>,
    /// The `decouple` pragma: no unknown aliasing, so memory operations may
    /// be hoisted into streams.
    pub decoupled: bool,
}

impl Kernel {
    /// Looks up an array declaration.
    ///
    /// # Panics
    ///
    /// Panics if the id was not minted by this kernel's builder.
    #[must_use]
    pub fn array(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id.0]
    }

    /// Validates structural well-formedness of every region.
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::Malformed`] describing the first violation.
    pub fn validate(&self) -> Result<(), DfgError> {
        if self.regions.is_empty() {
            return Err(DfgError::Malformed {
                region: self.name.clone(),
                what: "kernel has no regions".into(),
            });
        }
        for (i, r) in self.regions.iter().enumerate() {
            r.validate(i, &self.arrays)?;
        }
        Ok(())
    }

    /// Total bytes across all declared arrays (the working set).
    #[must_use]
    pub fn footprint_bytes(&self) -> u64 {
        self.arrays.iter().map(ArrayDecl::bytes).sum()
    }
}

/// Builder for [`Kernel`]s.
///
/// # Example
///
/// A dot product (`acc += a[i] * b[i]`):
///
/// ```
/// use dsagen_adg::{BitWidth, Opcode};
/// use dsagen_dfg::*;
///
/// let mut k = KernelBuilder::new("dot");
/// let a = k.array("a", BitWidth::B64, 1024, MemClass::MainMemory);
/// let b = k.array("b", BitWidth::B64, 1024, MemClass::MainMemory);
/// let c = k.array("c", BitWidth::B64, 1, MemClass::MainMemory);
/// let mut r = k.region("body", 1.0);
/// let i = r.for_loop(TripCount::fixed(1024), true);
/// let va = r.load(a, AffineExpr::var(i));
/// let vb = r.load(b, AffineExpr::var(i));
/// let prod = r.bin(Opcode::Mul, va, vb);
/// let acc = r.reduce(Opcode::Add, prod, i);
/// r.store(c, AffineExpr::constant(0), acc);
/// k.finish_region(r);
/// let kernel = k.build()?;
/// assert_eq!(kernel.regions.len(), 1);
/// # Ok::<(), dsagen_dfg::DfgError>(())
/// ```
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    arrays: Vec<ArrayDecl>,
    regions: Vec<Region>,
}

impl KernelBuilder {
    /// Starts a kernel. Built kernels are decoupled (the common annotated
    /// case).
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        KernelBuilder {
            name: name.into(),
            arrays: Vec::new(),
            regions: Vec::new(),
        }
    }

    /// Declares an array.
    pub fn array(
        &mut self,
        name: impl Into<String>,
        elem: BitWidth,
        len: u64,
        location: MemClass,
    ) -> ArrayId {
        self.arrays.push(ArrayDecl {
            name: name.into(),
            elem,
            len,
            location,
        });
        ArrayId(self.arrays.len() - 1)
    }

    /// Starts a region; finish it with [`KernelBuilder::finish_region`].
    #[must_use]
    pub fn region(&self, name: impl Into<String>, exec_freq: f64) -> RegionBuilder {
        RegionBuilder {
            region: Region {
                name: name.into(),
                loops: Vec::new(),
                exprs: Vec::new(),
                stmts: Vec::new(),
                exec_freq,
            },
            index: self.regions.len(),
        }
    }

    /// Adds a completed region and returns its index.
    pub fn finish_region(&mut self, rb: RegionBuilder) -> usize {
        self.regions.push(rb.region);
        self.regions.len() - 1
    }

    /// Builds and validates the kernel.
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::Malformed`] if any region is structurally
    /// invalid.
    pub fn build(self) -> Result<Kernel, DfgError> {
        let k = Kernel {
            name: self.name,
            arrays: self.arrays,
            regions: self.regions,
            decoupled: true,
        };
        k.validate()?;
        Ok(k)
    }
}

/// Builder for one [`Region`].
#[derive(Debug)]
pub struct RegionBuilder {
    region: Region,
    index: usize,
}

impl RegionBuilder {
    /// The region's index within the kernel (for `Consume` references from
    /// later regions).
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Opens a counted loop and returns its variable.
    pub fn for_loop(&mut self, trip: TripCount, parallel: bool) -> LoopVar {
        self.region.loops.push(Loop {
            kind: LoopKind::For { trip },
            parallel,
        });
        LoopVar(self.region.loops.len() - 1)
    }

    /// Opens a two-pointer merge-join loop and returns its variable.
    pub fn join_loop(&mut self, a: JoinSide, b: JoinSide, match_ratio: f64) -> LoopVar {
        self.region.loops.push(Loop {
            kind: LoopKind::Join { a, b, match_ratio },
            parallel: false,
        });
        LoopVar(self.region.loops.len() - 1)
    }

    fn push(&mut self, e: SrcExpr) -> ExprId {
        self.region.exprs.push(e);
        ExprId(self.region.exprs.len() - 1)
    }

    /// An affine load `array[index]`.
    pub fn load(&mut self, array: ArrayId, index: AffineExpr) -> ExprId {
        self.push(SrcExpr::Load {
            array,
            index: Index::Affine(index),
        })
    }

    /// An indirect load `array[index_array[index_expr]]`.
    pub fn load_indirect(
        &mut self,
        array: ArrayId,
        index_array: ArrayId,
        index_expr: AffineExpr,
    ) -> ExprId {
        self.push(SrcExpr::Load {
            array,
            index: Index::Indirect {
                index_array,
                index_expr,
            },
        })
    }

    /// An integer immediate.
    pub fn imm(&mut self, v: i64) -> ExprId {
        self.push(SrcExpr::Imm(v))
    }

    /// A unary operation.
    pub fn un(&mut self, op: Opcode, a: ExprId) -> ExprId {
        self.push(SrcExpr::Un { op, a })
    }

    /// A binary operation.
    pub fn bin(&mut self, op: Opcode, a: ExprId, b: ExprId) -> ExprId {
        self.push(SrcExpr::Bin { op, a, b })
    }

    /// A predicated select.
    pub fn mux(&mut self, cond: ExprId, t: ExprId, f: ExprId) -> ExprId {
        self.push(SrcExpr::Mux { cond, t, f })
    }

    /// A reduction over loop `level`.
    pub fn reduce(&mut self, op: Opcode, body: ExprId, level: LoopVar) -> ExprId {
        self.push(SrcExpr::Reduce { op, body, level })
    }

    /// Consumes a scalar yielded by an earlier region.
    pub fn consume(&mut self, region: usize, yield_idx: usize) -> ExprId {
        self.push(SrcExpr::Consume { region, yield_idx })
    }

    /// Appends a store statement.
    pub fn store(&mut self, array: ArrayId, index: AffineExpr, value: ExprId) {
        self.region.stmts.push(SrcStmt::Store {
            array,
            index: Index::Affine(index),
            value,
        });
    }

    /// Appends an in-place update `array[index] op= value`.
    pub fn update(&mut self, array: ArrayId, index: AffineExpr, op: Opcode, value: ExprId) {
        self.region.stmts.push(SrcStmt::Update {
            array,
            index: Index::Affine(index),
            op,
            value,
        });
    }

    /// Appends an indirect in-place update `array[idx_arr[expr]] op= value`
    /// (the atomic-update idiom, e.g. histogramming).
    pub fn update_indirect(
        &mut self,
        array: ArrayId,
        index_array: ArrayId,
        index_expr: AffineExpr,
        op: Opcode,
        value: ExprId,
    ) {
        self.region.stmts.push(SrcStmt::Update {
            array,
            index: Index::Indirect {
                index_array,
                index_expr,
            },
            op,
            value,
        });
    }

    /// Appends a scalar yield.
    pub fn yield_value(&mut self, value: ExprId) {
        self.region.stmts.push(SrcStmt::Yield { value });
    }
}

#[cfg(test)]
mod tests {
    use dsagen_adg::{BitWidth, Opcode};

    use super::*;
    use crate::TripCount;

    impl RegionBuilder {
        /// Appends an indirect store statement.
        pub(crate) fn store_indirect(
            &mut self,
            array: ArrayId,
            index_array: ArrayId,
            index_expr: AffineExpr,
            value: ExprId,
        ) {
            self.region.stmts.push(SrcStmt::Store {
                array,
                index: Index::Indirect {
                    index_array,
                    index_expr,
                },
                value,
            });
        }
    }

    fn dot_kernel() -> Kernel {
        let mut k = KernelBuilder::new("dot");
        let a = k.array("a", BitWidth::B64, 1024, MemClass::MainMemory);
        let b = k.array("b", BitWidth::B64, 1024, MemClass::MainMemory);
        let c = k.array("c", BitWidth::B64, 1, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(1024), true);
        let va = r.load(a, AffineExpr::var(i));
        let vb = r.load(b, AffineExpr::var(i));
        let prod = r.bin(Opcode::Mul, va, vb);
        let acc = r.reduce(Opcode::Add, prod, i);
        r.store(c, AffineExpr::constant(0), acc);
        k.finish_region(r);
        k.build().unwrap()
    }

    #[test]
    fn dot_builds_and_validates() {
        let k = dot_kernel();
        assert_eq!(k.regions.len(), 1);
        assert_eq!(k.regions[0].compute_op_count(), 2);
        assert!(!k.regions[0].has_indirect_access());
        assert_eq!(k.footprint_bytes(), (1024 + 1024 + 1) * 8);
    }

    #[test]
    fn rate_levels() {
        let mut k = KernelBuilder::new("rates");
        let a = k.array("a", BitWidth::B64, 64, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(8), false);
        let j = r.for_loop(TripCount::fixed(8), true);
        let outer_load = r.load(a, AffineExpr::var(i));
        let inner_load = r.load(a, AffineExpr::var(j));
        let imm = r.imm(3);
        let inner_op = r.bin(Opcode::Mul, outer_load, inner_load);
        let outer_op = r.bin(Opcode::Add, outer_load, imm);
        let red = r.reduce(Opcode::Add, inner_op, j);
        let region = {
            r.store(a, AffineExpr::var(i), red);
            let idx = k.finish_region(r);
            let _ = outer_op;
            k.build().unwrap().regions.remove(idx)
        };
        assert_eq!(region.rate_level(outer_load), Some(LoopVar(0)));
        assert_eq!(region.rate_level(inner_load), Some(LoopVar(1)));
        assert_eq!(region.rate_level(imm), None);
        assert_eq!(region.rate_level(inner_op), Some(LoopVar(1)));
        assert_eq!(region.rate_level(outer_op), Some(LoopVar(0)));
        // Reduction over the inner loop produces at the outer loop's rate.
        assert_eq!(region.rate_level(red), Some(LoopVar(0)));
    }

    #[test]
    fn validate_rejects_deep_loop_reference() {
        let mut k = KernelBuilder::new("bad");
        let a = k.array("a", BitWidth::B64, 8, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let _i = r.for_loop(TripCount::fixed(8), true);
        let v = r.load(a, AffineExpr::var(LoopVar(5)));
        r.store(a, AffineExpr::constant(0), v);
        k.finish_region(r);
        assert!(k.build().is_err());
    }

    #[test]
    fn validate_rejects_forward_reference_in_dag() {
        let region = Region {
            name: "r".into(),
            loops: vec![Loop {
                kind: LoopKind::For {
                    trip: TripCount::fixed(4),
                },
                parallel: true,
            }],
            exprs: vec![SrcExpr::Un {
                op: Opcode::Not,
                a: ExprId(5),
            }],
            stmts: vec![],
            exec_freq: 1.0,
        };
        let k = Kernel {
            name: "bad".into(),
            arrays: vec![],
            regions: vec![region],
            decoupled: true,
        };
        assert!(k.validate().is_err());
    }

    #[test]
    fn validate_rejects_consume_of_later_region() {
        let mut k = KernelBuilder::new("bad");
        let a = k.array("a", BitWidth::B64, 8, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let _i = r.for_loop(TripCount::fixed(8), true);
        let v = r.consume(0, 0); // region 0 consuming from itself
        r.store(a, AffineExpr::constant(0), v);
        k.finish_region(r);
        assert!(k.build().is_err());
    }

    #[test]
    fn join_loop_shape() {
        let mut k = KernelBuilder::new("join");
        let k0 = k.array("k0", BitWidth::B64, 768, MemClass::MainMemory);
        let v0 = k.array("v0", BitWidth::B64, 768, MemClass::MainMemory);
        let k1 = k.array("k1", BitWidth::B64, 768, MemClass::MainMemory);
        let v1 = k.array("v1", BitWidth::B64, 768, MemClass::MainMemory);
        let out = k.array("out", BitWidth::B64, 1, MemClass::MainMemory);
        let mut r = k.region("join", 1.0);
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
            0.3,
        );
        let a = r.load(v0, AffineExpr::var(j));
        let b = r.load(v1, AffineExpr::var(j));
        let prod = r.bin(Opcode::Mul, a, b);
        let acc = r.reduce(Opcode::Add, prod, j);
        r.store(out, AffineExpr::constant(0), acc);
        k.finish_region(r);
        let kernel = k.build().unwrap();
        let region = &kernel.regions[0];
        assert!(region.join_loop().is_some());
        let trip = region.loops[0].expected_trip(1);
        assert!((trip - 1536.0 / 1.3).abs() < 1e-9);
    }

    #[test]
    fn producer_consumer_shape() {
        let mut k = KernelBuilder::new("pc");
        let a = k.array("a", BitWidth::B64, 64, MemClass::MainMemory);
        let b = k.array("b", BitWidth::B64, 8, MemClass::MainMemory);
        // Region 0: v = Σ a[j]*b[j]; yield v.
        let mut r0 = k.region("produce", 1.0);
        let j = r0.for_loop(TripCount::fixed(8), true);
        let va = r0.load(a, AffineExpr::var(j));
        let vb = r0.load(b, AffineExpr::var(j));
        let p = r0.bin(Opcode::Mul, va, vb);
        let acc = r0.reduce(Opcode::Add, p, j);
        r0.yield_value(acc);
        let r0i = k.finish_region(r0);
        // Region 1: a[j] -= v*b[j].
        let mut r1 = k.region("consume", 1.0);
        let j1 = r1.for_loop(TripCount::fixed(8), true);
        let v = r1.consume(r0i, 0);
        let vb1 = r1.load(b, AffineExpr::var(j1));
        let va1 = r1.load(a, AffineExpr::var(j1));
        let prod = r1.bin(Opcode::Mul, v, vb1);
        let diff = r1.bin(Opcode::Sub, va1, prod);
        r1.store(a, AffineExpr::var(j1), diff);
        k.finish_region(r1);
        let kernel = k.build().unwrap();
        assert_eq!(kernel.regions.len(), 2);
        assert!(kernel.regions[1]
            .iter_exprs()
            .any(|(_, e)| matches!(e, SrcExpr::Consume { region: 0, .. })));
    }

    #[test]
    fn update_detection() {
        let mut k = KernelBuilder::new("hist");
        let h = k.array("h", BitWidth::B64, 1024, MemClass::Scratchpad);
        let idx = k.array("b", BitWidth::B64, 65536, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(65536), true);
        let one = r.imm(1);
        r.update_indirect(h, idx, AffineExpr::var(i), Opcode::Add, one);
        k.finish_region(r);
        let kernel = k.build().unwrap();
        assert!(kernel.regions[0].has_update());
        assert!(kernel.regions[0].has_indirect_access());
    }
}
