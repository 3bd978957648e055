//! PolyBench workloads (§VII, Table I): mm (32³), 2mm (32³), 3mm (32²),
//! plus atax and mvt — "all simple dense linear kernels with mostly
//! perfect loops" (§VIII-A).

use dsagen_adg::{BitWidth, Opcode};
use dsagen_dfg::{AffineExpr, Kernel, KernelBuilder, MemClass, TripCount};

use crate::machsuite::gemm_kernel;

/// mm — 32³ dense matrix multiply.
#[must_use]
pub fn mm() -> Kernel {
    gemm_kernel("poly-mm", 32)
}

/// 2mm — two chained matrix multiplies `D = (A·B)·C`, each 32³. The
/// intermediate matrix creates a memory-carried dependence between the two
/// offload regions (a barrier, unlike yield-forwarded scalars).
#[must_use]
pub fn mm2() -> Kernel {
    let n = 32u64;
    let mut k = KernelBuilder::new("poly-2mm");
    let a = k.array("a", BitWidth::B64, n * n, MemClass::MainMemory);
    let b = k.array("b", BitWidth::B64, n * n, MemClass::Scratchpad);
    let tmp = k.array("tmp", BitWidth::B64, n * n, MemClass::Scratchpad);
    let c = k.array("c", BitWidth::B64, n * n, MemClass::Scratchpad);
    let d = k.array("d", BitWidth::B64, n * n, MemClass::MainMemory);

    for (name, src1, src2, dst) in [("mm1", a, b, tmp), ("mm2", tmp, c, d)] {
        let mut r = k.region(name, 1.0);
        let i = r.for_loop(TripCount::fixed(n), false);
        let j = r.for_loop(TripCount::fixed(n), true);
        let kk = r.for_loop(TripCount::fixed(n), false);
        let va = r.load(
            src1,
            AffineExpr::var(i)
                .scaled(n as i64)
                .plus(&AffineExpr::var(kk)),
        );
        let vb = r.load(
            src2,
            AffineExpr::var(kk)
                .scaled(n as i64)
                .plus(&AffineExpr::var(j)),
        );
        let prod = r.bin(Opcode::FMul, va, vb);
        let acc = r.reduce(Opcode::FAdd, prod, kk);
        r.store(
            dst,
            AffineExpr::var(i)
                .scaled(n as i64)
                .plus(&AffineExpr::var(j)),
            acc,
        );
        k.finish_region(r);
    }
    k.build().expect("2mm is well-formed")
}

/// 3mm — three matrix multiplies `G = (A·B)·(C·D)` at 32² blocks.
#[must_use]
pub fn mm3() -> Kernel {
    let n = 32u64;
    let mut k = KernelBuilder::new("poly-3mm");
    let a = k.array("a", BitWidth::B64, n * n, MemClass::MainMemory);
    let b = k.array("b", BitWidth::B64, n * n, MemClass::Scratchpad);
    let c = k.array("c", BitWidth::B64, n * n, MemClass::MainMemory);
    let d = k.array("d", BitWidth::B64, n * n, MemClass::Scratchpad);
    let e = k.array("e", BitWidth::B64, n * n, MemClass::Scratchpad);
    let f = k.array("f", BitWidth::B64, n * n, MemClass::Scratchpad);
    let g = k.array("g", BitWidth::B64, n * n, MemClass::MainMemory);

    for (name, src1, src2, dst) in [("mm1", a, b, e), ("mm2", c, d, f), ("mm3", e, f, g)] {
        let mut r = k.region(name, 1.0);
        let i = r.for_loop(TripCount::fixed(n), false);
        let j = r.for_loop(TripCount::fixed(n), true);
        let kk = r.for_loop(TripCount::fixed(n), false);
        let va = r.load(
            src1,
            AffineExpr::var(i)
                .scaled(n as i64)
                .plus(&AffineExpr::var(kk)),
        );
        let vb = r.load(
            src2,
            AffineExpr::var(kk)
                .scaled(n as i64)
                .plus(&AffineExpr::var(j)),
        );
        let prod = r.bin(Opcode::FMul, va, vb);
        let acc = r.reduce(Opcode::FAdd, prod, kk);
        r.store(
            dst,
            AffineExpr::var(i)
                .scaled(n as i64)
                .plus(&AffineExpr::var(j)),
            acc,
        );
        k.finish_region(r);
    }
    k.build().expect("3mm is well-formed")
}

/// atax — `y = Aᵀ(Ax)`: a matvec whose result row-scalar is immediately
/// consumed by the transpose accumulation (repetitive in-place update,
/// Fig 7b).
#[must_use]
pub fn atax() -> Kernel {
    let n = 32u64;
    let mut k = KernelBuilder::new("poly-atax");
    let a = k.array("a", BitWidth::B64, n * n, MemClass::Scratchpad);
    let x = k.array("x", BitWidth::B64, n, MemClass::Scratchpad);
    let y = k.array("y", BitWidth::B64, n, MemClass::MainMemory);

    // Region 0: per row i, tmp_i = Σ_j a[i][j]·x[j], yielded.
    let mut r0 = k.region("ax", 1.0);
    let i0 = r0.for_loop(TripCount::fixed(n), false);
    let j0 = r0.for_loop(TripCount::fixed(n), false);
    let va = r0.load(
        a,
        AffineExpr::var(i0)
            .scaled(n as i64)
            .plus(&AffineExpr::var(j0)),
    );
    let vx = r0.load(x, AffineExpr::var(j0));
    let p = r0.bin(Opcode::FMul, va, vx);
    let acc = r0.reduce(Opcode::FAdd, p, j0);
    r0.yield_value(acc);
    let r0i = k.finish_region(r0);

    // Region 1: y[j] += a[i][j]·tmp_i — repetitive in-place update on y.
    let mut r1 = k.region("aty", 1.0);
    let i1 = r1.for_loop(TripCount::fixed(n), false);
    let j1 = r1.for_loop(TripCount::fixed(n), true);
    let tmp = r1.consume(r0i, 0);
    let va1 = r1.load(
        a,
        AffineExpr::var(i1)
            .scaled(n as i64)
            .plus(&AffineExpr::var(j1)),
    );
    let p1 = r1.bin(Opcode::FMul, va1, tmp);
    r1.update(y, AffineExpr::var(j1), Opcode::FAdd, p1);
    k.finish_region(r1);
    k.build().expect("atax is well-formed")
}

/// mvt — two independent matvec accumulations `x1 += A·y1`, `x2 += Aᵀ·y2`,
/// fully concurrent regions within one config scope.
#[must_use]
pub fn mvt() -> Kernel {
    let n = 32u64;
    let mut k = KernelBuilder::new("poly-mvt");
    let a = k.array("a", BitWidth::B64, n * n, MemClass::Scratchpad);
    let x1 = k.array("x1", BitWidth::B64, n, MemClass::MainMemory);
    let y1 = k.array("y1", BitWidth::B64, n, MemClass::Scratchpad);
    let x2 = k.array("x2", BitWidth::B64, n, MemClass::MainMemory);
    let y2 = k.array("y2", BitWidth::B64, n, MemClass::Scratchpad);

    let mut r0 = k.region("mv", 1.0);
    let i = r0.for_loop(TripCount::fixed(n), true);
    let j = r0.for_loop(TripCount::fixed(n), false);
    let va = r0.load(
        a,
        AffineExpr::var(i)
            .scaled(n as i64)
            .plus(&AffineExpr::var(j)),
    );
    let vy = r0.load(y1, AffineExpr::var(j));
    let p = r0.bin(Opcode::FMul, va, vy);
    let acc = r0.reduce(Opcode::FAdd, p, j);
    r0.store(x1, AffineExpr::var(i), acc);
    k.finish_region(r0);

    let mut r1 = k.region("mtv", 1.0);
    let i1 = r1.for_loop(TripCount::fixed(n), true);
    let j1 = r1.for_loop(TripCount::fixed(n), false);
    // Transposed access: column-major walk of A.
    let va1 = r1.load(
        a,
        AffineExpr::var(j1)
            .scaled(n as i64)
            .plus(&AffineExpr::var(i1)),
    );
    let vy1 = r1.load(y2, AffineExpr::var(j1));
    let p1 = r1.bin(Opcode::FMul, va1, vy1);
    let acc1 = r1.reduce(Opcode::FAdd, p1, j1);
    r1.store(x2, AffineExpr::var(i1), acc1);
    k.finish_region(r1);
    k.build().expect("mvt is well-formed")
}

/// bicg — the BiCG sub-kernels `s = Aᵀ·r` and `q = A·p` (PolyBench's
/// bicg at 32²). Not part of the paper's five-kernel slice; used by the
/// functional-validation suite and available for DSE experiments.
#[must_use]
pub fn bicg() -> Kernel {
    let n = 32u64;
    let mut k = KernelBuilder::new("poly-bicg");
    let a = k.array("a", BitWidth::B64, n * n, MemClass::Scratchpad);
    let r = k.array("r", BitWidth::B64, n, MemClass::Scratchpad);
    let p = k.array("p", BitWidth::B64, n, MemClass::Scratchpad);
    let s_out = k.array("s", BitWidth::B64, n, MemClass::MainMemory);
    let q_out = k.array("q", BitWidth::B64, n, MemClass::MainMemory);

    // s[j] = Σ_i a[i][j] * r[i] — column-major reduction.
    let mut r0 = k.region("at_r", 1.0);
    let j = r0.for_loop(TripCount::fixed(n), true);
    let i = r0.for_loop(TripCount::fixed(n), false);
    let va = r0.load(
        a,
        AffineExpr::var(i)
            .scaled(n as i64)
            .plus(&AffineExpr::var(j)),
    );
    let vr = r0.load(r, AffineExpr::var(i));
    let prod = r0.bin(Opcode::FMul, va, vr);
    let acc = r0.reduce(Opcode::FAdd, prod, i);
    r0.store(s_out, AffineExpr::var(j), acc);
    k.finish_region(r0);

    // q[i] = Σ_j a[i][j] * p[j] — row-major reduction.
    let mut r1 = k.region("a_p", 1.0);
    let i1 = r1.for_loop(TripCount::fixed(n), true);
    let j1 = r1.for_loop(TripCount::fixed(n), false);
    let va1 = r1.load(
        a,
        AffineExpr::var(i1)
            .scaled(n as i64)
            .plus(&AffineExpr::var(j1)),
    );
    let vp = r1.load(p, AffineExpr::var(j1));
    let prod1 = r1.bin(Opcode::FMul, va1, vp);
    let acc1 = r1.reduce(Opcode::FAdd, prod1, j1);
    r1.store(q_out, AffineExpr::var(i1), acc1);
    k.finish_region(r1);
    k.build().expect("bicg is well-formed")
}

/// pipe-split — a live producer-consumer pipeline whose two stages touch
/// *disjoint* memories: the matvec stage streams from main memory and
/// forwards its row scalar, the scaling stage consumes it against
/// scratchpad-resident weights. The stages share a pipeline group but no
/// arrays or memory ports, so under a schedule that places them on
/// disjoint fabric they land in separate recovery domains while executing
/// concurrently — the shape that engages domain-sliced rollback (a fault
/// in one stage rewinds only that stage; the other's replay is "saved").
/// Soak/recovery fixture, not part of the paper's five-kernel slice.
#[must_use]
pub fn pipe_split() -> Kernel {
    let n = 32u64;
    let mut k = KernelBuilder::new("poly-pipe-split");
    let a = k.array("a", BitWidth::B64, n * n, MemClass::MainMemory);
    let x = k.array("x", BitWidth::B64, n, MemClass::MainMemory);
    let w = k.array("w", BitWidth::B64, n, MemClass::Scratchpad);
    let y = k.array("y", BitWidth::B64, n, MemClass::Scratchpad);

    // Stage 0: per row i, tmp_i = Σ_j a[i][j]·x[j], forwarded (never
    // stored) — main memory only.
    let mut r0 = k.region("matvec", 1.0);
    let i0 = r0.for_loop(TripCount::fixed(n), false);
    let j0 = r0.for_loop(TripCount::fixed(n), false);
    let va = r0.load(
        a,
        AffineExpr::var(i0)
            .scaled(n as i64)
            .plus(&AffineExpr::var(j0)),
    );
    let vx = r0.load(x, AffineExpr::var(j0));
    let p = r0.bin(Opcode::FMul, va, vx);
    let acc = r0.reduce(Opcode::FAdd, p, j0);
    r0.yield_value(acc);
    let r0i = k.finish_region(r0);

    // Stage 1: y[i] = tmp_i · w[i] — scratchpad only.
    let mut r1 = k.region("scale", 1.0);
    let i1 = r1.for_loop(TripCount::fixed(n), true);
    let tmp = r1.consume(r0i, 0);
    let vw = r1.load(w, AffineExpr::var(i1));
    let s = r1.bin(Opcode::FMul, tmp, vw);
    r1.store(y, AffineExpr::var(i1), s);
    k.finish_region(r1);
    k.build().expect("pipe-split is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsagen_dfg::KernelIdioms;

    #[test]
    fn all_build() {
        for k in [mm(), mm2(), mm3(), atax(), mvt(), bicg(), pipe_split()] {
            k.validate().unwrap_or_else(|e| panic!("{}: {e}", k.name));
        }
    }

    #[test]
    fn pipe_split_stages_forward_and_share_no_arrays() {
        use dsagen_dfg::{SrcExpr, SrcStmt};
        let k = pipe_split();
        assert_eq!(k.regions.len(), 2);
        assert!(KernelIdioms::analyze(&k).has_forwarding);
        // Disjoint array footprints are what let the two stages land in
        // separate recovery domains despite the live pipeline group.
        let touched = |ri: usize| {
            let mut ids: Vec<_> = k.regions[ri]
                .iter_exprs()
                .filter_map(|(_, e)| match e {
                    SrcExpr::Load { array, .. } => Some(*array),
                    _ => None,
                })
                .collect();
            ids.extend(k.regions[ri].stmts.iter().filter_map(|s| match s {
                SrcStmt::Store { array, .. } | SrcStmt::Update { array, .. } => Some(*array),
                SrcStmt::Yield { .. } => None,
            }));
            ids
        };
        let (t0, t1) = (touched(0), touched(1));
        assert!(!t0.is_empty() && !t1.is_empty());
        assert!(t0.iter().all(|a| !t1.contains(a)));
    }

    #[test]
    fn polybench_is_regular() {
        for k in [mm(), mm2(), mm3(), mvt()] {
            let i = KernelIdioms::analyze(&k);
            assert!(!i.has_indirect, "{}", k.name);
            assert!(!i.has_join, "{}", k.name);
        }
    }

    #[test]
    fn chain_lengths() {
        assert_eq!(mm().regions.len(), 1);
        assert_eq!(mm2().regions.len(), 2);
        assert_eq!(mm3().regions.len(), 3);
    }

    #[test]
    fn atax_forwards_and_updates() {
        let i = KernelIdioms::analyze(&atax());
        assert!(i.has_forwarding);
    }

    #[test]
    fn table1_sizes() {
        assert!(mm().arrays.iter().all(|a| a.len == 32 * 32));
        assert!(mm2().arrays.iter().all(|a| a.len == 32 * 32));
    }
}
