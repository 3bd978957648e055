//! REVEL DSP workloads (§VII, Table I): qr, cholesky, fft, plus centro-fir.
//! These feature triangular (inductive) iteration spaces and outer-loop
//! low-rate computation — the workloads that "heavily benefit from shared
//! PEs for their outer-loop computations" (§VIII-A).

use dsagen_adg::{BitWidth, Opcode};
use dsagen_dfg::{AffineExpr, Kernel, KernelBuilder, MemClass, TripCount};

/// qr — Householder-style QR factorization of a 32×32 matrix (Table I:
/// `32²`): per pivot column, a norm reduction (yielded) feeds a triangular
/// update — the producer-consumer idiom of Fig 7a on an inductive space.
#[must_use]
pub fn qr() -> Kernel {
    let n = 32u64;
    let mut k = KernelBuilder::new("qr");
    let a = k.array("a", BitWidth::B64, n * n, MemClass::Scratchpad);
    let rmat = k.array("r", BitWidth::B64, n * n, MemClass::MainMemory);

    // Region 0: per pivot k, compute the column norm (inductive length
    // n − k) and yield 1/norm. The sum is associative, so the inner loop is
    // vectorizable with parallel partial accumulators.
    let mut r0 = k.region("norm", 1.0);
    let kv = r0.for_loop(TripCount::fixed(n), false);
    let i = r0.for_loop(TripCount::inductive(n as i64, -1), true);
    let col = AffineExpr::var(i)
        .scaled(n as i64)
        .plus(&AffineExpr::var(kv));
    let v = r0.load(a, col);
    let sq = r0.bin(Opcode::FMul, v, v);
    let ss = r0.reduce(Opcode::FAdd, sq, i);
    let norm = r0.un(Opcode::FSqrt, ss); // outer-rate op → shared PE fodder
    let one = r0.imm(1);
    let inv = r0.bin(Opcode::FDiv, one, norm);
    r0.yield_value(inv);
    let r0i = k.finish_region(r0);

    // Region 1: triangular trailing update a[i][j] -= v_i * v_j * inv.
    let mut r1 = k.region("update", 1.0);
    let kv1 = r1.for_loop(TripCount::fixed(n), false);
    let j = r1.for_loop(TripCount::inductive(n as i64, -1), true);
    let inv = r1.consume(r0i, 0);
    let aij = r1.load(
        a,
        AffineExpr::var(kv1)
            .scaled(n as i64)
            .plus(&AffineExpr::var(j)),
    );
    let vk = r1.load(a, AffineExpr::var(kv1).scaled((n + 1) as i64));
    let t = r1.bin(Opcode::FMul, vk, inv);
    let upd = r1.bin(Opcode::FMul, aij, t);
    let nw = r1.bin(Opcode::FSub, aij, upd);
    r1.store(
        rmat,
        AffineExpr::var(kv1)
            .scaled(n as i64)
            .plus(&AffineExpr::var(j)),
        nw,
    );
    k.finish_region(r1);
    k.build().expect("qr is well-formed")
}

/// cholesky — in-place Cholesky factorization of a 32×32 SPD matrix
/// (Table I: `32²`): sqrt/divide at the pivot (outer rate), triangular
/// column updates.
#[must_use]
pub fn cholesky() -> Kernel {
    let n = 32u64;
    let mut k = KernelBuilder::new("cholesky");
    let a = k.array("a", BitWidth::B64, n * n, MemClass::Scratchpad);
    let l = k.array("l", BitWidth::B64, n * n, MemClass::MainMemory);

    // Region 0: pivot: yield 1/sqrt(a[k][k]).
    let mut r0 = k.region("pivot", 1.0);
    let kv = r0.for_loop(TripCount::fixed(n), false);
    let akk = r0.load(a, AffineExpr::var(kv).scaled((n + 1) as i64));
    let s = r0.un(Opcode::FSqrt, akk);
    let one = r0.imm(1);
    let inv = r0.bin(Opcode::FDiv, one, s);
    r0.yield_value(inv);
    let r0i = k.finish_region(r0);

    // Region 1: scale the column below the pivot and update the trailing
    // submatrix row-by-row (triangular inner trip).
    let mut r1 = k.region("update", 1.0);
    let kv1 = r1.for_loop(TripCount::fixed(n), false);
    let i = r1.for_loop(TripCount::inductive(n as i64 - 1, -1), true);
    let inv = r1.consume(r0i, 0);
    let aik = r1.load(
        a,
        AffineExpr::var(i)
            .scaled(n as i64)
            .plus(&AffineExpr::var(kv1))
            .plus_const(n as i64),
    );
    let lik = r1.bin(Opcode::FMul, aik, inv);
    let sq = r1.bin(Opcode::FMul, lik, lik);
    let aii = r1.load(
        a,
        AffineExpr::var(i)
            .scaled((n + 1) as i64)
            .plus_const((n + 1) as i64),
    );
    let nw = r1.bin(Opcode::FSub, aii, sq);
    let _ = nw;
    r1.store(
        l,
        AffineExpr::var(i)
            .scaled(n as i64)
            .plus(&AffineExpr::var(kv1))
            .plus_const(n as i64),
        lik,
    );
    k.finish_region(r1);
    k.build().expect("cholesky is well-formed")
}

/// fft — radix-2 1024-point FFT (Table I: `2¹⁰`): 10 butterfly stages over
/// scratchpad data. The non-unit stride between butterfly operands makes
/// late stages generate many small scratchpad requests — the §VIII-A
/// outlier where manually peeled code wins 2×.
#[must_use]
pub fn fft() -> Kernel {
    let n = 1u64 << 10;
    let stages = 10u64;
    let half = n / 2;
    let mut k = KernelBuilder::new("fft");
    let re = k.array("re", BitWidth::B64, n, MemClass::Scratchpad);
    let im = k.array("im", BitWidth::B64, n, MemClass::Scratchpad);
    let tw_re = k.array("tw_re", BitWidth::B64, half, MemClass::Scratchpad);
    let tw_im = k.array("tw_im", BitWidth::B64, half, MemClass::Scratchpad);

    let mut r = k.region("stages", 1.0);
    let _s = r.for_loop(TripCount::fixed(stages), false);
    let b = r.for_loop(TripCount::fixed(half), true);
    // Butterfly operand pair: stride-2 access pattern (representative of
    // the small-stride late stages).
    let even = AffineExpr::var(b).scaled(2);
    let odd = AffineExpr::var(b).scaled(2).plus_const(1);
    let ar = r.load(re, even.clone());
    let ai = r.load(im, even.clone());
    let br = r.load(re, odd.clone());
    let bi = r.load(im, odd.clone());
    let wr = r.load(tw_re, AffineExpr::var(b));
    let wi = r.load(tw_im, AffineExpr::var(b));
    // t = w * b (complex)
    let t1 = r.bin(Opcode::FMul, br, wr);
    let t2 = r.bin(Opcode::FMul, bi, wi);
    let t3 = r.bin(Opcode::FMul, br, wi);
    let t4 = r.bin(Opcode::FMul, bi, wr);
    let tr = r.bin(Opcode::FSub, t1, t2);
    let ti = r.bin(Opcode::FAdd, t3, t4);
    // out_even = a + t; out_odd = a − t
    let oer = r.bin(Opcode::FAdd, ar, tr);
    let oei = r.bin(Opcode::FAdd, ai, ti);
    let oor = r.bin(Opcode::FSub, ar, tr);
    let ooi = r.bin(Opcode::FSub, ai, ti);
    r.store(re, even.clone(), oer);
    r.store(im, even, oei);
    r.store(re, odd.clone(), oor);
    r.store(im, odd, ooi);
    k.finish_region(r);
    k.build().expect("fft is well-formed")
}

/// centro-fir — centro-symmetric FIR filter (REVEL's fourth DSP kernel):
/// 2048 samples × 32 symmetric taps, with the tap-pair pre-add done at the
/// inner rate and coefficient loads repeating per output.
#[must_use]
pub fn centro_fir() -> Kernel {
    let (n, taps) = (2048u64, 32u64);
    let mut k = KernelBuilder::new("centro-fir");
    let x = k.array("x", BitWidth::B64, n + taps, MemClass::Scratchpad);
    let c = k.array("coef", BitWidth::B64, taps / 2, MemClass::Scratchpad);
    let y = k.array("y", BitWidth::B64, n, MemClass::MainMemory);

    let mut r = k.region("body", 1.0);
    let i = r.for_loop(TripCount::fixed(n), true);
    let j = r.for_loop(TripCount::fixed(taps / 2), false);
    // Symmetric pair: x[i+j] + x[i+taps−1−j]
    let lo = r.load(x, AffineExpr::var(i).plus(&AffineExpr::var(j)));
    let hi = r.load(
        x,
        AffineExpr::var(i)
            .plus(&AffineExpr::var(j).scaled(-1))
            .plus_const(taps as i64 - 1),
    );
    let pair = r.bin(Opcode::FAdd, lo, hi);
    let coef = r.load(c, AffineExpr::var(j));
    let prod = r.bin(Opcode::FMul, pair, coef);
    let acc = r.reduce(Opcode::FAdd, prod, j);
    r.store(y, AffineExpr::var(i), acc);
    k.finish_region(r);
    k.build().expect("centro-fir is well-formed")
}

/// fir16 — the centro-symmetric FIR on 16-bit fixed-point data: every
/// array element is narrow, so the compiler's sub-word packing
/// transformation can drive decomposable FUs four lanes at a time
/// (§III-A "decomposable FUs"). Not part of Table I; used by the
/// decomposability tests and ablations.
#[must_use]
pub fn fir16() -> Kernel {
    let (n, taps) = (2048u64, 32u64);
    let mut k = KernelBuilder::new("fir16");
    let x = k.array("x", BitWidth::B16, n + taps, MemClass::Scratchpad);
    let c = k.array("coef", BitWidth::B16, taps / 2, MemClass::Scratchpad);
    let y = k.array("y", BitWidth::B16, n, MemClass::MainMemory);

    let mut r = k.region("body", 1.0);
    let i = r.for_loop(TripCount::fixed(n), true);
    let j = r.for_loop(TripCount::fixed(taps / 2), false);
    let lo = r.load(x, AffineExpr::var(i).plus(&AffineExpr::var(j)));
    let hi = r.load(
        x,
        AffineExpr::var(i)
            .plus(&AffineExpr::var(j).scaled(-1))
            .plus_const(taps as i64 - 1),
    );
    let pair = r.bin(Opcode::Add, lo, hi);
    let coef = r.load(c, AffineExpr::var(j));
    let prod = r.bin(Opcode::Mul, pair, coef);
    let acc = r.reduce(Opcode::Add, prod, j);
    r.store(y, AffineExpr::var(i), acc);
    k.finish_region(r);
    k.build().expect("fir16 is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsagen_dfg::{KernelIdioms, LoopKind, SrcExpr};

    #[test]
    fn all_build() {
        for k in [qr(), cholesky(), fft(), centro_fir(), fir16()] {
            k.validate().unwrap_or_else(|e| panic!("{}: {e}", k.name));
        }
    }

    #[test]
    fn fir16_is_narrow_data() {
        let i = KernelIdioms::analyze(&fir16());
        assert!(i.narrow_data);
        assert!(!KernelIdioms::analyze(&centro_fir()).narrow_data);
    }

    #[test]
    fn qr_and_cholesky_are_producer_consumer() {
        for k in [qr(), cholesky()] {
            assert_eq!(k.regions.len(), 2, "{}", k.name);
            assert!(k.regions[1]
                .iter_exprs()
                .any(|(_, e)| matches!(e, SrcExpr::Consume { region: 0, .. })));
            assert!(KernelIdioms::analyze(&k).has_forwarding);
        }
    }

    #[test]
    fn triangular_loops_are_inductive() {
        let k = qr();
        let inductive = k.regions.iter().any(|r| {
            r.loops
                .iter()
                .any(|l| matches!(l.kind, LoopKind::For { trip } if trip.is_inductive()))
        });
        assert!(inductive);
    }

    #[test]
    fn qr_has_outer_rate_ops() {
        // FSqrt/FDiv fire once per pivot — outer-loop rate.
        let k = qr();
        let region = &k.regions[0];
        let sqrt = region
            .iter_exprs()
            .find_map(|(id, e)| match e {
                SrcExpr::Un {
                    op: Opcode::FSqrt, ..
                } => Some(id),
                _ => None,
            })
            .expect("qr has a square root");
        assert_eq!(region.rate_level(sqrt), Some(dsagen_dfg::LoopVar(0)));
    }

    #[test]
    fn fft_has_nonunit_stride() {
        let k = fft();
        let strided = k.regions[0].iter_exprs().any(|(_, e)| match e {
            SrcExpr::Load { index, .. } => {
                index.driving_expr().stride_of(dsagen_dfg::LoopVar(1)) == 2
            }
            _ => false,
        });
        assert!(strided, "butterfly loads must stride by 2");
    }

    #[test]
    fn table1_sizes() {
        assert!(qr()
            .arrays
            .iter()
            .any(|a| a.name == "a" && a.len == 32 * 32));
        assert!(cholesky().arrays.iter().any(|a| a.len == 32 * 32));
        assert!(fft()
            .arrays
            .iter()
            .any(|a| a.name == "re" && a.len == 1 << 10));
    }
}
