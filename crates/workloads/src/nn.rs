//! Neural-network DSE suites (§VIII-B): DenseNN (convolution, pooling,
//! classifier — the DianNao comparison set) and SparseCNN (outer-product
//! multiply + resparsification — the SCNN/SPU comparison workload).

use dsagen_adg::{BitWidth, Opcode};
use dsagen_dfg::{AffineExpr, Kernel, KernelBuilder, MemClass, TripCount};

/// conv — 3×3 convolution over a 28×28 feature map with 8 output channels;
/// regular access and control.
#[must_use]
pub fn conv() -> Kernel {
    let (dim, out_dim, ch) = (28i64, 26u64, 8u64);
    let mut k = KernelBuilder::new("nn-conv");
    let input = k.array(
        "input",
        BitWidth::B64,
        (dim * dim) as u64,
        MemClass::Scratchpad,
    );
    let weights = k.array("weights", BitWidth::B64, ch * 9, MemClass::Scratchpad);
    let output = k.array(
        "output",
        BitWidth::B64,
        ch * out_dim * out_dim,
        MemClass::MainMemory,
    );

    let mut r = k.region("conv", 1.0);
    let oc = r.for_loop(TripCount::fixed(ch), false);
    let row = r.for_loop(TripCount::fixed(out_dim), false);
    let col = r.for_loop(TripCount::fixed(out_dim), true);
    let base = AffineExpr::var(row).scaled(dim).plus(&AffineExpr::var(col));
    let wbase = AffineExpr::var(oc).scaled(9);
    let mut products = Vec::with_capacity(9);
    for dr in 0..3i64 {
        for dc in 0..3i64 {
            let px = r.load(input, base.clone().plus_const(dr * dim + dc));
            let w = r.load(weights, wbase.clone().plus_const(dr * 3 + dc));
            products.push(r.bin(Opcode::FMul, px, w));
        }
    }
    let acc = crate::reduce_tree(&mut r, Opcode::FAdd, products);
    let idx = AffineExpr::var(oc)
        .scaled((out_dim * out_dim) as i64)
        .plus(&AffineExpr::var(row).scaled(out_dim as i64))
        .plus(&AffineExpr::var(col));
    r.store(output, idx, acc);
    k.finish_region(r);
    k.build().expect("conv is well-formed")
}

/// pool — 2×2 max pooling over 8 channels of 26×26 maps.
#[must_use]
pub fn pool() -> Kernel {
    let (dim, out_dim, ch) = (26i64, 13u64, 8u64);
    let mut k = KernelBuilder::new("nn-pool");
    let input = k.array(
        "input",
        BitWidth::B64,
        ch * (dim * dim) as u64,
        MemClass::Scratchpad,
    );
    let output = k.array(
        "output",
        BitWidth::B64,
        ch * out_dim * out_dim,
        MemClass::MainMemory,
    );

    let mut r = k.region("pool", 1.0);
    let c = r.for_loop(TripCount::fixed(ch), false);
    let row = r.for_loop(TripCount::fixed(out_dim), false);
    let col = r.for_loop(TripCount::fixed(out_dim), true);
    let base = AffineExpr::var(c)
        .scaled(dim * dim)
        .plus(&AffineExpr::var(row).scaled(2 * dim))
        .plus(&AffineExpr::var(col).scaled(2));
    let p00 = r.load(input, base.clone());
    let p01 = r.load(input, base.clone().plus_const(1));
    let p10 = r.load(input, base.clone().plus_const(dim));
    let p11 = r.load(input, base.clone().plus_const(dim + 1));
    let m0 = r.bin(Opcode::FMax, p00, p01);
    let m1 = r.bin(Opcode::FMax, p10, p11);
    let m = r.bin(Opcode::FMax, m0, m1);
    let idx = AffineExpr::var(c)
        .scaled((out_dim * out_dim) as i64)
        .plus(&AffineExpr::var(row).scaled(out_dim as i64))
        .plus(&AffineExpr::var(col));
    r.store(output, idx, m);
    k.finish_region(r);
    k.build().expect("pool is well-formed")
}

/// classifier — fully-connected 256→128 layer with sigmoid activation
/// (DianNao's NFU-3 stage).
#[must_use]
pub fn classifier() -> Kernel {
    let (inputs, outputs) = (256u64, 128u64);
    let mut k = KernelBuilder::new("nn-classifier");
    let x = k.array("x", BitWidth::B64, inputs, MemClass::Scratchpad);
    let w = k.array("w", BitWidth::B64, inputs * outputs, MemClass::MainMemory);
    let y = k.array("y", BitWidth::B64, outputs, MemClass::MainMemory);

    let mut r = k.region("fc", 1.0);
    let o = r.for_loop(TripCount::fixed(outputs), true);
    let i = r.for_loop(TripCount::fixed(inputs), false);
    let wv = r.load(
        w,
        AffineExpr::var(o)
            .scaled(inputs as i64)
            .plus(&AffineExpr::var(i)),
    );
    let xv = r.load(x, AffineExpr::var(i));
    let p = r.bin(Opcode::FMul, wv, xv);
    let acc = r.reduce(Opcode::FAdd, p, i);
    let act = r.un(Opcode::Sigmoid, acc);
    r.store(y, AffineExpr::var(o), act);
    k.finish_region(r);
    k.build().expect("classifier is well-formed")
}

/// sparse-cnn — outer-product sparse×sparse multiply with scatter
/// accumulation (region 0) and resparsification (region 1): "regular
/// computation but data-dependent memory access" (§VIII-B). The scatter is
/// an indirect atomic update; resparsification is a predicated compaction.
#[must_use]
pub(crate) fn sparse_cnn() -> Kernel {
    let (nnz_a, nnz_b, dense) = (256u64, 256u64, 4096u64);
    let mut k = KernelBuilder::new("sparse-cnn");
    let va = k.array("val_a", BitWidth::B64, nnz_a, MemClass::Scratchpad);
    let ia = k.array("idx_a", BitWidth::B64, nnz_a, MemClass::Scratchpad);
    let vb = k.array("val_b", BitWidth::B64, nnz_b, MemClass::Scratchpad);
    let ib = k.array("idx_b", BitWidth::B64, nnz_b, MemClass::Scratchpad);
    let outm = k.array("out", BitWidth::B64, dense, MemClass::Scratchpad);
    let packed = k.array("packed", BitWidth::B64, dense, MemClass::MainMemory);

    // Region 0: out[flat(idx_a[i], idx_b[j])] += val_a[i] * val_b[j].
    // The scatter index is itself data-dependent; the compiler encodes it
    // through the indirect/atomic controller (ia is the representative
    // index stream; ib contributes the product's column).
    let mut r0 = k.region("outer-product", 1.0);
    let i = r0.for_loop(TripCount::fixed(nnz_a), false);
    let j = r0.for_loop(TripCount::fixed(nnz_b), true);
    let a = r0.load(va, AffineExpr::var(i));
    let b = r0.load(vb, AffineExpr::var(j));
    let bidx = r0.load(ib, AffineExpr::var(j));
    let prod = r0.bin(Opcode::FMul, a, b);
    let _ = bidx;
    r0.update_indirect(outm, ia, AffineExpr::var(j), Opcode::FAdd, prod);
    k.finish_region(r0);

    // Region 1: resparsification — keep |out[p]| above threshold, zero the
    // rest (predicated select; compaction handled by the write stream).
    let mut r1 = k.region("resparsify", 1.0);
    let p = r1.for_loop(TripCount::fixed(dense), true);
    let v = r1.load(outm, AffineExpr::var(p));
    let thr = r1.imm(1);
    let zero = r1.imm(0);
    let keep = r1.bin(Opcode::FCmpLt, thr, v);
    let sel = r1.mux(keep, v, zero);
    r1.store(packed, AffineExpr::var(p), sel);
    k.finish_region(r1);
    k.build().expect("sparse-cnn is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsagen_dfg::KernelIdioms;

    #[test]
    fn all_build() {
        for k in [conv(), pool(), classifier(), sparse_cnn()] {
            k.validate().unwrap_or_else(|e| panic!("{}: {e}", k.name));
        }
    }

    #[test]
    fn dense_suite_is_regular() {
        for k in [conv(), pool(), classifier()] {
            let i = KernelIdioms::analyze(&k);
            assert!(!i.has_indirect, "{}", k.name);
            assert!(!i.has_join, "{}", k.name);
            assert!(i.has_parallel_loop, "{}", k.name);
        }
    }

    #[test]
    fn sparse_cnn_scatters() {
        let i = KernelIdioms::analyze(&sparse_cnn());
        assert!(i.has_indirect);
        assert!(i.has_indirect_update);
    }

    #[test]
    fn pool_uses_max_not_mul() {
        let k = pool();
        let has_max = k.regions[0].iter_exprs().any(|(_, e)| {
            matches!(
                e,
                dsagen_dfg::SrcExpr::Bin {
                    op: Opcode::FMax,
                    ..
                }
            )
        });
        assert!(has_max);
        assert_eq!(k.regions[0].compute_op_count(), 3);
    }

    #[test]
    fn classifier_has_sigmoid_at_outer_rate() {
        let k = classifier();
        let region = &k.regions[0];
        let sig = region
            .iter_exprs()
            .find_map(|(id, e)| match e {
                dsagen_dfg::SrcExpr::Un {
                    op: Opcode::Sigmoid,
                    ..
                } => Some(id),
                _ => None,
            })
            .unwrap();
        assert_eq!(region.rate_level(sig), Some(dsagen_dfg::LoopVar(0)));
    }
}
