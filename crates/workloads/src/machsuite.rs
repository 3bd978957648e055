//! MachSuite workloads (§VII, Table I): md, spmv-crs, spmv-ellpack, mm,
//! stencil-2d, stencil-3d.

use dsagen_adg::{BitWidth, Opcode};
use dsagen_dfg::{AffineExpr, Kernel, KernelBuilder, MemClass, TripCount};

/// md — molecular-dynamics k-nearest-neighbor force kernel, 128 atoms × 16
/// neighbors (Table I: `128 × 16`). Gather-heavy (indirect neighbor loads)
/// with floating-point force arithmetic.
#[must_use]
pub fn md() -> Kernel {
    let (atoms, neighbors) = (128u64, 16u64);
    let mut k = KernelBuilder::new("md");
    let px = k.array("pos_x", BitWidth::B64, atoms, MemClass::Scratchpad);
    let py = k.array("pos_y", BitWidth::B64, atoms, MemClass::Scratchpad);
    let pz = k.array("pos_z", BitWidth::B64, atoms, MemClass::Scratchpad);
    let nl = k.array(
        "neigh",
        BitWidth::B64,
        atoms * neighbors,
        MemClass::MainMemory,
    );
    let fx = k.array("force_x", BitWidth::B64, atoms, MemClass::MainMemory);
    let fy = k.array("force_y", BitWidth::B64, atoms, MemClass::MainMemory);
    let fz = k.array("force_z", BitWidth::B64, atoms, MemClass::MainMemory);

    let mut r = k.region("forces", 1.0);
    let i = r.for_loop(TripCount::fixed(atoms), true);
    let j = r.for_loop(TripCount::fixed(neighbors), true);
    let nidx = AffineExpr::var(i)
        .scaled(neighbors as i64)
        .plus(&AffineExpr::var(j));
    // Own position (outer rate) and gathered neighbor positions.
    let xi = r.load(px, AffineExpr::var(i));
    let yi = r.load(py, AffineExpr::var(i));
    let zi = r.load(pz, AffineExpr::var(i));
    let xj = r.load_indirect(px, nl, nidx.clone());
    let yj = r.load_indirect(py, nl, nidx.clone());
    let zj = r.load_indirect(pz, nl, nidx);
    // delta, r2 = dx² + dy² + dz²
    let dx = r.bin(Opcode::FSub, xi, xj);
    let dy = r.bin(Opcode::FSub, yi, yj);
    let dz = r.bin(Opcode::FSub, zi, zj);
    let dx2 = r.bin(Opcode::FMul, dx, dx);
    let dy2 = r.bin(Opcode::FMul, dy, dy);
    let dz2 = r.bin(Opcode::FMul, dz, dz);
    let s1 = r.bin(Opcode::FAdd, dx2, dy2);
    let r2 = r.bin(Opcode::FAdd, s1, dz2);
    // Lennard-Jones-ish potential: r6inv = 1/r2³; force = r6inv*(r6inv-0.5)/r2
    let one = r.imm(1);
    let r2inv = r.bin(Opcode::FDiv, one, r2);
    let r4 = r.bin(Opcode::FMul, r2inv, r2inv);
    let r6 = r.bin(Opcode::FMul, r4, r2inv);
    let half = r.imm(0);
    let t = r.bin(Opcode::FSub, r6, half);
    let pot = r.bin(Opcode::FMul, r6, t);
    let force = r.bin(Opcode::FMul, pot, r2inv);
    // Per-axis force accumulation over neighbors.
    let fx_c = r.bin(Opcode::FMul, force, dx);
    let fy_c = r.bin(Opcode::FMul, force, dy);
    let fz_c = r.bin(Opcode::FMul, force, dz);
    let ax = r.reduce(Opcode::FAdd, fx_c, j);
    let ay = r.reduce(Opcode::FAdd, fy_c, j);
    let az = r.reduce(Opcode::FAdd, fz_c, j);
    r.store(fx, AffineExpr::var(i), ax);
    r.store(fy, AffineExpr::var(i), ay);
    r.store(fz, AffineExpr::var(i), az);
    k.finish_region(r);
    k.build().expect("md is well-formed")
}

/// spmv-crs — sparse matrix-vector multiply, CRS format (Table I:
/// `464 × 4`): 464 rows averaging 4 nonzeros, inductive inner trip,
/// indirect gather of the dense vector.
#[must_use]
pub fn spmv_crs() -> Kernel {
    let (rows, avg_nnz) = (464u64, 4u64);
    let nnz = rows * avg_nnz;
    let mut k = KernelBuilder::new("spmv-crs");
    let vals = k.array("vals", BitWidth::B64, nnz, MemClass::MainMemory);
    let cols = k.array("cols", BitWidth::B64, nnz, MemClass::MainMemory);
    let x = k.array("x", BitWidth::B64, 512, MemClass::Scratchpad);
    let y = k.array("y", BitWidth::B64, rows, MemClass::MainMemory);

    let mut r = k.region("rows", 1.0);
    let i = r.for_loop(TripCount::fixed(rows), false);
    // Row lengths vary; CRS walks `row_ptr[i]..row_ptr[i+1]` — an
    // inductive stream the linear controller generates. Average 4.
    let j = r.for_loop(TripCount::fixed(avg_nnz), false);
    let idx = AffineExpr::var(i)
        .scaled(avg_nnz as i64)
        .plus(&AffineExpr::var(j));
    let v = r.load(vals, idx.clone());
    let xv = r.load_indirect(x, cols, idx);
    let prod = r.bin(Opcode::FMul, v, xv);
    let acc = r.reduce(Opcode::FAdd, prod, j);
    r.store(y, AffineExpr::var(i), acc);
    k.finish_region(r);
    k.build().expect("spmv-crs is well-formed")
}

/// spmv-ellpack — ELLPACK-format SpMV (Table I: `464 × 4`), fixed 4
/// nonzeros per row, vectorizable inner loop with indirect gather.
#[must_use]
pub fn spmv_ellpack() -> Kernel {
    let (rows, width) = (464u64, 4u64);
    let mut k = KernelBuilder::new("spmv-ellpack");
    let vals = k.array("vals", BitWidth::B64, rows * width, MemClass::MainMemory);
    let cols = k.array("cols", BitWidth::B64, rows * width, MemClass::MainMemory);
    let x = k.array("x", BitWidth::B64, 512, MemClass::Scratchpad);
    let y = k.array("y", BitWidth::B64, rows, MemClass::MainMemory);

    let mut r = k.region("rows", 1.0);
    let i = r.for_loop(TripCount::fixed(rows), true);
    let j = r.for_loop(TripCount::fixed(width), false);
    let idx = AffineExpr::var(i)
        .scaled(width as i64)
        .plus(&AffineExpr::var(j));
    let v = r.load(vals, idx.clone());
    let xv = r.load_indirect(x, cols, idx);
    let prod = r.bin(Opcode::FMul, v, xv);
    let acc = r.reduce(Opcode::FAdd, prod, j);
    r.store(y, AffineExpr::var(i), acc);
    k.finish_region(r);
    k.build().expect("spmv-ellpack is well-formed")
}

/// mm — dense matrix multiply (Table I: `64³`).
#[must_use]
pub fn mm() -> Kernel {
    gemm_kernel("mm", 64)
}

/// Builds an n³ dense matrix multiply.
#[must_use]
pub fn gemm_kernel(name: &str, n: u64) -> Kernel {
    let mut k = KernelBuilder::new(name);
    let a = k.array("a", BitWidth::B64, n * n, MemClass::MainMemory);
    let b = k.array("b", BitWidth::B64, n * n, MemClass::Scratchpad);
    let c = k.array("c", BitWidth::B64, n * n, MemClass::MainMemory);
    let mut r = k.region("body", 1.0);
    let i = r.for_loop(TripCount::fixed(n), false);
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
    let prod = r.bin(Opcode::FMul, va, vb);
    let acc = r.reduce(Opcode::FAdd, prod, kk);
    r.store(
        c,
        AffineExpr::var(i)
            .scaled(n as i64)
            .plus(&AffineExpr::var(j)),
        acc,
    );
    k.finish_region(r);
    k.build().expect("gemm is well-formed")
}

/// stencil-2d — 3×3 convolution over a 130×130 grid (Table I:
/// `130² × 3²`), producing a 128×128 interior.
#[must_use]
pub fn stencil2d() -> Kernel {
    let (n, out) = (130i64, 128u64);
    let mut k = KernelBuilder::new("stencil-2d");
    let src = k.array("src", BitWidth::B64, (n * n) as u64, MemClass::Scratchpad);
    let coef = k.array("coef", BitWidth::B64, 9, MemClass::Scratchpad);
    let dst = k.array("dst", BitWidth::B64, out * out, MemClass::MainMemory);

    let mut r = k.region("body", 1.0);
    let row = r.for_loop(TripCount::fixed(out), false);
    let col = r.for_loop(TripCount::fixed(out), true);
    let base = AffineExpr::var(row).scaled(n).plus(&AffineExpr::var(col));
    let mut products = Vec::with_capacity(9);
    for dr in 0..3i64 {
        for dc in 0..3i64 {
            let tap = r.load(src, base.clone().plus_const(dr * n + dc));
            let c = r.load(coef, AffineExpr::constant(dr * 3 + dc));
            products.push(r.bin(Opcode::FMul, tap, c));
        }
    }
    let acc = crate::reduce_tree(&mut r, Opcode::FAdd, products);
    r.store(
        dst,
        AffineExpr::var(row)
            .scaled(out as i64)
            .plus(&AffineExpr::var(col)),
        acc,
    );
    k.finish_region(r);
    k.build().expect("stencil-2d is well-formed")
}

/// stencil-3d — 7-point stencil over a 32×32×16 volume, 2 time iterations
/// (Table I: `32² × 16 × 2`). Many short inner streams ⇒ command-heavy,
/// the §VIII-B worst case for the performance model.
#[must_use]
pub fn stencil3d() -> Kernel {
    let (nx, ny, nz, iters) = (32i64, 32i64, 16u64, 2u64);
    let plane = nx * ny;
    let mut k = KernelBuilder::new("stencil-3d");
    let src = k.array(
        "src",
        BitWidth::B64,
        (plane as u64) * nz + 2 * plane as u64,
        MemClass::Scratchpad,
    );
    let dst = k.array(
        "dst",
        BitWidth::B64,
        (plane as u64) * nz,
        MemClass::MainMemory,
    );

    let mut r = k.region("body", 1.0);
    let _t = r.for_loop(TripCount::fixed(iters), false);
    let z = r.for_loop(TripCount::fixed(nz), false);
    let y = r.for_loop(TripCount::fixed((ny - 2) as u64), false);
    let x = r.for_loop(TripCount::fixed((nx - 2) as u64), true);
    let base = AffineExpr::var(z)
        .scaled(plane)
        .plus(&AffineExpr::var(y).scaled(nx))
        .plus(&AffineExpr::var(x))
        .plus_const(plane); // halo offset
    let center = r.load(src, base.clone());
    let offsets = [1i64, -1, nx, -nx, plane, -plane];
    let mut taps = vec![center];
    for off in offsets {
        taps.push(r.load(src, base.clone().plus_const(off)));
    }
    let acc = crate::reduce_tree(&mut r, Opcode::FAdd, taps);
    let c0 = r.imm(7);
    let scaled = r.bin(Opcode::FMul, acc, c0);
    r.store(dst, base, scaled);
    k.finish_region(r);
    k.build().expect("stencil-3d is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsagen_dfg::KernelIdioms;

    #[test]
    fn all_build_and_validate() {
        for k in [
            md(),
            spmv_crs(),
            spmv_ellpack(),
            mm(),
            stencil2d(),
            stencil3d(),
        ] {
            k.validate().unwrap_or_else(|e| panic!("{}: {e}", k.name));
        }
    }

    #[test]
    fn md_uses_indirection() {
        let i = KernelIdioms::analyze(&md());
        assert!(i.has_indirect);
        assert!(i.has_parallel_loop);
    }

    #[test]
    fn spmv_gathers_the_vector() {
        assert!(KernelIdioms::analyze(&spmv_crs()).has_indirect);
        assert!(KernelIdioms::analyze(&spmv_ellpack()).has_indirect);
    }

    #[test]
    fn mm_is_dense_and_regular() {
        let i = KernelIdioms::analyze(&mm());
        assert!(!i.has_indirect);
        assert!(!i.has_join);
        assert!(i.has_parallel_loop);
        // 64³ multiply-accumulate.
        assert_eq!(mm().regions[0].loops.len(), 3);
    }

    #[test]
    fn stencil2d_has_nine_taps() {
        let k = stencil2d();
        let loads = k.regions[0]
            .iter_exprs()
            .filter(|(_, e)| matches!(e, dsagen_dfg::SrcExpr::Load { .. }))
            .count();
        // 9 src taps + 9 coefficient loads.
        assert_eq!(loads, 18);
    }

    #[test]
    fn stencil3d_is_command_heavy() {
        // 4-deep nest ⇒ outer loops become stream re-issues.
        assert_eq!(stencil3d().regions[0].loops.len(), 4);
    }

    #[test]
    fn table1_sizes() {
        // md: 128 atoms × 16 neighbors → neighbor list of 2048 indices.
        assert!(md()
            .arrays
            .iter()
            .any(|a| a.name == "neigh" && a.len == 128 * 16));
        // mm: 64³ → 64×64 operand matrices.
        assert!(mm().arrays.iter().all(|a| a.len == 64 * 64));
        // spmv: 464 rows × 4 nonzeros.
        assert!(spmv_crs()
            .arrays
            .iter()
            .any(|a| a.name == "vals" && a.len == 464 * 4));
        // stencil-2d: 130² source grid.
        assert!(stencil2d()
            .arrays
            .iter()
            .any(|a| a.name == "src" && a.len == 130 * 130));
    }
}
