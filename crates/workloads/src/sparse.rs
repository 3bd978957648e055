//! SPU sparse microbenchmarks (§VII, Table I): histogram and join.

use dsagen_adg::{BitWidth, Opcode};
use dsagen_dfg::{AffineExpr, JoinSide, Kernel, KernelBuilder, MemClass, TripCount};

/// histogram — `h[b[i]] += 1` over 2¹⁶ samples into 2¹⁰ bins (Table I:
/// `2¹⁰ × 2¹⁶`). Exercises indirect atomic update.
#[must_use]
pub fn histogram() -> Kernel {
    let (bins, samples) = (1u64 << 10, 1u64 << 16);
    let mut k = KernelBuilder::new("histogram");
    let h = k.array("hist", BitWidth::B64, bins, MemClass::Scratchpad);
    let b = k.array("samples", BitWidth::B64, samples, MemClass::MainMemory);
    let mut r = k.region("body", 1.0);
    let i = r.for_loop(TripCount::fixed(samples), true);
    let one = r.imm(1);
    r.update_indirect(h, b, AffineExpr::var(i), Opcode::Add, one);
    k.finish_region(r);
    k.build().expect("histogram is well-formed")
}

/// join — sorted-key database join over two 768-entry tables (Table I:
/// `768 × 2`), summing products of matched payloads. Exercises
/// control-dependent memory access (stream-join, §IV-E Fig 8).
#[must_use]
pub fn join() -> Kernel {
    join_sized(768, 0.33)
}

/// A join with configurable table size and key match ratio.
#[must_use]
pub(crate) fn join_sized(len: u64, match_ratio: f64) -> Kernel {
    let mut k = KernelBuilder::new("join");
    let k0 = k.array("key0", BitWidth::B64, len, MemClass::MainMemory);
    let v0 = k.array("val0", BitWidth::B64, len, MemClass::MainMemory);
    let k1 = k.array("key1", BitWidth::B64, len, MemClass::MainMemory);
    let v1 = k.array("val1", BitWidth::B64, len, MemClass::MainMemory);
    let out = k.array("out", BitWidth::B64, 1, MemClass::MainMemory);
    let mut r = k.region("merge", 1.0);
    let j = r.join_loop(
        JoinSide {
            key: k0,
            payloads: vec![v0],
            len,
        },
        JoinSide {
            key: k1,
            payloads: vec![v1],
            len,
        },
        match_ratio,
    );
    let a = r.load(v0, AffineExpr::var(j));
    let b = r.load(v1, AffineExpr::var(j));
    let p = r.bin(Opcode::Mul, a, b);
    let acc = r.reduce(Opcode::Add, p, j);
    r.store(out, AffineExpr::constant(0), acc);
    k.finish_region(r);
    k.build().expect("join is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsagen_dfg::KernelIdioms;

    #[test]
    fn histogram_idioms() {
        let i = KernelIdioms::analyze(&histogram());
        assert!(i.has_indirect);
        assert!(i.has_indirect_update);
        assert!(i.has_parallel_loop);
    }

    #[test]
    fn join_idioms() {
        let i = KernelIdioms::analyze(&join());
        assert!(i.has_join);
        assert!(!i.has_indirect);
    }

    #[test]
    fn table1_sizes() {
        assert!(histogram()
            .arrays
            .iter()
            .any(|a| a.name == "hist" && a.len == 1 << 10));
        assert!(histogram()
            .arrays
            .iter()
            .any(|a| a.name == "samples" && a.len == 1 << 16));
        assert!(join().arrays.iter().filter(|a| a.len == 768).count() == 4);
    }

    #[test]
    fn join_expected_trip_reflects_match_ratio() {
        let lo = join_sized(100, 0.0);
        let hi = join_sized(100, 1.0);
        let t_lo = lo.regions[0].loops[0].expected_trip(1);
        let t_hi = hi.regions[0].loops[0].expected_trip(1);
        assert!(t_lo > t_hi, "more matches ⇒ fewer merge steps");
        assert!((t_lo - 200.0).abs() < 1e-9);
        assert!((t_hi - 100.0).abs() < 1e-9);
    }
}
