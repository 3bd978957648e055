//! A seeded generator of small kernels over [`KernelBuilder`], for
//! differential tests of the interpreter.
//!
//! A kernel has 1–3 regions over shared arrays. Each region is a loop nest
//! of depth 1–3 with fixed, inductive or zero trips, and sometimes a merge
//! join at one level. Its expression DAG mixes affine and indirect loads,
//! unary and binary operations, predicated selects (some with a constant
//! predicate and an out-of-bounds untaken branch), reductions over every
//! level (some over other reductions) and consumes of earlier regions'
//! yields (some past the last yield). Its statements store, update (also
//! indirectly), yield, store to a join's keys inside the join, and sometimes
//! store and update one address in one iteration. Addresses are mostly in bounds, so most kernels run to the
//! end and the rest stop on each kind of
//! [`ExecError`](crate::interp::ExecError).

use std::collections::BTreeMap;

use dsagen_adg::{BitWidth, Opcode};

use crate::{
    AffineExpr, ArrayId, ExprId, JoinSide, Kernel, KernelBuilder, LoopVar, MemClass, RegionBuilder,
    TripCount,
};

const UNARY: [Opcode; 5] = [
    Opcode::Abs,
    Opcode::Not,
    Opcode::FSqrt,
    Opcode::Sigmoid,
    Opcode::Copy,
];
const BINARY: [Opcode; 22] = [
    Opcode::Add,
    Opcode::Sub,
    Opcode::Mul,
    Opcode::Min,
    Opcode::Max,
    Opcode::And,
    Opcode::Or,
    Opcode::Xor,
    Opcode::Shl,
    Opcode::Shr,
    Opcode::CmpEq,
    Opcode::CmpNe,
    Opcode::CmpLt,
    Opcode::CmpLe,
    Opcode::CmpGt,
    Opcode::CmpGe,
    Opcode::FAdd,
    Opcode::FSub,
    Opcode::FMul,
    Opcode::FDiv,
    Opcode::FMin,
    Opcode::FMax,
];
/// Reduction operators: the folded ones, plus a binary and a unary one
/// that go through `Opcode::eval_scalar`.
const REDUCE: [Opcode; 10] = [
    Opcode::Add,
    Opcode::FAdd,
    Opcode::Mul,
    Opcode::FMul,
    Opcode::Min,
    Opcode::FMin,
    Opcode::Max,
    Opcode::FMax,
    Opcode::Xor,
    Opcode::Abs,
];
/// Update operators: the folded ones, plus binary ones that go through
/// `Opcode::eval_scalar`.
const UPDATE: [Opcode; 6] = [
    Opcode::Add,
    Opcode::FAdd,
    Opcode::Sub,
    Opcode::FSub,
    Opcode::Max,
    Opcode::FMul,
];

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }

    /// An input element: mostly small integers and hundredths, rarely NaN.
    fn value(&mut self) -> f64 {
        if self.chance(2) {
            f64::NAN
        } else if self.chance(50) {
            self.range(-4, 8) as f64
        } else {
            self.range(-400, 400) as f64 / 100.0
        }
    }
}

/// One side of the join every region may run: a sorted key array and one
/// payload array.
#[derive(Clone, Copy)]
struct JoinArrays {
    key: ArrayId,
    payload: ArrayId,
}

/// The state of one region under construction.
struct RegionGen {
    rb: RegionBuilder,
    depth: usize,
    join: Option<usize>,
    /// Values statements and operations may read.
    pool: Vec<ExprId>,
    reduces: Vec<ExprId>,
    yields: usize,
}

struct Gen {
    rng: Rng,
    /// Dense arrays with their lengths.
    data: Vec<(ArrayId, u64)>,
    /// The index array of indirect accesses.
    ix: ArrayId,
    sides: [JoinArrays; 2],
    /// Yield statements per finished region.
    yields: Vec<usize>,
}

/// A seeded kernel and its inputs; the same seed gives the same pair.
pub(crate) fn case(seed: u64) -> (Kernel, BTreeMap<String, Vec<f64>>) {
    let mut rng = Rng(seed);
    let mut k = KernelBuilder::new(format!("gen-{seed:016x}"));
    let mut arrays =
        |name: String, len: u64| k.array(name, BitWidth::B64, len, MemClass::MainMemory);
    let data: Vec<(ArrayId, u64)> = (0..rng.range(3, 5))
        .map(|i| {
            let len = rng.range(4, 40) as u64;
            (arrays(format!("d{i}"), len), len)
        })
        .collect();
    let ix = arrays("ix".into(), rng.range(4, 24) as u64);
    let sides = [0, 1].map(|s| {
        let len = rng.range(0, 12) as u64;
        JoinArrays {
            key: arrays(format!("key{s}"), len),
            payload: arrays(format!("val{s}"), len),
        }
    });
    let mut g = Gen {
        rng,
        data,
        ix,
        sides,
        yields: Vec::new(),
    };
    for r in 0..g.rng.range(1, 3) as usize {
        let region = g.region(&k, r);
        k.finish_region(region);
    }
    let kernel = k.build().expect("generated kernels are well-formed");
    let inputs = g.inputs(&kernel);
    (kernel, inputs)
}

impl Gen {
    fn region(&mut self, k: &KernelBuilder, r: usize) -> RegionBuilder {
        let depth = self.rng.range(1, 3) as usize;
        let join = self.rng.chance(25).then(|| self.rng.below(depth));
        let mut rb = k.region(format!("r{r}"), 1.0);
        for level in 0..depth {
            if join == Some(level) {
                let [a, b] = self.sides.map(|s| JoinSide {
                    key: s.key,
                    payloads: vec![s.payload],
                    len: self.rng.range(0, 14) as u64,
                });
                rb.join_loop(a, b, 0.5);
            } else if level > 0 && self.rng.chance(30) {
                let trip = TripCount::inductive(self.rng.range(0, 4), self.rng.pick(&[-2, -1, 1]));
                rb.for_loop(trip, false);
            } else {
                let n = if self.rng.chance(8) {
                    0
                } else {
                    self.rng.range(1, 4) as u64
                };
                rb.for_loop(TripCount::fixed(n), false);
            }
        }
        let mut rg = RegionGen {
            rb,
            depth,
            join,
            pool: Vec::new(),
            reduces: Vec::new(),
            yields: 0,
        };
        for _ in 0..self.rng.range(1, 3) {
            let e = self.load(&mut rg);
            rg.pool.push(e);
        }
        let imm = rg.rb.imm(self.rng.range(-2, 5));
        rg.pool.push(imm);
        for _ in 0..self.rng.range(2, 9) {
            let e = self.expr(&mut rg, r);
            rg.pool.push(e);
        }
        for _ in 0..self.rng.range(1, 3) {
            self.stmt(&mut rg);
        }
        self.yields.push(rg.yields);
        rg.rb
    }

    /// A pool value, biased towards the newest so that chains grow deep.
    fn operand(&mut self, rg: &RegionGen) -> ExprId {
        let n = rg.pool.len();
        if self.rng.chance(50) {
            rg.pool[n - 1 - self.rng.below(n.min(3))]
        } else {
            rg.pool[self.rng.below(n)]
        }
    }

    fn expr(&mut self, rg: &mut RegionGen, r: usize) -> ExprId {
        match self.rng.below(10) {
            0 | 1 => self.load(rg),
            2 => {
                let (array, _) = self.rng.pick(&self.data);
                let at = self.affine(rg);
                rg.rb.load_indirect(array, self.ix, at)
            }
            3 => {
                let (op, a) = (self.rng.pick(&UNARY), self.operand(rg));
                rg.rb.un(op, a)
            }
            4 | 5 => {
                let (op, a, b) = (self.rng.pick(&BINARY), self.operand(rg), self.operand(rg));
                rg.rb.bin(op, a, b)
            }
            6 => self.mux(rg),
            7 | 8 => {
                let body = if !rg.reduces.is_empty() && self.rng.chance(30) {
                    self.rng.pick(&rg.reduces)
                } else {
                    self.operand(rg)
                };
                let level = LoopVar(self.rng.below(rg.depth));
                let e = rg.rb.reduce(self.rng.pick(&REDUCE), body, level);
                rg.reduces.push(e);
                e
            }
            _ if r > 0 => {
                let from = self.rng.below(r);
                let yield_idx = self.rng.below(self.yields[from] + 1);
                rg.rb.consume(from, yield_idx)
            }
            _ => rg.rb.imm(self.rng.range(-2, 5)),
        }
    }

    /// A select; half of them have a constant predicate whose untaken
    /// branch reads past the end of an array.
    fn mux(&mut self, rg: &mut RegionGen) -> ExprId {
        if self.rng.chance(50) {
            let (cond, t, f) = (self.operand(rg), self.operand(rg), self.operand(rg));
            return rg.rb.mux(cond, t, f);
        }
        let taken = self.rng.chance(50);
        let cond = rg.rb.imm(i64::from(taken));
        let (array, len) = self.rng.pick(&self.data);
        let past_end = rg.rb.load(
            array,
            AffineExpr::constant(len as i64 + self.rng.range(0, 3)),
        );
        let other = self.operand(rg);
        if taken {
            rg.rb.mux(cond, other, past_end)
        } else {
            rg.rb.mux(cond, past_end, other)
        }
    }

    /// A load; in a join region most loads read a side array at the join
    /// variable, and a few read a dense array there (on neither side).
    fn load(&mut self, rg: &mut RegionGen) -> ExprId {
        if let Some(jd) = rg.join {
            if self.rng.chance(70) {
                let side = self.rng.pick(&self.sides);
                let array = if self.rng.chance(50) {
                    side.key
                } else {
                    side.payload
                };
                return rg.rb.load(array, AffineExpr::var(LoopVar(jd)));
            }
        }
        let (array, _) = self.rng.pick(&self.data);
        let at = self.affine(rg);
        rg.rb.load(array, at)
    }

    /// `c + Σ kᵢ·iᵢ` with small coefficients; in a join region the join
    /// variable's coefficient is usually 0.
    fn affine(&mut self, rg: &RegionGen) -> AffineExpr {
        let mut e = AffineExpr::constant(self.rng.range(0, 2));
        for d in 0..rg.depth {
            let stride = if rg.join == Some(d) && self.rng.chance(85) {
                0
            } else {
                self.rng.pick(&[0, 0, 1, 1, 1, 2, 3, -1])
            };
            e = e.plus(&AffineExpr::var(LoopVar(d)).scaled(stride));
        }
        e
    }

    fn stmt(&mut self, rg: &mut RegionGen) {
        if let Some(jd) = rg.join {
            if self.rng.chance(20) {
                // A store to a key array inside its own join, at the current
                // or the next pointer: the merge reads the keys as they were
                // when the loop was entered.
                let key = self.rng.pick(&self.sides).key;
                let at = AffineExpr::var(LoopVar(jd)).plus_const(self.rng.range(0, 1));
                let value = self.operand(rg);
                rg.rb.store(key, at, value);
                return;
            }
        }
        let (array, _) = self.rng.pick(&self.data);
        let value = self.operand(rg);
        match self.rng.below(7) {
            0 | 1 => {
                let at = self.affine(rg);
                rg.rb.store(array, at, value);
            }
            2 => {
                let at = self.affine(rg);
                rg.rb.store_indirect(array, self.ix, at, value);
            }
            3 => {
                let (at, op) = (self.affine(rg), self.rng.pick(&UPDATE));
                rg.rb.update(array, at, op, value);
            }
            4 => {
                let (at, op) = (self.affine(rg), self.rng.pick(&UPDATE));
                rg.rb.update_indirect(array, self.ix, at, op, value);
            }
            5 => {
                rg.rb.yield_value(value);
                rg.yields += 1;
            }
            _ => {
                // A store and an update of one address in one iteration.
                let (at, op, other) = (self.affine(rg), self.rng.pick(&UPDATE), self.operand(rg));
                rg.rb.store(array, at.clone(), value);
                rg.rb.update(array, at, op, other);
            }
        }
    }

    /// Inputs for most arrays, each a little shorter or longer than
    /// declared: dense values, indices that are mostly valid for every
    /// dense array, and sorted keys (rarely holding a NaN).
    fn inputs(&mut self, kernel: &Kernel) -> BTreeMap<String, Vec<f64>> {
        let key_arrays: Vec<ArrayId> = self.sides.iter().map(|s| s.key).collect();
        let mut out = BTreeMap::new();
        for (i, decl) in kernel.arrays.iter().enumerate() {
            if self.rng.chance(15) {
                continue;
            }
            let n = (decl.len as i64 + self.rng.range(-2, 2)).max(0) as usize;
            let values: Vec<f64> = if key_arrays.iter().any(|a| a.0 == i) {
                let mut key = 0.0;
                (0..n)
                    .map(|_| {
                        key += self.rng.range(0, 2) as f64;
                        if self.rng.chance(3) {
                            f64::NAN
                        } else {
                            key
                        }
                    })
                    .collect()
            } else if i == self.ix.0 {
                (0..n)
                    .map(|_| {
                        if self.rng.chance(97) {
                            self.rng.range(0, 3) as f64
                        } else {
                            self.rng.range(-1, 45) as f64
                        }
                    })
                    .collect()
            } else {
                (0..n).map(|_| self.rng.value()).collect()
            };
            out.insert(decl.name.clone(), values);
        }
        out
    }
}
