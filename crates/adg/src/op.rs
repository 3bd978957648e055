//! Functional-unit opcodes and capability sets.

use std::fmt;

use serde::{Deserialize, Serialize};

/// An operation a processing element's functional units may support.
///
/// PEs "specify a set of instructions which are to be supported; functional
/// units which support the required functions will be selected during
/// hardware generation" (§III-A). The opcode set of a PE is represented by
/// [`OpSet`].
///
/// Each opcode carries a default pipeline latency ([`Opcode::latency`]) used
/// by the scheduler's static-timing pass and by the cycle-level simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
#[repr(u8)]
pub enum Opcode {
    // Integer arithmetic.
    Add = 0,
    Sub,
    Mul,
    Div,
    Rem,
    Abs,
    Min,
    Max,
    // Multiply-accumulate (compound FU, §V-C "functional units which support
    // multiple functions").
    Mac,
    // Bitwise / shifts.
    And,
    Or,
    Xor,
    Not,
    Shl,
    Shr,
    // Comparisons (produce a predicate value).
    CmpEq,
    CmpNe,
    CmpLt,
    CmpLe,
    CmpGt,
    CmpGe,
    // Predication: `Select(pred, a, b)` — the §IV-C control-to-data
    // transformation lowers branches into this.
    Select,
    // Floating point.
    FAdd,
    FSub,
    FMul,
    FDiv,
    FMac,
    FSqrt,
    FMin,
    FMax,
    FCmpLt,
    // Sigmoid-style table lookup (classifier kernels in the DenseNN suite).
    Sigmoid,
    // Pass-through / copy (routing through a PE, identity function).
    Copy,
}

impl Opcode {
    /// Total number of distinct opcodes.
    pub(crate) const COUNT: usize = 33;

    /// Every opcode, in discriminant order.
    pub const ALL: [Opcode; Opcode::COUNT] = [
        Opcode::Add,
        Opcode::Sub,
        Opcode::Mul,
        Opcode::Div,
        Opcode::Rem,
        Opcode::Abs,
        Opcode::Min,
        Opcode::Max,
        Opcode::Mac,
        Opcode::And,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Not,
        Opcode::Shl,
        Opcode::Shr,
        Opcode::CmpEq,
        Opcode::CmpNe,
        Opcode::CmpLt,
        Opcode::CmpLe,
        Opcode::CmpGt,
        Opcode::CmpGe,
        Opcode::Select,
        Opcode::FAdd,
        Opcode::FSub,
        Opcode::FMul,
        Opcode::FDiv,
        Opcode::FMac,
        Opcode::FSqrt,
        Opcode::FMin,
        Opcode::FMax,
        Opcode::FCmpLt,
        Opcode::Sigmoid,
        Opcode::Copy,
    ];

    /// Pipeline latency in cycles for a 64-bit instance of this operation.
    ///
    /// These mirror typical CGRA FU latencies: single-cycle ALU ops,
    /// pipelined multipliers, long dividers/square roots.
    #[must_use]
    pub fn latency(self) -> u32 {
        use Opcode::*;
        match self {
            Add | Sub | Abs | Min | Max | And | Or | Xor | Not | Shl | Shr | CmpEq | CmpNe
            | CmpLt | CmpLe | CmpGt | CmpGe | Select | Copy => 1,
            Mul | Mac => 3,
            FAdd | FSub | FMin | FMax | FCmpLt => 3,
            FMul | FMac => 4,
            Sigmoid => 4,
            Div | Rem => 12,
            FDiv => 14,
            FSqrt => 16,
        }
    }

    /// Whether this is a floating-point operation (distinct FU family for
    /// area/power modeling, §VII "for floating-point units…").
    #[must_use]
    pub(crate) fn is_floating_point(self) -> bool {
        use Opcode::*;
        matches!(
            self,
            FAdd | FSub | FMul | FDiv | FMac | FSqrt | FMin | FMax | FCmpLt | Sigmoid
        )
    }

    /// Whether this opcode produces a single-bit predicate.
    #[must_use]
    pub fn is_predicate(self) -> bool {
        use Opcode::*;
        matches!(self, CmpEq | CmpNe | CmpLt | CmpLe | CmpGt | CmpGe | FCmpLt)
    }

    /// Number of input operands.
    #[must_use]
    pub fn arity(self) -> usize {
        use Opcode::*;
        match self {
            Not | Abs | FSqrt | Sigmoid | Copy => 1,
            Select | Mac | FMac => 3,
            _ => 2,
        }
    }

    /// Evaluates the operation on scalar operands (numeric semantics used
    /// by the functional interpreter). Values travel as `f64`; integer and
    /// bitwise operations truncate through `i64`. Comparisons return 1.0
    /// or 0.0; `Select` picks `b` when the predicate `a` is nonzero.
    ///
    /// # Panics
    ///
    /// Panics if `args.len()` does not match [`Opcode::arity`].
    #[must_use]
    pub fn eval_scalar(self, args: &[f64]) -> f64 {
        use Opcode::*;
        assert_eq!(args.len(), self.arity(), "{self}: wrong operand count");
        let int = |x: f64| x as i64;
        match self {
            Add => ((int(args[0])).wrapping_add(int(args[1]))) as f64,
            Sub => ((int(args[0])).wrapping_sub(int(args[1]))) as f64,
            Mul => ((int(args[0])).wrapping_mul(int(args[1]))) as f64,
            Div => {
                let d = int(args[1]);
                if d == 0 {
                    0.0
                } else {
                    (int(args[0]) / d) as f64
                }
            }
            Rem => {
                let d = int(args[1]);
                if d == 0 {
                    0.0
                } else {
                    (int(args[0]) % d) as f64
                }
            }
            Abs => (int(args[0]).wrapping_abs()) as f64,
            Min => args[0].min(args[1]),
            Max => args[0].max(args[1]),
            Mac => {
                ((int(args[0]))
                    .wrapping_mul(int(args[1]))
                    .wrapping_add(int(args[2]))) as f64
            }
            And => (int(args[0]) & int(args[1])) as f64,
            Or => (int(args[0]) | int(args[1])) as f64,
            Xor => (int(args[0]) ^ int(args[1])) as f64,
            Not => (!int(args[0])) as f64,
            Shl => ((int(args[0])) << (int(args[1]).clamp(0, 63))) as f64,
            Shr => ((int(args[0])) >> (int(args[1]).clamp(0, 63))) as f64,
            CmpEq => f64::from(args[0] == args[1]),
            CmpNe => f64::from(args[0] != args[1]),
            CmpLt | FCmpLt => f64::from(args[0] < args[1]),
            CmpLe => f64::from(args[0] <= args[1]),
            CmpGt => f64::from(args[0] > args[1]),
            CmpGe => f64::from(args[0] >= args[1]),
            Select => {
                if args[0] != 0.0 {
                    args[1]
                } else {
                    args[2]
                }
            }
            FAdd => args[0] + args[1],
            FSub => args[0] - args[1],
            FMul => args[0] * args[1],
            FDiv => args[0] / args[1],
            FMac => args[0] * args[1] + args[2],
            FSqrt => args[0].sqrt(),
            FMin => args[0].min(args[1]),
            FMax => args[0].max(args[1]),
            Sigmoid => 1.0 / (1.0 + (-args[0]).exp()),
            Copy => args[0],
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A set of opcodes, stored as a bitset.
///
/// # Example
///
/// ```
/// use dsagen_adg::{OpSet, Opcode};
///
/// let alu = OpSet::integer_alu();
/// assert!(alu.contains(Opcode::Add));
/// assert!(!alu.contains(Opcode::FDiv));
/// let both = alu.union(OpSet::floating_point());
/// assert!(both.contains(Opcode::FDiv));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct OpSet(u64);

impl OpSet {
    /// The empty set.
    #[must_use]
    pub fn new() -> Self {
        OpSet(0)
    }

    /// A set containing every opcode.
    #[must_use]
    pub fn all() -> Self {
        let mut s = OpSet::new();
        for op in Opcode::ALL {
            s.insert(op);
        }
        s
    }

    /// Integer ALU operations (add/sub/logic/shift/compare/select/min/max).
    #[must_use]
    pub fn integer_alu() -> Self {
        use Opcode::*;
        OpSet::from_iter([
            Add, Sub, Abs, Min, Max, And, Or, Xor, Not, Shl, Shr, CmpEq, CmpNe, CmpLt, CmpLe,
            CmpGt, CmpGe, Select, Copy,
        ])
    }

    /// Integer multiply family (mul, mac, div, rem).
    #[must_use]
    pub fn integer_mul() -> Self {
        use Opcode::*;
        OpSet::from_iter([Mul, Mac, Div, Rem])
    }

    /// Floating-point operations.
    #[must_use]
    pub fn floating_point() -> Self {
        use Opcode::*;
        OpSet::from_iter([
            FAdd, FSub, FMul, FDiv, FMac, FSqrt, FMin, FMax, FCmpLt, Sigmoid,
        ])
    }

    /// Adds an opcode; returns whether it was newly inserted.
    pub fn insert(&mut self, op: Opcode) -> bool {
        let bit = 1u64 << (op as u8);
        let fresh = self.0 & bit == 0;
        self.0 |= bit;
        fresh
    }

    /// Whether `op` is in the set.
    #[must_use]
    pub fn contains(self, op: Opcode) -> bool {
        self.0 & (1u64 << (op as u8)) != 0
    }

    /// Whether every opcode of `other` is in `self`.
    #[must_use]
    pub fn is_superset(self, other: OpSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: OpSet) -> OpSet {
        OpSet(self.0 | other.0)
    }

    /// Set intersection.
    #[must_use]
    pub fn intersection(self, other: OpSet) -> OpSet {
        OpSet(self.0 & other.0)
    }

    /// Number of opcodes in the set.
    #[must_use]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over the opcodes in discriminant order.
    pub fn iter(self) -> impl Iterator<Item = Opcode> {
        Opcode::ALL.into_iter().filter(move |op| self.contains(*op))
    }

    /// Whether the set contains any floating-point opcode.
    #[must_use]
    pub fn has_floating_point(self) -> bool {
        self.iter().any(Opcode::is_floating_point)
    }
}

impl FromIterator<Opcode> for OpSet {
    fn from_iter<I: IntoIterator<Item = Opcode>>(iter: I) -> Self {
        let mut s = OpSet::new();
        for op in iter {
            s.insert(op);
        }
        s
    }
}

impl Extend<Opcode> for OpSet {
    fn extend<I: IntoIterator<Item = Opcode>>(&mut self, iter: I) {
        for op in iter {
            self.insert(op);
        }
    }
}

impl fmt::Display for OpSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, op) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{op}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl OpSet {
        /// Removes an opcode; returns whether it was present.
        fn remove(&mut self, op: Opcode) -> bool {
            let bit = 1u64 << (op as u8);
            let present = self.0 & bit != 0;
            self.0 &= !bit;
            present
        }
    }

    impl Opcode {
        /// Whether a decomposable FU for this opcode can be split into
        /// power-of-two narrower lanes (§III-A "decomposable FUs").
        ///
        /// Fixed-point ALU-style ops decompose cleanly; dividers, square roots
        /// and floating-point units do not (§VI: the generator "is not currently
        /// able to reuse the alignment circuit of the floating-point divider").
        fn is_decomposable(self) -> bool {
            use Opcode::*;
            matches!(
                self,
                Add | Sub
                    | Mul
                    | Mac
                    | Abs
                    | Min
                    | Max
                    | And
                    | Or
                    | Xor
                    | Not
                    | Shl
                    | Shr
                    | CmpEq
                    | CmpNe
                    | CmpLt
                    | CmpLe
                    | CmpGt
                    | CmpGe
                    | Select
                    | Copy
            )
        }
    }

    #[test]
    fn all_opcodes_listed_once() {
        let mut seen = OpSet::new();
        for op in Opcode::ALL {
            assert!(seen.insert(op), "{op} duplicated in ALL");
        }
        assert_eq!(seen.len(), Opcode::COUNT);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = OpSet::new();
        assert!(s.insert(Opcode::Add));
        assert!(!s.insert(Opcode::Add));
        assert!(s.contains(Opcode::Add));
        assert!(s.remove(Opcode::Add));
        assert!(!s.remove(Opcode::Add));
        assert!(s.is_empty());
    }

    #[test]
    fn family_sets_are_disjoint() {
        assert!(OpSet::integer_alu()
            .intersection(OpSet::floating_point())
            .is_empty());
        assert!(OpSet::integer_alu()
            .intersection(OpSet::integer_mul())
            .is_empty());
    }

    #[test]
    fn union_is_superset_of_both() {
        let u = OpSet::integer_alu().union(OpSet::integer_mul());
        assert!(u.is_superset(OpSet::integer_alu()));
        assert!(u.is_superset(OpSet::integer_mul()));
        assert!(!OpSet::integer_alu().is_superset(u));
    }

    #[test]
    fn latencies_positive_and_divider_slowest_fixed() {
        for op in Opcode::ALL {
            assert!(op.latency() >= 1);
        }
        assert!(Opcode::Div.latency() > Opcode::Mul.latency());
        assert!(Opcode::FSqrt.latency() > Opcode::FMul.latency());
    }

    #[test]
    fn arity_matches_semantics() {
        assert_eq!(Opcode::Add.arity(), 2);
        assert_eq!(Opcode::Select.arity(), 3);
        assert_eq!(Opcode::Mac.arity(), 3);
        assert_eq!(Opcode::Not.arity(), 1);
    }

    #[test]
    fn fp_ops_not_decomposable() {
        for op in OpSet::floating_point().iter() {
            assert!(!op.is_decomposable(), "{op}");
        }
        assert!(Opcode::Add.is_decomposable());
    }

    #[test]
    fn iter_matches_contains() {
        let s = OpSet::from_iter([Opcode::Add, Opcode::FDiv, Opcode::Select]);
        let collected: Vec<_> = s.iter().collect();
        assert_eq!(collected, vec![Opcode::Add, Opcode::Select, Opcode::FDiv]);
    }

    #[test]
    fn display_is_nonempty_even_for_empty_set() {
        assert_eq!(OpSet::new().to_string(), "{}");
    }
}
