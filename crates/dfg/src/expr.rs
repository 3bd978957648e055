//! Affine index expressions over loop variables.
//!
//! The compiler's memory analysis (the LLVM-SCEV equivalent of §IV-C)
//! operates on these: an access `a[i*n + j]` is the affine expression
//! `n·i + 1·j`, from which per-loop strides — and hence stream patterns —
//! are read off directly.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A loop variable, identified by its depth in the enclosing loop nest
/// (0 = outermost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LoopVar(pub usize);

impl fmt::Display for LoopVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// An affine expression `c + Σ kᵥ·v` over loop variables, in element units.
///
/// # Example
///
/// ```
/// use dsagen_dfg::{AffineExpr, LoopVar};
///
/// // a[i*64 + j]
/// let idx = AffineExpr::var(LoopVar(0)).scaled(64).plus(&AffineExpr::var(LoopVar(1)));
/// assert_eq!(idx.stride_of(LoopVar(0)), 64);
/// assert_eq!(idx.stride_of(LoopVar(1)), 1);
/// assert_eq!(idx.eval(&[2, 5]), 133);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct AffineExpr {
    constant: i64,
    /// Sorted by loop variable, at most one term per variable.
    terms: Vec<(LoopVar, i64)>,
}

impl AffineExpr {
    /// The constant expression `c`.
    #[must_use]
    pub fn constant(c: i64) -> Self {
        AffineExpr {
            constant: c,
            terms: Vec::new(),
        }
    }

    /// The expression `1·v`.
    #[must_use]
    pub fn var(v: LoopVar) -> Self {
        AffineExpr {
            constant: 0,
            terms: vec![(v, 1)],
        }
    }

    /// This expression scaled by `k`.
    #[must_use]
    pub fn scaled(mut self, k: i64) -> Self {
        self.constant *= k;
        for (_, coef) in &mut self.terms {
            *coef *= k;
        }
        self.normalize();
        self
    }

    /// The sum of this expression and `other`.
    #[must_use]
    pub fn plus(mut self, other: &AffineExpr) -> Self {
        self.constant += other.constant;
        for (v, k) in &other.terms {
            match self.terms.iter_mut().find(|(w, _)| w == v) {
                Some((_, coef)) => *coef += k,
                None => self.terms.push((*v, *k)),
            }
        }
        self.normalize();
        self
    }

    /// This expression plus a constant.
    #[must_use]
    pub fn plus_const(mut self, c: i64) -> Self {
        self.constant += c;
        self
    }

    fn normalize(&mut self) {
        self.terms.retain(|(_, k)| *k != 0);
        self.terms.sort_by_key(|(v, _)| *v);
    }

    /// The constant term.
    #[must_use]
    pub(crate) fn base(&self) -> i64 {
        self.constant
    }

    /// The coefficient of loop variable `v` (its element stride).
    #[must_use]
    pub fn stride_of(&self, v: LoopVar) -> i64 {
        self.terms
            .iter()
            .find(|(w, _)| *w == v)
            .map_or(0, |(_, k)| *k)
    }

    /// All variables with nonzero coefficients, outermost first.
    pub(crate) fn vars(&self) -> impl Iterator<Item = LoopVar> + '_ {
        self.terms.iter().map(|(v, _)| *v)
    }

    /// The deepest (innermost) loop variable the expression depends on.
    #[must_use]
    pub(crate) fn innermost_var(&self) -> Option<LoopVar> {
        self.terms.iter().map(|(v, _)| *v).max()
    }

    /// Whether the expression is invariant in every loop (constant).
    #[must_use]
    pub(crate) fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// If `self` and `other` differ only in their constant term, returns
    /// `self.base() − other.base()`. Used by the compiler to group loads of
    /// the same array at small constant offsets (stencil/filter taps) into
    /// one sliding-window vector port.
    #[must_use]
    pub fn offset_from(&self, other: &AffineExpr) -> Option<i64> {
        if self.terms == other.terms {
            Some(self.constant - other.constant)
        } else {
            None
        }
    }

    /// Evaluates the expression for concrete loop-variable values
    /// (`values[d]` is the value of depth-`d` variable; missing depths
    /// evaluate as 0).
    #[must_use]
    pub fn eval(&self, values: &[i64]) -> i64 {
        self.constant
            + self
                .terms
                .iter()
                .map(|(v, k)| k * values.get(v.0).copied().unwrap_or(0))
                .sum::<i64>()
    }
}

impl fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        if self.constant != 0 || self.terms.is_empty() {
            write!(f, "{}", self.constant)?;
            wrote = true;
        }
        for (v, k) in &self.terms {
            if wrote {
                write!(f, "+")?;
            }
            if *k == 1 {
                write!(f, "{v}")?;
            } else {
                write!(f, "{k}*{v}")?;
            }
            wrote = true;
        }
        Ok(())
    }
}

/// A (possibly outer-loop-dependent) trip count: `base + per_outer·outer`.
///
/// Inductive trip counts express the triangular iteration spaces of qr and
/// cholesky, which the linear memory controller's "inductive 2d streams"
/// support directly (§III-A "Memories").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TripCount {
    /// Iterations when the controlling outer variable is 0.
    pub base: i64,
    /// Change in iterations per unit of the controlling outer variable.
    pub per_outer: i64,
}

impl TripCount {
    /// A fixed trip count.
    #[must_use]
    pub fn fixed(n: u64) -> Self {
        TripCount {
            base: n as i64,
            per_outer: 0,
        }
    }

    /// An inductive trip count `base + per_outer·outer`.
    #[must_use]
    pub fn inductive(base: i64, per_outer: i64) -> Self {
        TripCount { base, per_outer }
    }

    /// Whether the trip count varies with an outer loop.
    #[must_use]
    pub fn is_inductive(&self) -> bool {
        self.per_outer != 0
    }

    /// Trip count for a concrete outer-variable value (clamped at 0).
    #[must_use]
    pub fn at(&self, outer: i64) -> u64 {
        (self.base + self.per_outer * outer).max(0) as u64
    }

    /// Average trip count over `outer_trip` outer iterations.
    #[must_use]
    pub(crate) fn average_over(&self, outer_trip: u64) -> f64 {
        if outer_trip == 0 {
            return 0.0;
        }
        let total: i64 = (0..outer_trip as i64)
            .map(|o| (self.base + self.per_outer * o).max(0))
            .sum();
        total as f64 / outer_trip as f64
    }

    /// Total iterations summed over `outer_trip` outer iterations.
    #[must_use]
    pub fn total_over(&self, outer_trip: u64) -> u64 {
        (0..outer_trip as i64)
            .map(|o| (self.base + self.per_outer * o).max(0) as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_eval() {
        // n*i + j + 3 with n=8
        let e = AffineExpr::var(LoopVar(0))
            .scaled(8)
            .plus(&AffineExpr::var(LoopVar(1)))
            .plus_const(3);
        assert_eq!(e.base(), 3);
        assert_eq!(e.stride_of(LoopVar(0)), 8);
        assert_eq!(e.stride_of(LoopVar(1)), 1);
        assert_eq!(e.stride_of(LoopVar(2)), 0);
        assert_eq!(e.eval(&[1, 2]), 13);
    }

    #[test]
    fn zero_coefficients_vanish() {
        let e = AffineExpr::var(LoopVar(0)).plus(&AffineExpr::var(LoopVar(0)).scaled(-1));
        assert!(e.is_constant());
        assert_eq!(e.eval(&[100]), 0);
    }

    #[test]
    fn innermost_var_is_max_depth() {
        let e = AffineExpr::var(LoopVar(2)).plus(&AffineExpr::var(LoopVar(0)));
        assert_eq!(e.innermost_var(), Some(LoopVar(2)));
        assert_eq!(AffineExpr::constant(5).innermost_var(), None);
    }

    #[test]
    fn scaling_distributes() {
        let e = AffineExpr::var(LoopVar(0)).plus_const(2).scaled(3);
        assert_eq!(e.base(), 6);
        assert_eq!(e.stride_of(LoopVar(0)), 3);
    }

    #[test]
    fn display_readable() {
        let e = AffineExpr::var(LoopVar(0))
            .scaled(4)
            .plus(&AffineExpr::var(LoopVar(1)));
        assert_eq!(e.to_string(), "4*i0+i1");
        assert_eq!(AffineExpr::default().to_string(), "0");
    }

    #[test]
    fn inductive_trip_counts() {
        // for (j = i; j < 32; ++j): trip = 32 - i
        let t = TripCount::inductive(32, -1);
        assert_eq!(t.at(0), 32);
        assert_eq!(t.at(31), 1);
        assert_eq!(t.at(40), 0);
        assert_eq!(t.total_over(32), (1..=32).sum::<u64>());
        assert!((t.average_over(32) - 16.5).abs() < 1e-9);
    }

    #[test]
    fn fixed_trip_counts() {
        let t = TripCount::fixed(10);
        assert!(!t.is_inductive());
        assert_eq!(t.at(5), 10);
        assert_eq!(t.total_over(3), 30);
    }
}
