//! Seeded input-data generators for the workloads.
//!
//! The simulator and models are value-agnostic (they model timing, not
//! arithmetic), but the examples and the Table I harness use these to
//! show realistic end-to-end inputs, and the sorted/sparse generators
//! document the distributional assumptions behind the join and SpMV
//! kernels (e.g. the join match ratio).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dense vector of `len` values in `[lo, hi)`.
#[must_use]
pub fn dense_f64(len: usize, lo: f64, hi: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

/// A sorted key column with approximately `len` unique keys drawn from a
/// universe sized to hit `match_ratio` against an independently drawn
/// column.
#[must_use]
pub fn sorted_keys(len: usize, match_ratio: f64, seed: u64) -> Vec<u64> {
    let universe = (len as f64 / match_ratio.clamp(0.05, 1.0)) as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys: Vec<u64> = (0..len)
        .map(|_| rng.gen_range(0..universe.max(1)))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    while keys.len() < len {
        let extra = rng.gen_range(0..universe.max(1));
        if let Err(pos) = keys.binary_search(&extra) {
            keys.insert(pos, extra);
        }
    }
    keys.truncate(len);
    keys
}

/// Column indices for one sparse row of `nnz` entries over `cols` columns,
/// strictly increasing.
#[must_use]
pub fn sparse_row_cols(nnz: usize, cols: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<u32> = (0..nnz.min(cols))
        .map(|_| rng.gen_range(0..cols as u32))
        .collect();
    out.sort_unstable();
    out.dedup();
    let mut next = out.last().copied().unwrap_or(0);
    while out.len() < nnz.min(cols) {
        next = (next + 1) % cols as u32;
        if !out.contains(&next) {
            out.push(next);
        }
    }
    out.sort_unstable();
    out
}

/// Histogram sample indices: `len` values over `bins` bins with a mild
/// hot-spot skew (Zipf-flavored), the distribution bank conflicts care
/// about.
#[must_use]
pub fn histogram_samples(len: usize, bins: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0f64..1.0);
            // Square the uniform draw: mild skew toward low bins.
            ((u * u) * bins as f64) as u32
        })
        .map(|b| b.min(bins as u32 - 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_is_seed_deterministic() {
        assert_eq!(dense_f64(64, 0.0, 1.0, 9), dense_f64(64, 0.0, 1.0, 9));
        assert_ne!(dense_f64(64, 0.0, 1.0, 9), dense_f64(64, 0.0, 1.0, 10));
    }

    #[test]
    fn sorted_keys_are_sorted_unique() {
        let keys = sorted_keys(768, 0.33, 4);
        assert_eq!(keys.len(), 768);
        for w in keys.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn join_match_ratio_is_roughly_requested() {
        let a = sorted_keys(768, 0.33, 1);
        let b = sorted_keys(768, 0.33, 2);
        let matches = a.iter().filter(|k| b.binary_search(k).is_ok()).count();
        let ratio = matches as f64 / 768.0;
        assert!((0.1..0.7).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn sparse_row_cols_strictly_increasing() {
        let cols = sparse_row_cols(16, 512, 5);
        assert_eq!(cols.len(), 16);
        for w in cols.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn histogram_samples_in_range_and_skewed() {
        let samples = histogram_samples(1 << 14, 1 << 10, 6);
        assert!(samples.iter().all(|s| *s < 1 << 10));
        let low = samples.iter().filter(|s| **s < 256).count();
        let high = samples.iter().filter(|s| **s >= 768).count();
        assert!(low > high, "distribution should skew low");
    }
}
