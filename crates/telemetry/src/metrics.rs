//! Typed metrics registry: counters, gauges, and log-linear histograms
//! under a stable hierarchical name space.
//!
//! Names are dotted paths owned by the emitting subsystem
//! (`scheduler.path_search.expansions`, `sim.engine.ticks`,
//! `dse.cache.hits`, `recovery.rung.port-mask`, ...). A disabled
//! [`MetricsRegistry`] costs one `Option` discriminant branch per call —
//! the same zero-cost pattern as the event side of this crate — so every
//! subsystem records unconditionally and the build pays nothing unless a
//! registry is attached.
//!
//! # Determinism
//!
//! Sharded consumers (the DSE) give every shard its *own* registry
//! ([`MetricsRegistry::fork`]) and merge the per-shard snapshots in shard
//! index order ([`MetricsRegistry::absorb`]). All merge operators commute
//! (counters and histogram buckets add, gauges take the max), so the final
//! snapshot depends only on what each shard did — never on thread count or
//! completion order — preserving the workspace's (seed, shards)-determinism
//! contract.
//!
//! # Example
//!
//! ```
//! use dsagen_telemetry::MetricsRegistry;
//!
//! let reg = MetricsRegistry::enabled();
//! reg.add("dse.cache.hits", 3);
//! reg.observe("scheduler.path_search.iterations", 120);
//! reg.gauge("dse.best_objective", 0.25);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("dse.cache.hits"), Some(3));
//! assert!(snap.to_json().contains("\"dse.cache.hits\": 3"));
//!
//! let off = MetricsRegistry::disabled();
//! off.add("never.stored", 1);
//! assert!(off.snapshot().is_empty());
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Linear subbuckets per power-of-two magnitude: bounds the histogram's
/// relative bucket error at 12.5% while keeping the index space tiny.
const SUBBUCKETS: u32 = 4;

/// Index of the log-linear bucket holding `v`.
fn bucket_index(v: u64) -> u32 {
    if v < 4 {
        return v as u32;
    }
    let mag = 63 - v.leading_zeros();
    let sub = ((v >> (mag - 2)) & 0b11) as u32;
    mag * SUBBUCKETS + sub
}

/// Inclusive lower bound of bucket `idx` (inverse of [`bucket_index`]).
fn bucket_lower(idx: u32) -> u64 {
    if idx < 4 {
        return u64::from(idx);
    }
    if idx < 8 {
        // Indices 4..8 are never produced (values < 4 map directly); the
        // band collapses onto the first log-linear bucket's lower bound.
        return 4;
    }
    let mag = idx / SUBBUCKETS;
    let sub = u64::from(idx % SUBBUCKETS);
    (1u64 << mag) | (sub << (mag - 2))
}

/// Sparse log-linear histogram of `u64` samples.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Bucket index → sample count (sparse; see [`HistogramSnapshot::quantile`]).
    pub buckets: BTreeMap<u32, u64>,
}

impl HistogramSnapshot {
    fn observe(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        *self.buckets.entry(bucket_index(v)).or_insert(0) += 1;
    }

    fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (&idx, &n) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += n;
        }
    }

    /// Estimated value at quantile `q` in `[0, 1]`: the lower bound of the
    /// bucket where the cumulative count crosses `q × count` (clamped to
    /// the observed min/max so estimates never leave the sample range).
    #[must_use]
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (&idx, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_lower(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Mean of the recorded samples (0.0 when empty).
    #[must_use]
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One metric's merged value in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum MetricValue {
    /// Monotonically accumulated count (merge: add).
    Counter(u64),
    /// Point-in-time measurement (merge: max — the only commuting choice).
    Gauge(f64),
    /// Distribution of samples (merge: bucket-wise add).
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    fn merge(&mut self, other: &MetricValue) {
        match (self, other) {
            (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += *b,
            (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = a.max(*b),
            (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
            // A name that changed kind between producers: later producer
            // wins; the registry's owners keep names kind-stable.
            (slot, other) => *slot = other.clone(),
        }
    }

    fn json(&self) -> String {
        match self {
            MetricValue::Counter(v) => v.to_string(),
            MetricValue::Gauge(v) => {
                if v.is_finite() {
                    format!("{v}")
                } else {
                    format!("\"{v}\"")
                }
            }
            MetricValue::Histogram(h) => format!(
                "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
\"mean\": {:.2}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
            ),
        }
    }
}

/// A deterministic, order-stable snapshot of a registry: metric name →
/// merged value, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    metrics: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// Whether the snapshot holds any metric.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Counter value under `name` (`None` if absent or a different kind).
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Renders the snapshot as one JSON object, keys in name order —
    /// byte-stable for identical contents.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, val)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{}\": {}", crate::escape_json(name), val.json());
        }
        s.push('}');
        s
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

/// A cheaply cloneable metrics handle; disabled handles cost one branch
/// per recording call (nothing allocates, no lock is taken).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Option<Arc<Mutex<BTreeMap<String, MetricValue>>>>,
}

impl MetricsRegistry {
    /// A registry that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        MetricsRegistry { inner: None }
    }

    /// A live, initially empty registry.
    #[must_use]
    pub fn enabled() -> Self {
        MetricsRegistry {
            inner: Some(Arc::new(Mutex::new(BTreeMap::new()))),
        }
    }

    /// Whether recordings are stored.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A fresh, empty registry with the same enablement — what each DSE
    /// shard accumulates into before the deterministic merge.
    #[must_use]
    pub(crate) fn fork(&self) -> Self {
        if self.is_enabled() {
            MetricsRegistry::enabled()
        } else {
            MetricsRegistry::disabled()
        }
    }

    fn with_slot(&self, name: &str, f: impl FnOnce(&mut MetricValue), default: MetricValue) {
        let Some(inner) = &self.inner else { return };
        let mut map = match inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        match map.get_mut(name) {
            Some(slot) => f(slot),
            None => {
                let mut slot = default;
                f(&mut slot);
                map.insert(name.to_string(), slot);
            }
        }
    }

    /// Adds `delta` to the counter under `name`.
    #[inline]
    pub fn add(&self, name: &str, delta: u64) {
        if self.inner.is_none() {
            return;
        }
        self.with_slot(
            name,
            |slot| {
                if let MetricValue::Counter(v) = slot {
                    *v += delta;
                }
            },
            MetricValue::Counter(0),
        );
    }

    /// Sets the gauge under `name` (shard merges keep the max).
    #[inline]
    pub fn gauge(&self, name: &str, value: f64) {
        if self.inner.is_none() {
            return;
        }
        self.with_slot(
            name,
            |slot| {
                if let MetricValue::Gauge(v) = slot {
                    *v = value;
                }
            },
            MetricValue::Gauge(value),
        );
    }

    /// Records one sample into the log-linear histogram under `name`.
    #[inline]
    pub fn observe(&self, name: &str, value: u64) {
        if self.inner.is_none() {
            return;
        }
        self.with_slot(
            name,
            |slot| {
                if let MetricValue::Histogram(h) = slot {
                    h.observe(value);
                }
            },
            MetricValue::Histogram(HistogramSnapshot::default()),
        );
    }

    /// A deterministic snapshot of everything recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.inner else {
            return MetricsSnapshot::default();
        };
        let map = match inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        MetricsSnapshot {
            metrics: map.clone(),
        }
    }

    /// Merges a snapshot (typically a shard fork's) into this registry.
    /// Call in shard index order for a byte-stable result; the operators
    /// themselves commute, so any order yields the same values.
    pub fn absorb(&self, snap: &MetricsSnapshot) {
        let Some(inner) = &self.inner else { return };
        let mut map = match inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        for (name, val) in &snap.metrics {
            match map.get_mut(name) {
                Some(slot) => slot.merge(val),
                None => {
                    map.insert(name.clone(), val.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MetricsSnapshot {
        /// The merged value under `name`, if recorded.
        fn get(&self, name: &str) -> Option<&MetricValue> {
            self.metrics.get(name)
        }
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = MetricsRegistry::disabled();
        reg.add("a.b", 5);
        reg.gauge("c", 1.0);
        reg.observe("d", 9);
        assert!(!reg.is_enabled());
        assert!(reg.snapshot().is_empty());
    }

    #[test]
    fn counters_accumulate_and_render() {
        let reg = MetricsRegistry::enabled();
        reg.add("dse.cache.hits", 2);
        reg.add("dse.cache.hits", 3);
        reg.add("dse.cache.misses", 1);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("dse.cache.hits"), Some(5));
        let json = snap.to_json();
        // BTreeMap ordering: hits before misses.
        let hits = json.find("hits").unwrap();
        let misses = json.find("misses").unwrap();
        assert!(hits < misses, "{json}");
    }

    #[test]
    fn bucket_index_round_trips_lower_bounds() {
        for v in [0u64, 1, 2, 3, 4, 5, 7, 8, 100, 896, 1000, 1 << 40] {
            let idx = bucket_index(v);
            let lo = bucket_lower(idx);
            assert!(lo <= v, "lower {lo} > value {v}");
            // The next bucket starts above v.
            if idx + 1 < u32::MAX {
                let hi = bucket_lower(idx + 1);
                assert!(v < hi || hi <= lo, "value {v} beyond bucket [{lo}, {hi})");
            }
        }
    }

    #[test]
    fn histogram_quantiles_bound_by_samples() {
        let reg = MetricsRegistry::enabled();
        for v in 1..=1000u64 {
            reg.observe("lat", v);
        }
        let snap = reg.snapshot();
        let Some(MetricValue::Histogram(h)) = snap.get("lat") else {
            panic!("histogram missing");
        };
        assert_eq!(h.count, 1000);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 1000);
        let p50 = h.quantile(0.5);
        assert!((400..=600).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!((896..=1000).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn merge_is_commutative() {
        let a = MetricsRegistry::enabled();
        let b = MetricsRegistry::enabled();
        a.add("c", 2);
        a.observe("h", 10);
        a.gauge("g", 1.5);
        b.add("c", 3);
        b.observe("h", 99);
        b.gauge("g", 0.5);

        let ab = MetricsRegistry::enabled();
        ab.absorb(&a.snapshot());
        ab.absorb(&b.snapshot());
        let ba = MetricsRegistry::enabled();
        ba.absorb(&b.snapshot());
        ba.absorb(&a.snapshot());
        assert_eq!(ab.snapshot(), ba.snapshot());
        assert_eq!(ab.snapshot().counter("c"), Some(5));
        assert_eq!(ab.snapshot().to_json(), ba.snapshot().to_json());
    }

    #[test]
    fn fork_is_independent_until_absorbed() {
        let root = MetricsRegistry::enabled();
        let shard = root.fork();
        shard.add("n", 7);
        assert!(root.snapshot().is_empty());
        root.absorb(&shard.snapshot());
        assert_eq!(root.snapshot().counter("n"), Some(7));
        assert!(!MetricsRegistry::disabled().fork().is_enabled());
    }
}
