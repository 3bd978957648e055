//! Temporal fault schedules: *when* a fault strikes and *how long* it
//! lives, layered on the structural damage model of [`FaultPlan`](crate::FaultPlan).
//!
//! [`FaultPlan`](crate::FaultPlan) describes damage that exists before anything runs — the
//! pre-silicon / pre-compilation view used by `inject`. A deployed
//! accelerator also degrades *mid-execution*: a PE burns out after a
//! million cycles, a link flakes intermittently under thermal stress, a
//! transient particle strike corrupts a window of results and then
//! clears. [`FaultSchedule`] captures that temporal dimension: each
//! [`TimedFault`] is a structural fault kind plus an **arrival cycle**
//! and a [`FaultLifetime`] (transient, intermittent, or permanent).
//!
//! The schedule itself is hardware-agnostic — victims are resolved
//! deterministically against a concrete (ADG, schedule) pair by the
//! runtime simulator (`dsagen_sim::runtime`), using [`FaultSchedule::seed`]
//! so the same schedule always strikes the same hardware.
//!
//! Two generators build schedules: [`FaultSchedule::random`] draws the
//! node/link [`RUNTIME_KINDS`] with a uniform lifetime mix, and
//! [`FaultSchedule::storm`] draws bursts of correlated faults that also
//! include the port-level kinds, with lifetimes escalating from transient
//! toward permanent across the storm.
//!
//! Determinism contract: every function here is a pure function of the
//! seed — the same `(seed, count, horizon)` always yields the same
//! schedule, which is what makes recovery experiments reproducible.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::FaultKind;

/// How long a runtime fault stays active after its arrival cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultLifetime {
    /// Active for `duration` cycles starting at the arrival cycle, then
    /// clears (particle strike, voltage droop).
    Transient {
        /// Active cycles after arrival.
        duration: u64,
    },
    /// Active for the first `duty` cycles of every `period`-cycle window
    /// after arrival (thermal flakiness, marginal timing).
    Intermittent {
        /// Window length in cycles.
        period: u64,
        /// Active cycles at the start of each window (clamped to
        /// `period`).
        duty: u64,
    },
    /// Active forever once arrived (electromigration, burned-out FU).
    Permanent,
}

impl FaultLifetime {
    /// Whether a fault with this lifetime, arrived at `arrival`, is
    /// active at `cycle`.
    #[must_use]
    pub(crate) fn active(self, arrival: u64, cycle: u64) -> bool {
        if cycle < arrival {
            return false;
        }
        let since = cycle - arrival;
        match self {
            FaultLifetime::Transient { duration } => since < duration,
            FaultLifetime::Intermittent { period, duty } => {
                let period = period.max(1);
                since % period < duty.clamp(1, period)
            }
            FaultLifetime::Permanent => true,
        }
    }
}

impl fmt::Display for FaultLifetime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultLifetime::Transient { duration } => write!(f, "transient({duration})"),
            FaultLifetime::Intermittent { period, duty } => {
                write!(f, "intermittent({duty}/{period})")
            }
            FaultLifetime::Permanent => f.write_str("permanent"),
        }
    }
}

/// One structural fault with an arrival time and a lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimedFault {
    /// Simulated cycle at which the fault first strikes (0 = present
    /// from the first executed cycle).
    pub arrival: u64,
    /// How long the fault stays active.
    pub lifetime: FaultLifetime,
    /// What breaks. Only structural kinds are meaningful at runtime;
    /// config-plane kinds are rejected by the runtime resolver.
    pub kind: FaultKind,
}

impl TimedFault {
    /// Whether the fault is active at `cycle`.
    #[must_use]
    pub fn active_at(&self, cycle: u64) -> bool {
        self.lifetime.active(self.arrival, cycle)
    }
}

impl fmt::Display for TimedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @{} ({})", self.kind, self.arrival, self.lifetime)
    }
}

/// The runtime fault kinds a [`FaultSchedule::random`] draw can produce.
///
/// * [`FaultKind::DeadPe`] / [`FaultKind::SeveredLink`] are **blocking**
///   faults: the hardware element stops moving data, so affected regions
///   stall and the progress watchdog catches them.
/// * [`FaultKind::StuckSwitch`] is a **silent-corruption** fault: routing
///   still moves data but delivers the wrong operands, so affected
///   regions keep firing and produce poisoned results that only a
///   result-residue check catches.
pub const RUNTIME_KINDS: [FaultKind; 3] = [
    FaultKind::DeadPe,
    FaultKind::SeveredLink,
    FaultKind::StuckSwitch,
];

/// The fault kinds a [`FaultSchedule::storm`] draw can produce: the
/// node/link kinds of [`RUNTIME_KINDS`] plus the port/lane-scoped kinds
/// ([`FaultKind::DeadPort`], [`FaultKind::StuckLane`],
/// [`FaultKind::DegradedLink`]) that exercise the recovery ladder's
/// port-reroute rung. Kept separate from [`RUNTIME_KINDS`] so existing
/// seeded [`FaultSchedule::random`] draws stay stable.
pub(crate) const STORM_KINDS: [FaultKind; 6] = [
    FaultKind::DeadPe,
    FaultKind::SeveredLink,
    FaultKind::StuckSwitch,
    FaultKind::DeadPort,
    FaultKind::StuckLane,
    FaultKind::DegradedLink { capacity: 50 },
];

/// Shape of a multi-fault storm for [`FaultSchedule::storm`].
///
/// A storm is a sequence of *bursts*: groups of faults whose arrivals
/// cluster within [`StormConfig::spread`] cycles of a shared burst center
/// (correlated neighbors — one thermal event or voltage droop taking out
/// several elements at once). Burst centers are spaced evenly across the
/// horizon with seed-derived jitter. Lifetimes escalate: early bursts lean
/// transient and later bursts lean permanent, modelling progressive
/// wear-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StormConfig {
    /// Number of bursts spread across the horizon.
    pub bursts: usize,
    /// Faults per burst.
    pub burst_size: usize,
    /// Cycle window the storm spans; burst centers land inside it.
    pub horizon: u64,
    /// Maximum cycles between a burst's center and its members' arrivals.
    pub spread: u64,
}

impl Default for StormConfig {
    fn default() -> Self {
        StormConfig {
            bursts: 3,
            burst_size: 2,
            horizon: 4096,
            spread: 32,
        }
    }
}

/// A seeded, reproducible schedule of mid-execution faults.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// Seed for victim resolution: the same seed against the same
    /// (ADG, schedule) pair always strikes the same hardware.
    pub seed: u64,
    /// Faults in arrival order (not enforced; the runtime sorts by
    /// arrival internally where it matters).
    pub faults: Vec<TimedFault>,
}

impl FaultSchedule {
    /// An empty schedule with the given victim-resolution seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultSchedule {
            seed,
            faults: Vec::new(),
        }
    }

    /// Appends one timed fault (builder style).
    #[must_use]
    pub fn with(mut self, arrival: u64, lifetime: FaultLifetime, kind: FaultKind) -> Self {
        self.faults.push(TimedFault {
            arrival,
            lifetime,
            kind,
        });
        self
    }

    /// A schedule of `count` faults with kinds drawn uniformly from
    /// [`RUNTIME_KINDS`], arrivals uniform in `[1, horizon)`, and
    /// lifetimes mixed (≈⅓ transient, ⅓ intermittent, ⅓ permanent) with
    /// seed-derived durations. Deterministic in `(seed, count, horizon)`.
    #[must_use]
    pub fn random(seed: u64, count: usize, horizon: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7E3A_0F42_51C6_88DDu64);
        let horizon = horizon.max(2);
        let faults = (0..count)
            .map(|_| {
                let kind = RUNTIME_KINDS[rng.gen_range(0..RUNTIME_KINDS.len())];
                let arrival = rng.gen_range(1..horizon);
                let lifetime = match rng.gen_range(0..3u8) {
                    0 => FaultLifetime::Transient {
                        duration: rng.gen_range(16..512u64),
                    },
                    1 => FaultLifetime::Intermittent {
                        period: rng.gen_range(64..512u64),
                        duty: rng.gen_range(8..64u64),
                    },
                    _ => FaultLifetime::Permanent,
                };
                TimedFault {
                    arrival,
                    lifetime,
                    kind,
                }
            })
            .collect();
        FaultSchedule { seed, faults }
    }

    /// A seeded multi-fault storm shaped by `cfg`: bursts of correlated
    /// arrivals with escalating permanence. Deterministic in
    /// `(seed, cfg)`, and **prefix-stable**: truncating the fault list to
    /// its first `k` entries yields exactly the first `k` faults every
    /// richer storm from the same `(seed, cfg)` starts with — which is
    /// what lets soak tests assert monotonic degradation over growing
    /// storm prefixes.
    #[must_use]
    pub fn storm(seed: u64, cfg: &StormConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5707_A11E_D5A6_E401u64);
        let bursts = cfg.bursts.max(1);
        let horizon = cfg.horizon.max(2);
        let mut faults = Vec::with_capacity(bursts * cfg.burst_size);
        for b in 0..bursts {
            // Centers spaced evenly, jittered by up to half a slot.
            let slot = horizon / (bursts as u64 + 1);
            let center =
                (slot * (b as u64 + 1) + rng.gen_range(0..slot.max(1) / 2 + 1)).clamp(1, horizon);
            // 0 for the first burst, 1.0 for the last: drives escalation.
            let progress = if bursts > 1 {
                b as f64 / (bursts - 1) as f64
            } else {
                1.0
            };
            for _ in 0..cfg.burst_size {
                let mut kind = STORM_KINDS[rng.gen_range(0..STORM_KINDS.len())];
                if let FaultKind::DegradedLink { .. } = kind {
                    kind = FaultKind::DegradedLink {
                        capacity: rng.gen_range(30..90u8),
                    };
                }
                let arrival = (center + rng.gen_range(0..cfg.spread.max(1))).max(1);
                // Early bursts clear on their own; late bursts are
                // wear-out: permanently broken hardware.
                let roll = rng.gen_range(0.0..1.0f64);
                let lifetime = if roll < 1.0 - progress {
                    FaultLifetime::Transient {
                        duration: rng.gen_range(16..512u64),
                    }
                } else if roll < 1.0 - progress / 2.0 {
                    FaultLifetime::Intermittent {
                        period: rng.gen_range(64..512u64),
                        duty: rng.gen_range(8..64u64),
                    }
                } else {
                    FaultLifetime::Permanent
                };
                faults.push(TimedFault {
                    arrival,
                    lifetime,
                    kind,
                });
            }
        }
        FaultSchedule { seed, faults }
    }

    /// The same schedule truncated to its first `k` faults (seed kept).
    /// With [`FaultSchedule::storm`]'s prefix stability this is "the same
    /// storm, stopped early".
    #[must_use]
    pub fn prefix(&self, k: usize) -> Self {
        FaultSchedule {
            seed: self.seed,
            faults: self.faults.iter().take(k).copied().collect(),
        }
    }

    /// Whether the schedule contains no faults.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of scheduled faults.
    #[must_use]
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// The earliest arrival cycle, if any fault is scheduled.
    #[must_use]
    pub fn first_arrival(&self) -> Option<u64> {
        self.faults.iter().map(|f| f.arrival).min()
    }
}

impl fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} timed fault(s)", self.faults.len())?;
        for fault in &self.faults {
            write!(f, "; {fault}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FaultLifetime {
        /// Whether the fault never clears on its own.
        fn is_permanent(self) -> bool {
            matches!(self, FaultLifetime::Permanent)
        }
    }

    #[test]
    fn lifetimes_activate_correctly() {
        let t = FaultLifetime::Transient { duration: 10 };
        assert!(!t.active(100, 99));
        assert!(t.active(100, 100));
        assert!(t.active(100, 109));
        assert!(!t.active(100, 110));

        let i = FaultLifetime::Intermittent {
            period: 10,
            duty: 3,
        };
        assert!(i.active(0, 0));
        assert!(i.active(0, 2));
        assert!(!i.active(0, 3));
        assert!(i.active(0, 10));
        assert!(!i.active(0, 19));

        let p = FaultLifetime::Permanent;
        assert!(!p.active(5, 4));
        assert!(p.active(5, 1_000_000));
    }

    #[test]
    fn degenerate_lifetimes_do_not_divide_by_zero() {
        let i = FaultLifetime::Intermittent { period: 0, duty: 0 };
        // period clamps to 1, duty clamps into [1, period] — always active.
        assert!(i.active(0, 0));
        assert!(i.active(0, 7));
    }

    #[test]
    fn random_schedule_is_reproducible_and_bounded() {
        let a = FaultSchedule::random(42, 8, 1000);
        let b = FaultSchedule::random(42, 8, 1000);
        assert_eq!(a, b);
        assert_eq!(a.faults.len(), 8);
        for f in &a.faults {
            assert!(f.arrival >= 1 && f.arrival < 1000, "{f}");
            assert!(RUNTIME_KINDS.contains(&f.kind), "{f}");
        }
        assert_ne!(FaultSchedule::random(43, 8, 1000), a);
    }

    #[test]
    fn storm_is_reproducible_bounded_and_prefix_stable() {
        let cfg = StormConfig::default();
        let a = FaultSchedule::storm(0xBADC_0FFE, &cfg);
        let b = FaultSchedule::storm(0xBADC_0FFE, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.faults.len(), cfg.bursts * cfg.burst_size);
        for f in &a.faults {
            assert!(f.arrival >= 1, "{f}");
            assert!(
                f.arrival <= cfg.horizon + cfg.spread,
                "{f} beyond horizon+spread"
            );
            assert!(
                STORM_KINDS.iter().any(|k| {
                    matches!(
                        (k, f.kind),
                        (
                            FaultKind::DegradedLink { .. },
                            FaultKind::DegradedLink { .. }
                        )
                    ) || *k == f.kind
                }),
                "{f} not a storm kind"
            );
        }
        // Prefix stability: the 3-fault prefix is the storm stopped early.
        let p = a.prefix(3);
        assert_eq!(p.seed, a.seed);
        assert_eq!(p.faults[..], a.faults[..3]);
        assert_ne!(FaultSchedule::storm(0xBADC_0FFF, &cfg), a);
    }

    #[test]
    fn storm_bursts_are_correlated_in_time() {
        let cfg = StormConfig {
            bursts: 4,
            burst_size: 3,
            horizon: 8192,
            spread: 16,
        };
        let s = FaultSchedule::storm(7, &cfg);
        for burst in s.faults.chunks(cfg.burst_size) {
            let lo = burst.iter().map(|f| f.arrival).min().unwrap();
            let hi = burst.iter().map(|f| f.arrival).max().unwrap();
            assert!(hi - lo < cfg.spread, "burst spans {lo}..{hi}");
        }
    }

    #[test]
    fn escalating_storms_end_permanent_heavy() {
        let cfg = StormConfig {
            bursts: 8,
            burst_size: 4,
            ..StormConfig::default()
        };
        // Across seeds, the last burst must be more permanent than the
        // first (statistically certain with these parameters).
        let mut first = 0u32;
        let mut last = 0u32;
        for seed in 0..16u64 {
            let s = FaultSchedule::storm(seed, &cfg);
            let chunks: Vec<_> = s.faults.chunks(cfg.burst_size).collect();
            first += chunks[0]
                .iter()
                .filter(|f| f.lifetime.is_permanent())
                .count() as u32;
            last += chunks[chunks.len() - 1]
                .iter()
                .filter(|f| f.lifetime.is_permanent())
                .count() as u32;
        }
        assert!(
            first == 0,
            "first bursts must be transient-leaning, got {first} permanent"
        );
        assert!(
            last > first,
            "escalation missing: first={first} last={last}"
        );
    }

    #[test]
    fn display_is_informative() {
        let s = FaultSchedule::new(1).with(
            64,
            FaultLifetime::Intermittent {
                period: 32,
                duty: 4,
            },
            FaultKind::DeadPe,
        );
        let txt = s.to_string();
        assert!(txt.contains("dead-pe"), "{txt}");
        assert!(txt.contains("@64"), "{txt}");
        assert!(txt.contains("intermittent(4/32)"), "{txt}");
        assert!(s.first_arrival() == Some(64));
    }
}
