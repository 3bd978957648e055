//! Storage-plane fault injection for the content-addressed artifact store.
//!
//! The structural plane corrupts graphs, the config plane corrupts
//! bitstream words in flight; this module corrupts the *persistence*
//! layer: the bytes an [`dsagen-store`] record is written as, and the I/O
//! operations that move them. Every failure mode a disk can inflict on a
//! write-to-temp → fsync → atomic-rename commit protocol is represented:
//!
//! * [`StorageFaultKind::TornWrite`] — the process dies mid-write: only a
//!   prefix of the record reaches the medium.
//! * [`StorageFaultKind::TruncatedRecord`] — the tail of a committed
//!   record is lost (partial sector writeback, filesystem truncation).
//! * [`StorageFaultKind::BitFlippedPayload`] — one bit of a committed
//!   record flips at rest (media decay, cosmic ray).
//! * [`StorageFaultKind::StaleTempFile`] — the crash landed *between*
//!   temp-write and rename: a fully- or partially-written `.tmp` file
//!   survives as residue while the real entry never appeared.
//! * [`StorageFaultKind::TransientIo`] — the operation fails with a
//!   retryable error (EINTR, ENOSPC race, NFS hiccup) but the medium is
//!   fine; a retry succeeds.
//!
//! Two consumers: the [`StorageInjector`] is threaded *into* the store and
//! fires faults at operation boundaries (deterministically, from a seed),
//! and the pure [`corrupt_record_bytes`] / [`kill_points`] helpers let the
//! crash-matrix harness construct every damaged on-disk state directly.
//!
//! Determinism contract: everything here is a pure function of the seed
//! and the operation index — the same plan replays the same faults.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One kind of storage-plane fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageFaultKind {
    /// A write dies mid-record: only a prefix of the bytes land.
    TornWrite,
    /// A committed record loses its tail.
    TruncatedRecord,
    /// One bit of a committed record flips at rest.
    BitFlippedPayload,
    /// Crash residue: a temp file survives while the entry never committed.
    StaleTempFile,
    /// A retryable I/O failure (EINTR-class); the medium is undamaged.
    TransientIo,
}

impl StorageFaultKind {
    /// Every storage-plane fault kind, in a fixed order (exhaustive
    /// crash-matrix sweeps iterate this).
    pub const STORAGE_PLANE: [StorageFaultKind; 5] = [
        StorageFaultKind::TornWrite,
        StorageFaultKind::TruncatedRecord,
        StorageFaultKind::BitFlippedPayload,
        StorageFaultKind::StaleTempFile,
        StorageFaultKind::TransientIo,
    ];

    /// Stable lowercase label (log lines, JSON rows, metrics names).
    #[must_use]
    pub(crate) fn label(self) -> &'static str {
        match self {
            StorageFaultKind::TornWrite => "torn-write",
            StorageFaultKind::TruncatedRecord => "truncated-record",
            StorageFaultKind::BitFlippedPayload => "bit-flipped-payload",
            StorageFaultKind::StaleTempFile => "stale-temp-file",
            StorageFaultKind::TransientIo => "transient-io",
        }
    }
}

impl fmt::Display for StorageFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What the injector decided for one write operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// The write proceeds untouched.
    Clean,
    /// Fail this attempt with a retryable error; the store's
    /// retry-with-backoff loop should succeed on a later attempt.
    Transient,
    /// Crash mid-write: persist only the first `keep` bytes of the temp
    /// file and skip the rename (the entry never commits; the torn temp
    /// file is crash residue).
    TornAt {
        /// Bytes that reach the medium before the crash.
        keep: usize,
    },
    /// Crash between temp-write and rename: the temp file is complete but
    /// the entry never commits.
    StaleTemp,
}

/// Deterministic, seeded storage fault source. Cheap to clone; clones
/// share the same RNG and burst state, so a store and a test harness
/// observing the same injector agree on the fault sequence.
#[derive(Debug, Clone, Default)]
pub struct StorageInjector {
    inner: Option<Arc<InjectorState>>,
}

#[derive(Debug)]
struct InjectorState {
    rng: Mutex<StdRng>,
    /// Probability that any given write op faults at all.
    write_fault_p: f64,
    /// Probability that a faulted op is transient (vs a crash shape).
    transient_p: f64,
    /// Consecutive transient failures to deal per faulted op (exercises
    /// the backoff ladder; the store's retry budget must exceed this for
    /// recovery to be possible).
    transient_burst: u32,
    /// Remaining transient failures owed to the current op.
    owed: AtomicU64,
    /// The attempt after a fully-paid burst is guaranteed clean — the
    /// fault model says a transient error's medium is undamaged, so a
    /// retry within budget must be able to succeed.
    clean_next: AtomicU64,
}

impl StorageInjector {
    /// A seeded injector firing on roughly `write_fault_p` of write
    /// operations, splitting faulted ops between transient errors
    /// (probability `transient_p`, dealt as a burst of `transient_burst`
    /// consecutive failures) and crash shapes (torn write / stale temp).
    #[must_use]
    pub fn seeded(seed: u64, write_fault_p: f64, transient_p: f64, transient_burst: u32) -> Self {
        StorageInjector {
            inner: Some(Arc::new(InjectorState {
                rng: Mutex::new(StdRng::seed_from_u64(seed ^ STORE_SEED_MIX)),
                write_fault_p: write_fault_p.clamp(0.0, 1.0),
                transient_p: transient_p.clamp(0.0, 1.0),
                transient_burst: transient_burst.max(1),
                owed: AtomicU64::new(0),
                clean_next: AtomicU64::new(0),
            })),
        }
    }

    /// The injector's verdict for a write of `record_len` bytes. Called
    /// once per write *attempt*, so a transient burst fails the first N
    /// attempts of one logical put and then lets the retry through.
    #[must_use]
    pub fn on_write(&self, record_len: usize) -> WriteFault {
        let Some(state) = &self.inner else {
            return WriteFault::Clean;
        };
        // Pay off an owed transient burst first (deterministic ordering:
        // the burst was decided when the op first faulted).
        let owed = state.owed.load(Ordering::Relaxed);
        if owed > 0 {
            state.owed.store(owed - 1, Ordering::Relaxed);
            if owed == 1 {
                state.clean_next.store(1, Ordering::Relaxed);
            }
            return WriteFault::Transient;
        }
        if state.clean_next.swap(0, Ordering::Relaxed) == 1 {
            // The retry after a transient burst: the medium was never
            // damaged, so this attempt goes through.
            return WriteFault::Clean;
        }
        let mut rng = match state.rng.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if !rng.gen_bool(state.write_fault_p) {
            return WriteFault::Clean;
        }
        if rng.gen_bool(state.transient_p) {
            // This attempt plus (burst - 1) follow-ups fail transiently;
            // the attempt after that is guaranteed clean.
            if state.transient_burst == 1 {
                state.clean_next.store(1, Ordering::Relaxed);
            } else {
                state
                    .owed
                    .store(u64::from(state.transient_burst - 1), Ordering::Relaxed);
            }
            WriteFault::Transient
        } else if rng.gen_bool(0.5) {
            let keep = if record_len == 0 {
                0
            } else {
                rng.gen_range(0..record_len)
            };
            WriteFault::TornAt { keep }
        } else {
            WriteFault::StaleTemp
        }
    }
}

/// Seed-domain separator so storage-plane draws never correlate with the
/// structural or config planes at the same user seed.
const STORE_SEED_MIX: u64 = 0x5709_0A9E_57D1_5C01;

/// Applies one *at-rest* corruption shape to an encoded record, returning
/// a human-readable description of what was done. Pure in `(kind, seed,
/// bytes)`; the crash-matrix harness uses this to construct every damaged
/// on-disk state without racing real crashes.
///
/// [`StorageFaultKind::TransientIo`] and [`StorageFaultKind::StaleTempFile`]
/// do not damage committed bytes — for those kinds the record is returned
/// unchanged and the description says so (the harness injects them through
/// the temp-file / injector paths instead).
pub fn corrupt_record_bytes(kind: StorageFaultKind, seed: u64, bytes: &mut Vec<u8>) -> String {
    let mut rng = StdRng::seed_from_u64(seed ^ STORE_SEED_MIX);
    match kind {
        StorageFaultKind::TornWrite => {
            let keep = if bytes.is_empty() {
                0
            } else {
                rng.gen_range(0..bytes.len())
            };
            bytes.truncate(keep);
            format!("torn write: kept {keep} bytes")
        }
        StorageFaultKind::TruncatedRecord => {
            // Lose 1..=16 tail bytes (always at least one, never all).
            let lose = rng
                .gen_range(1..=16usize)
                .min(bytes.len().saturating_sub(1));
            let keep = bytes.len() - lose;
            bytes.truncate(keep);
            format!("truncated record: lost {lose} tail bytes")
        }
        StorageFaultKind::BitFlippedPayload => {
            if bytes.is_empty() {
                return "bit flip on empty record: no-op".to_string();
            }
            let byte = rng.gen_range(0..bytes.len());
            let bit = rng.gen_range(0..8u32);
            bytes[byte] ^= 1 << bit;
            format!("bit flip: byte {byte} bit {bit}")
        }
        StorageFaultKind::StaleTempFile | StorageFaultKind::TransientIo => {
            format!("{kind}: committed bytes untouched")
        }
    }
}

/// Every interesting kill point for a record of `len` bytes whose frame
/// boundaries are `boundaries` (byte offsets *after* each frame, as
/// reported by the store's record encoder): each boundary itself, one
/// byte before it (mid-CRC), and one byte after (mid-length-prefix of the
/// next frame), deduplicated and clamped to `0..len`. Killing a write at
/// every one of these offsets covers every structurally distinct torn
/// state the framing can produce.
#[must_use]
pub fn kill_points(len: usize, boundaries: &[usize]) -> Vec<usize> {
    let mut points = vec![0usize];
    for &b in boundaries {
        for candidate in [b.saturating_sub(1), b, b + 1] {
            if candidate < len {
                points.push(candidate);
            }
        }
    }
    points.sort_unstable();
    points.dedup();
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    impl StorageInjector {
        /// An injector that never fires (production default).
        fn disabled() -> Self {
            StorageInjector { inner: None }
        }

        /// Whether this injector can fire at all.
        fn is_enabled(&self) -> bool {
            self.inner.is_some()
        }
    }

    #[test]
    fn disabled_injector_is_always_clean() {
        let inj = StorageInjector::disabled();
        assert!(!inj.is_enabled());
        for _ in 0..32 {
            assert_eq!(inj.on_write(100), WriteFault::Clean);
        }
    }

    #[test]
    fn injector_is_deterministic_in_its_seed() {
        let a = StorageInjector::seeded(7, 0.5, 0.5, 2);
        let b = StorageInjector::seeded(7, 0.5, 0.5, 2);
        let seq_a: Vec<WriteFault> = (0..64).map(|_| a.on_write(256)).collect();
        let seq_b: Vec<WriteFault> = (0..64).map(|_| b.on_write(256)).collect();
        assert_eq!(seq_a, seq_b);
        assert!(
            seq_a.iter().any(|f| *f != WriteFault::Clean),
            "p=0.5 over 64 ops must fire"
        );
    }

    #[test]
    fn transient_bursts_are_consecutive_then_recoverable() {
        let inj = StorageInjector::seeded(3, 1.0, 1.0, 3);
        // Every op faults transiently with a burst of 3, and the attempt
        // after a paid-off burst is guaranteed clean (the medium is fine)
        // — so a retry budget of burst + 1 always recovers.
        let seq: Vec<WriteFault> = (0..8).map(|_| inj.on_write(64)).collect();
        assert_eq!(
            seq,
            [
                WriteFault::Transient,
                WriteFault::Transient,
                WriteFault::Transient,
                WriteFault::Clean,
                WriteFault::Transient,
                WriteFault::Transient,
                WriteFault::Transient,
                WriteFault::Clean,
            ]
        );
    }

    #[test]
    fn corruption_shapes_are_deterministic_and_typed() {
        let base: Vec<u8> = (0..200u8).collect();
        for kind in StorageFaultKind::STORAGE_PLANE {
            let mut a = base.clone();
            let mut b = base.clone();
            let da = corrupt_record_bytes(kind, 42, &mut a);
            let db = corrupt_record_bytes(kind, 42, &mut b);
            assert_eq!(a, b, "{kind}");
            assert_eq!(da, db, "{kind}");
            match kind {
                StorageFaultKind::TornWrite | StorageFaultKind::TruncatedRecord => {
                    assert!(a.len() < base.len(), "{kind} must shorten");
                }
                StorageFaultKind::BitFlippedPayload => {
                    assert_eq!(a.len(), base.len());
                    assert_ne!(a, base, "one bit must differ");
                }
                StorageFaultKind::StaleTempFile | StorageFaultKind::TransientIo => {
                    assert_eq!(a, base, "{kind} leaves committed bytes alone");
                }
            }
        }
    }

    #[test]
    fn kill_points_cover_boundaries_and_neighbors() {
        let points = kill_points(100, &[10, 50, 100]);
        assert!(points.contains(&0));
        assert!(points.contains(&9) && points.contains(&10) && points.contains(&11));
        assert!(points.contains(&99));
        assert!(!points.contains(&100), "killing at len is a clean write");
        assert!(points.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
    }

    #[test]
    fn labels_are_stable() {
        let labels: Vec<&str> = StorageFaultKind::STORAGE_PLANE
            .iter()
            .map(|k| k.label())
            .collect();
        assert_eq!(
            labels,
            [
                "torn-write",
                "truncated-record",
                "bit-flipped-payload",
                "stale-temp-file",
                "transient-io"
            ]
        );
    }
}
