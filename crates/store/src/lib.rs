//! Crash-consistent, content-addressed artifact store (PR 9 tentpole).
//!
//! The DSE loop and the codesign service both pay the same bill twice:
//! scheduling a kernel onto a candidate ADG and re-verifying the bitstream
//! round-trip. This crate persists those results on disk, keyed by the
//! triple that makes them reusable:
//!
//! ```text
//! (Adg::fingerprint, CompiledKernel::content_hash, scheduler seed)
//!    → schedule + config words + optional perf/footprint
//! ```
//!
//! The scheduler seed is part of the key on purpose: schedules are
//! deterministic in `(ADG, kernel, seed)`, and the DSE determinism
//! contract ("results depend only on `(seed, shards)`") would break if a
//! store shared entries across explorers running different seeds.
//!
//! # Crash consistency
//!
//! Every put follows write-to-temp → fsync → atomic rename → dir fsync,
//! so a crash at any instant leaves either the old state or the new
//! state, never a half-written entry at its final address. Residue a
//! crash *can* leave — a torn or complete `.tmp-*` file that never got
//! renamed — is swept (and counted) on the next [`ArtifactStore::open`].
//!
//! # Trust nothing on load
//!
//! Records are length/CRC32-framed per section and carry the
//! schedule digest; [`ArtifactStore::get`] re-verifies all of it on every
//! load. Anything wrong — torn bytes, bit rot, an alien file squatting at
//! a content address — is *quarantined*: moved to `quarantine/`, logged,
//! counted under `store.quarantine.*`, snapshotted to the flight
//! recorder, and reported to the caller as a plain miss. The store never
//! panics on disk contents and never returns a record whose digest it
//! did not just recompute.
//!
//! # Fault injection
//!
//! A [`StorageInjector`] (from `dsagen-faults`) can be threaded into
//! [`StoreConfig`]; it fires deterministic torn-write / stale-temp /
//! transient-I/O faults at write boundaries, which the crash-matrix
//! harness uses to prove the recovery story end to end.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod record;

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dsagen_faults::{StorageInjector, WriteFault};
use dsagen_scheduler::Schedule;
use dsagen_telemetry::{log, Level, Telemetry};

use record::RecordError;
pub use record::{encode, frame_boundaries};

/// The content address of one artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArtifactKey {
    /// [`dsagen_adg::Adg::fingerprint`] of the design the schedule targets.
    pub adg_fp: u64,
    /// Content hash of the compiled kernel that was scheduled.
    pub kernel_hash: u64,
    /// The scheduler seed the schedule was produced under.
    pub sched_seed: u64,
}

impl ArtifactKey {
    /// The entry's file name: three fixed-width hex fields, so the
    /// address is parseable back out of a directory listing.
    #[must_use]
    pub fn file_name(&self) -> String {
        format!(
            "{:016x}-{:016x}-{:016x}.art",
            self.adg_fp, self.kernel_hash, self.sched_seed
        )
    }
}

impl fmt::Display for ArtifactKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "adg={:#018x} kernel={:#018x} seed={:#018x}",
            self.adg_fp, self.kernel_hash, self.sched_seed
        )
    }
}

/// One stored codesign result.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// The content address.
    pub key: ArtifactKey,
    /// The schedule the scheduler produced for `(adg, kernel, seed)`.
    pub schedule: Schedule,
    /// Objective value observed when the schedule was minted, if any.
    pub perf: Option<f64>,
    /// Footprint fingerprint (see `dsagen_dse::schedule_footprint`), if any.
    pub footprint: Option<u64>,
    /// The serialized bitstream words, so the loader can re-run
    /// round-trip verification without regenerating them.
    pub config_words: Vec<u64>,
}

/// Retry discipline for transient write failures: exponential backoff
/// with deterministic jitter (seeded, so tests replay exactly).
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per logical put (first try included). Must exceed
    /// the injector's transient burst for recovery to be possible.
    pub max_attempts: u32,
    /// Backoff before the second attempt, in milliseconds; doubles per
    /// further attempt.
    pub base_backoff_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub max_backoff_ms: u64,
    /// Seed for the jitter draw (deterministic per `(seed, attempt)`).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff_ms: 1,
            max_backoff_ms: 50,
            jitter_seed: 0,
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based: the wait after the
    /// first failure is `backoff_ms(1)`): `base * 2^(attempt-1)` capped at
    /// `max`, plus up to 50% deterministic jitter.
    #[must_use]
    pub(crate) fn backoff_ms(&self, attempt: u32) -> u64 {
        let exp = self
            .base_backoff_ms
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(16))
            .min(self.max_backoff_ms);
        let jitter_span = exp / 2;
        if jitter_span == 0 {
            return exp;
        }
        let draw = splitmix64(self.jitter_seed ^ u64::from(attempt).wrapping_mul(0x9E37))
            % (jitter_span + 1);
        (exp + draw).min(self.max_backoff_ms)
    }
}

/// Store construction options.
#[derive(Debug, Clone, Default)]
pub struct StoreConfig {
    /// Retry discipline for transient write failures.
    pub retry: RetryPolicy,
    /// Storage-plane fault source (disabled in production).
    pub injector: StorageInjector,
}

/// Why a store operation failed. Quarantine is *not* an error — a
/// corrupt entry degrades to a miss; these are the operational failures
/// the caller may want to retry or surface.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// A non-retryable filesystem error.
    Io {
        /// Which operation failed (`"open"`, `"write-temp"`, `"rename"`, ...).
        op: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// Every attempt of a put failed transiently; the retry budget is
    /// spent.
    RetriesExhausted {
        /// Attempts made (== the policy's `max_attempts`).
        attempts: u32,
    },
    /// The fault injector simulated a crash mid-commit; the entry did not
    /// land (torn or stale temp residue may remain, as after a real
    /// crash).
    InjectedCrash {
        /// The simulated fault shape.
        fault: WriteFault,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, source } => {
                write!(f, "store {op} on {}: {source}", path.display())
            }
            StoreError::RetriesExhausted { attempts } => {
                write!(f, "store put: all {attempts} attempts failed transiently")
            }
            StoreError::InjectedCrash { fault } => {
                write!(
                    f,
                    "store put: injected crash ({fault:?}); entry not committed"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Point-in-time operation counters (cheap copies of internal atomics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Entries committed successfully.
    pub puts: u64,
    /// Loads that returned a verified artifact.
    pub hits: u64,
    /// Loads that found no entry.
    pub misses: u64,
    /// Entries moved to quarantine (each also counts as a miss).
    pub quarantined: u64,
    /// Transient write failures absorbed by the retry loop.
    pub transient_retries: u64,
    /// Stale temp files swept at open.
    pub stale_temps_swept: u64,
}

#[derive(Debug, Default)]
struct Counters {
    puts: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    quarantined: AtomicU64,
    transient_retries: AtomicU64,
    stale_temps_swept: AtomicU64,
    temp_counter: AtomicU64,
}

/// Disk-backed content-addressed artifact store. Cheap to clone (all
/// clones share counters and configuration); safe to use from many
/// threads — distinct keys never contend, and same-key races are
/// resolved by the atomicity of rename.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    inner: Arc<StoreInner>,
}

#[derive(Debug)]
struct StoreInner {
    entries: PathBuf,
    quarantine: PathBuf,
    cfg: StoreConfig,
    telemetry: Telemetry,
    counters: Counters,
}

const TEMP_PREFIX: &str = ".tmp-";

fn io_err(op: &'static str, path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Io {
        op,
        path: path.to_path_buf(),
        source,
    }
}

/// Stable metric/log label for a quarantine reason.
#[must_use]
pub(crate) fn quarantine_label(err: &RecordError) -> &'static str {
    match err {
        RecordError::BadMagic => "bad_magic",
        RecordError::Frame(_) => "frame",
        RecordError::Malformed { .. } => "malformed",
        RecordError::DigestMismatch { .. } => "digest_mismatch",
        RecordError::AlienKey { .. } => "alien_key",
    }
}

impl ArtifactStore {
    /// Opens (creating if needed) a store rooted at `root`, sweeping any
    /// `.tmp-*` crash residue out of the entries directory.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the directories cannot be created or listed.
    pub fn open(
        root: impl AsRef<Path>,
        cfg: StoreConfig,
        telemetry: Telemetry,
    ) -> Result<ArtifactStore, StoreError> {
        let root = root.as_ref();
        let entries = root.join("entries");
        let quarantine = root.join("quarantine");
        fs::create_dir_all(&entries).map_err(|e| io_err("create-dir", &entries, e))?;
        fs::create_dir_all(&quarantine).map_err(|e| io_err("create-dir", &quarantine, e))?;

        let store = ArtifactStore {
            inner: Arc::new(StoreInner {
                entries,
                quarantine,
                cfg,
                telemetry,
                counters: Counters::default(),
            }),
        };
        store.sweep_stale_temps()?;
        Ok(store)
    }

    fn sweep_stale_temps(&self) -> Result<(), StoreError> {
        let inner = &self.inner;
        let iter =
            fs::read_dir(&inner.entries).map_err(|e| io_err("read-dir", &inner.entries, e))?;
        for entry in iter.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if !name.starts_with(TEMP_PREFIX) {
                continue;
            }
            let path = entry.path();
            match fs::remove_file(&path) {
                Ok(()) => {
                    inner
                        .counters
                        .stale_temps_swept
                        .fetch_add(1, Ordering::Relaxed);
                    inner.telemetry.metrics().add("store.sweep.stale_temp", 1);
                    log(
                        Level::Info,
                        format!("store: swept stale temp file {}", path.display()),
                    );
                }
                Err(e) => {
                    // Best-effort: a sweep failure is logged, not fatal —
                    // the residue never shadows a committed entry.
                    log(
                        Level::Warn,
                        format!("store: failed to sweep {}: {e}", path.display()),
                    );
                }
            }
        }
        Ok(())
    }

    /// The directory committed entries live in (tests and the crash
    /// harness damage files here directly).
    #[must_use]
    pub fn entries_dir(&self) -> &Path {
        &self.inner.entries
    }

    /// The directory quarantined files are moved to.
    #[must_use]
    pub fn quarantine_dir(&self) -> &Path {
        &self.inner.quarantine
    }

    /// Commits `artifact` under its key: write-to-temp → fsync → atomic
    /// rename → directory fsync. Transient injector faults are retried
    /// per the [`RetryPolicy`]; simulated crashes surface as
    /// [`StoreError::InjectedCrash`] and leave realistic residue.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] for real filesystem failures,
    /// [`StoreError::RetriesExhausted`] when the retry budget is spent,
    /// [`StoreError::InjectedCrash`] for simulated mid-commit crashes.
    pub fn put(&self, artifact: &Artifact) -> Result<(), StoreError> {
        let inner = &self.inner;
        let bytes = record::encode(artifact);
        let final_path = inner.entries.join(artifact.key.file_name());

        for attempt in 1..=inner.cfg.retry.max_attempts {
            match inner.cfg.injector.on_write(bytes.len()) {
                WriteFault::Clean => {
                    self.commit(&bytes, &final_path)?;
                    inner.counters.puts.fetch_add(1, Ordering::Relaxed);
                    inner.telemetry.metrics().add("store.put.ok", 1);
                    return Ok(());
                }
                WriteFault::Transient => {
                    inner
                        .counters
                        .transient_retries
                        .fetch_add(1, Ordering::Relaxed);
                    inner
                        .telemetry
                        .metrics()
                        .add("store.put.transient_retry", 1);
                    if attempt < inner.cfg.retry.max_attempts {
                        std::thread::sleep(std::time::Duration::from_millis(
                            inner.cfg.retry.backoff_ms(attempt),
                        ));
                    }
                }
                fault @ WriteFault::TornAt { keep } => {
                    // Simulate the crash: a torn temp file lands, nothing
                    // is renamed. The next open() sweeps it.
                    let temp = self.temp_path();
                    let _ = fs::write(&temp, &bytes[..keep.min(bytes.len())]);
                    inner.telemetry.metrics().add("store.put.injected_crash", 1);
                    return Err(StoreError::InjectedCrash { fault });
                }
                fault @ WriteFault::StaleTemp => {
                    let temp = self.temp_path();
                    let _ = fs::write(&temp, &bytes);
                    inner.telemetry.metrics().add("store.put.injected_crash", 1);
                    return Err(StoreError::InjectedCrash { fault });
                }
            }
        }
        inner
            .telemetry
            .metrics()
            .add("store.put.retries_exhausted", 1);
        Err(StoreError::RetriesExhausted {
            attempts: inner.cfg.retry.max_attempts,
        })
    }

    fn temp_path(&self) -> PathBuf {
        let n = self
            .inner
            .counters
            .temp_counter
            .fetch_add(1, Ordering::Relaxed);
        self.inner
            .entries
            .join(format!("{TEMP_PREFIX}{}-{n}", std::process::id()))
    }

    fn commit(&self, bytes: &[u8], final_path: &Path) -> Result<(), StoreError> {
        let temp = self.temp_path();
        let mut f = fs::File::create(&temp).map_err(|e| io_err("create-temp", &temp, e))?;
        f.write_all(bytes)
            .map_err(|e| io_err("write-temp", &temp, e))?;
        f.sync_all().map_err(|e| io_err("fsync-temp", &temp, e))?;
        drop(f);
        fs::rename(&temp, final_path).map_err(|e| io_err("rename", final_path, e))?;
        // Persist the rename itself: fsync the containing directory.
        if let Ok(dir) = fs::File::open(&self.inner.entries) {
            let _ = dir.sync_all();
        }
        Ok(())
    }

    /// Loads and fully re-verifies the artifact at `key`. A missing entry
    /// is `Ok(None)`. A corrupt, truncated, or alien entry is quarantined
    /// (moved aside, logged, counted, flight-dumped) and *also* reported
    /// as `Ok(None)` — corruption degrades to a recomputable miss, never
    /// a panic and never a wrong artifact.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] only for unexpected filesystem failures
    /// (permission loss, etc.), never for bad record contents.
    pub fn get(&self, key: ArtifactKey) -> Result<Option<Artifact>, StoreError> {
        let inner = &self.inner;
        let path = inner.entries.join(key.file_name());
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                inner.counters.misses.fetch_add(1, Ordering::Relaxed);
                inner.telemetry.metrics().add("store.get.miss", 1);
                return Ok(None);
            }
            Err(e) => return Err(io_err("read", &path, e)),
        };
        match record::decode(&bytes, Some(key)) {
            Ok(artifact) => {
                inner.counters.hits.fetch_add(1, Ordering::Relaxed);
                inner.telemetry.metrics().add("store.get.hit", 1);
                Ok(Some(artifact))
            }
            Err(reason) => {
                self.quarantine(&path, key, &reason);
                inner.counters.misses.fetch_add(1, Ordering::Relaxed);
                inner.telemetry.metrics().add("store.get.miss", 1);
                Ok(None)
            }
        }
    }

    /// Moves a failed entry aside and reports it through every
    /// observability channel: leveled log, `store.quarantine.*` metrics,
    /// flight-recorder event + on-error dump.
    fn quarantine(&self, path: &Path, key: ArtifactKey, reason: &RecordError) {
        let inner = &self.inner;
        let label = quarantine_label(reason);
        let n = inner.counters.quarantined.fetch_add(1, Ordering::Relaxed);
        inner.telemetry.metrics().add("store.quarantine.total", 1);
        inner
            .telemetry
            .metrics()
            .add(&format!("store.quarantine.{label}"), 1);

        let dest = inner.quarantine.join(format!(
            "{}.q{n}",
            path.file_name().and_then(|s| s.to_str()).unwrap_or("entry")
        ));
        if let Err(e) = fs::rename(path, &dest) {
            // Rename across the same directory tree should not fail, but
            // if it does the entry must still stop shadowing the address.
            let _ = fs::remove_file(path);
            log(
                Level::Warn,
                format!(
                    "store: quarantine rename of {} failed ({e}); entry removed instead",
                    path.display()
                ),
            );
        }
        log(
            Level::Warn,
            format!("store: quarantined entry for {key}: {reason} [{label}]"),
        );
        inner.telemetry.recorder().record("store", || {
            (
                "quarantine".to_string(),
                format!("key=({key}) reason={reason} label={label}"),
            )
        });
        inner.telemetry.recorder().dump_on_error("store-quarantine");
    }

    /// Number of committed entries currently on disk.
    #[must_use]
    pub fn len(&self) -> usize {
        fs::read_dir(&self.inner.entries)
            .map(|iter| {
                iter.flatten()
                    .filter(|e| e.file_name().to_str().is_some_and(|n| n.ends_with(".art")))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether the store has no committed entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time operation counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let c = &self.inner.counters;
        StoreStats {
            puts: c.puts.load(Ordering::Relaxed),
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            quarantined: c.quarantined.load(Ordering::Relaxed),
            transient_retries: c.transient_retries.load(Ordering::Relaxed),
            stale_temps_swept: c.stale_temps_swept.load(Ordering::Relaxed),
        }
    }
}

/// Convenience constructor for the common production configuration: no
/// injector, default retry policy, disabled telemetry.
///
/// # Errors
///
/// Propagates [`ArtifactStore::open`] failures.
pub fn open_default(root: impl AsRef<Path>) -> Result<ArtifactStore, StoreError> {
    ArtifactStore::open(root, StoreConfig::default(), Telemetry::disabled())
}

/// Helper used by callers that mint artifacts: packages a schedule and
/// its serialized config words under a key.
#[must_use]
pub fn artifact(
    key: ArtifactKey,
    schedule: Schedule,
    perf: Option<f64>,
    footprint: Option<u64>,
    config_words: Vec<u64>,
) -> Artifact {
    Artifact {
        key,
        schedule,
        perf,
        footprint,
        config_words,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsagen_faults::{corrupt_record_bytes, StorageFaultKind};

    impl ArtifactStore {
        /// Whether a committed (not necessarily valid) entry exists at `key`.
        fn contains(&self, key: ArtifactKey) -> bool {
            self.inner.entries.join(key.file_name()).exists()
        }
    }

    impl ArtifactKey {
        /// Inverse of [`ArtifactKey::file_name`]; `None` for names that are
        /// not well-formed entry addresses.
        fn from_file_name(name: &str) -> Option<ArtifactKey> {
            let stem = name.strip_suffix(".art")?;
            let mut parts = stem.splitn(3, '-');
            let adg_fp = u64::from_str_radix(parts.next()?, 16).ok()?;
            let kernel_hash = u64::from_str_radix(parts.next()?, 16).ok()?;
            let sched_seed = u64::from_str_radix(parts.next()?, 16).ok()?;
            Some(ArtifactKey {
                adg_fp,
                kernel_hash,
                sched_seed,
            })
        }
    }

    fn sample(seed: u64) -> Artifact {
        // Reuse the record module's generator via a local copy: a small
        // deterministic artifact is enough for store-level tests.
        use dsagen_adg::{EdgeId, NodeId};
        use std::collections::BTreeMap;
        let placement = (0..4)
            .map(|i| (i != 2).then(|| NodeId::from_index(i + seed as usize)))
            .collect();
        let mut routes = BTreeMap::new();
        routes.insert(0usize, vec![EdgeId::from_index(1), EdgeId::from_index(2)]);
        Artifact {
            key: ArtifactKey {
                adg_fp: 0x1111 + seed,
                kernel_hash: 0x2222 + seed,
                sched_seed: 0x3333 + seed,
            },
            schedule: Schedule { placement, routes },
            perf: Some(1.5),
            footprint: None,
            config_words: vec![7, 8, 9],
        }
    }

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dsagen-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_round_trips_across_reopen() {
        let root = tmp_root("roundtrip");
        let a = sample(1);
        {
            let store = open_default(&root).unwrap();
            store.put(&a).unwrap();
            assert_eq!(store.get(a.key).unwrap().as_ref(), Some(&a));
            assert_eq!(store.stats().hits, 1);
        }
        // A second process (modeled as a reopen) sees the entry.
        let store = open_default(&root).unwrap();
        assert_eq!(store.get(a.key).unwrap(), Some(a));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_key_is_a_plain_miss() {
        let root = tmp_root("miss");
        let store = open_default(&root).unwrap();
        assert_eq!(store.get(sample(9).key).unwrap(), None);
        assert_eq!(store.stats().misses, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_entries_quarantine_not_panic() {
        let root = tmp_root("quarantine");
        let store = open_default(&root).unwrap();
        for (i, kind) in [
            StorageFaultKind::TornWrite,
            StorageFaultKind::TruncatedRecord,
            StorageFaultKind::BitFlippedPayload,
        ]
        .into_iter()
        .enumerate()
        {
            let a = sample(10 + i as u64);
            store.put(&a).unwrap();
            let path = store.entries_dir().join(a.key.file_name());
            let mut bytes = fs::read(&path).unwrap();
            corrupt_record_bytes(kind, 99, &mut bytes);
            fs::write(&path, &bytes).unwrap();
            assert_eq!(store.get(a.key).unwrap(), None, "{kind}");
            assert!(!path.exists(), "{kind}: entry must be moved aside");
        }
        assert_eq!(store.stats().quarantined, 3);
        assert_eq!(
            fs::read_dir(store.quarantine_dir()).unwrap().count(),
            3,
            "each corrupt entry lands in quarantine"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn alien_file_at_an_address_is_quarantined() {
        let root = tmp_root("alien");
        let store = open_default(&root).unwrap();
        // A record committed under key A, copied to address B.
        let a = sample(20);
        let b_key = ArtifactKey {
            adg_fp: 0xAAAA,
            kernel_hash: 0xBBBB,
            sched_seed: 0xCCCC,
        };
        store.put(&a).unwrap();
        fs::copy(
            store.entries_dir().join(a.key.file_name()),
            store.entries_dir().join(b_key.file_name()),
        )
        .unwrap();
        assert_eq!(store.get(b_key).unwrap(), None);
        assert_eq!(store.stats().quarantined, 1);
        // The original, correctly-addressed entry still loads.
        assert!(store.get(a.key).unwrap().is_some());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn stale_temps_swept_on_open() {
        let root = tmp_root("sweep");
        {
            let store = open_default(&root).unwrap();
            fs::write(store.entries_dir().join(".tmp-999-0"), b"residue").unwrap();
            fs::write(store.entries_dir().join(".tmp-999-1"), b"").unwrap();
        }
        let store = open_default(&root).unwrap();
        assert_eq!(store.stats().stale_temps_swept, 2);
        assert!(store.is_empty());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn transient_faults_are_retried_to_success() {
        let root = tmp_root("transient");
        let cfg = StoreConfig {
            retry: RetryPolicy {
                max_attempts: 5,
                base_backoff_ms: 0,
                max_backoff_ms: 0,
                jitter_seed: 1,
            },
            // Every op faults, always transient, burst of 3 — attempts
            // 1..=3 fail, attempt 4 succeeds (within the budget of 5).
            injector: StorageInjector::seeded(11, 1.0, 1.0, 3),
        };
        let store = ArtifactStore::open(&root, cfg, Telemetry::disabled()).unwrap();
        let a = sample(30);
        store.put(&a).unwrap();
        assert!(store.stats().transient_retries >= 3);
        assert_eq!(store.get(a.key).unwrap(), Some(a));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn exhausted_retries_surface_typed() {
        let root = tmp_root("exhausted");
        let cfg = StoreConfig {
            retry: RetryPolicy {
                max_attempts: 2,
                base_backoff_ms: 0,
                max_backoff_ms: 0,
                jitter_seed: 0,
            },
            injector: StorageInjector::seeded(5, 1.0, 1.0, 10),
        };
        let store = ArtifactStore::open(&root, cfg, Telemetry::disabled()).unwrap();
        match store.put(&sample(31)) {
            Err(StoreError::RetriesExhausted { attempts: 2 }) => {}
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_crash_leaves_recoverable_residue() {
        let root = tmp_root("crash-residue");
        let cfg = StoreConfig {
            retry: RetryPolicy::default(),
            // All faults, never transient → always a crash shape.
            injector: StorageInjector::seeded(17, 1.0, 0.0, 1),
        };
        let store = ArtifactStore::open(&root, cfg, Telemetry::disabled()).unwrap();
        let a = sample(32);
        match store.put(&a) {
            Err(StoreError::InjectedCrash { .. }) => {}
            other => panic!("expected InjectedCrash, got {other:?}"),
        }
        // Entry never committed; residue may exist.
        assert!(!store.contains(a.key));
        drop(store);
        // Recovery: reopen sweeps residue, a clean put commits.
        let store = open_default(&root).unwrap();
        assert!(store.is_empty());
        store.put(&a).unwrap();
        assert_eq!(store.get(a.key).unwrap(), Some(a));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn key_file_name_round_trips() {
        let key = ArtifactKey {
            adg_fp: u64::MAX,
            kernel_hash: 0,
            sched_seed: 0x1234_5678_9ABC_DEF0,
        };
        assert_eq!(ArtifactKey::from_file_name(&key.file_name()), Some(key));
        assert_eq!(ArtifactKey::from_file_name("garbage.art"), None);
        assert_eq!(ArtifactKey::from_file_name("README.md"), None);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_backoff_ms: 2,
            max_backoff_ms: 20,
            jitter_seed: 7,
        };
        let waits: Vec<u64> = (1..8).map(|a| p.backoff_ms(a)).collect();
        assert!(waits.iter().all(|&w| w <= 20));
        assert!(waits[0] >= 2);
        // Deterministic in the seed.
        assert_eq!(waits, (1..8).map(|a| p.backoff_ms(a)).collect::<Vec<_>>());
    }
}
