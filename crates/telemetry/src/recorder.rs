//! Flight recorder: a bounded ring of recent structured events for
//! post-mortem debugging.
//!
//! The event sinks in this crate answer "what happened over the whole
//! run"; the flight recorder answers the cheaper, always-relevant question
//! "what happened *just before it went wrong*". Subsystems record faults
//! injected, repair rungs climbed, cache decisions, and rejected DSE
//! candidates into a fixed-capacity ring; when a terminal error surfaces
//! (`SimError`, `RecoveryError`, an abnormal DSE rejection) the ring is
//! dumped as JSONL — automatically to `DSAGEN_FLIGHT_DIR` when that
//! environment variable is set, and on demand via
//! [`FlightRecorder::dump_jsonl`].
//!
//! A disabled recorder costs one `Option` discriminant branch per call and
//! never builds the event; an enabled one costs that branch plus one ring
//! write behind a mutex. Nothing in the simulator, scheduler, or DSE reads
//! the ring, so enabling it cannot perturb results — property-tested in
//! `tests/properties.rs`.
//!
//! ```
//! use dsagen_telemetry::FlightRecorder;
//!
//! let rec = FlightRecorder::with_capacity(2);
//! rec.record("fault", || ("inject".into(), "dead-pe n3".into()));
//! rec.record("recovery", || ("rung".into(), "port-mask legal".into()));
//! rec.record("recovery", || ("rung".into(), "resume".into()));
//! let dump = rec.dump_jsonl();
//! // Capacity 2: the oldest record has been evicted.
//! assert!(!dump.contains("dead-pe"));
//! assert_eq!(dump.lines().count(), 2);
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default ring capacity: enough to hold a whole recovery episode
/// (detect → ladder → reprogram → resume) with surrounding context.
const DEFAULT_CAPACITY: usize = 256;

/// One recorded flight event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotone sequence number (never reset, so dumps show gaps left by
    /// ring eviction).
    pub seq: u64,
    /// Subsystem category (`"fault"`, `"recovery"`, `"dse"`, `"sim"`).
    pub cat: &'static str,
    /// Short event label (`"inject"`, `"rung"`, `"reject"`).
    pub label: String,
    /// Free-form detail for the post-mortem reader.
    pub detail: String,
}

impl FlightEvent {
    /// One-line JSON rendering (the dump row format).
    #[must_use]
    pub(crate) fn json(&self) -> String {
        format!(
            "{{\"seq\": {}, \"cat\": \"{}\", \"label\": \"{}\", \"detail\": \"{}\"}}",
            self.seq,
            crate::escape_json(self.cat),
            crate::escape_json(&self.label),
            crate::escape_json(&self.detail),
        )
    }
}

#[derive(Debug)]
struct Ring {
    cap: usize,
    seq: u64,
    events: VecDeque<FlightEvent>,
}

/// A cheaply cloneable flight-recorder handle; clones share one ring.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Arc<Mutex<Ring>>>,
}

impl FlightRecorder {
    /// A recorder that stores nothing (one branch per call).
    #[must_use]
    pub fn disabled() -> Self {
        FlightRecorder { inner: None }
    }

    /// A live recorder with 256 slots (`DEFAULT_CAPACITY`).
    #[must_use]
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A live recorder holding the most recent `cap` events (min 1).
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        FlightRecorder {
            inner: Some(Arc::new(Mutex::new(Ring {
                cap: cap.max(1),
                seq: 0,
                events: VecDeque::with_capacity(cap.max(1)),
            }))),
        }
    }

    /// Whether events are stored.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one event; `build` returns `(label, detail)` and runs only
    /// when the recorder is enabled.
    #[inline]
    pub fn record(&self, cat: &'static str, build: impl FnOnce() -> (String, String)) {
        let Some(inner) = &self.inner else { return };
        let (label, detail) = build();
        let mut ring = match inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let seq = ring.seq;
        ring.seq += 1;
        if ring.events.len() == ring.cap {
            ring.events.pop_front();
        }
        ring.events.push_back(FlightEvent {
            seq,
            cat,
            label,
            detail,
        });
    }

    /// Number of events currently held (≤ capacity).
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        match &self.inner {
            None => 0,
            Some(inner) => match inner.lock() {
                Ok(g) => g.events.len(),
                Err(poisoned) => poisoned.into_inner().events.len(),
            },
        }
    }

    /// Whether the ring holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the ring's events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<FlightEvent> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => {
                let ring = match inner.lock() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                ring.events.iter().cloned().collect()
            }
        }
    }

    /// Renders the ring as JSONL, one event per line, oldest first.
    #[must_use]
    pub fn dump_jsonl(&self) -> String {
        let mut s = String::new();
        for e in self.events() {
            s.push_str(&e.json());
            s.push('\n');
        }
        s
    }

    /// Automatic post-mortem dump: when `DSAGEN_FLIGHT_DIR` is set and the
    /// ring is non-empty, writes the JSONL dump to
    /// `<dir>/flight_<label>_<n>.jsonl` (a process-unique counter keeps
    /// repeated errors from clobbering each other) and returns the path.
    /// Library error paths call this unconditionally; without the
    /// environment variable it is a no-op, so tests and hot paths stay
    /// silent.
    pub fn dump_on_error(&self, label: &str) -> Option<PathBuf> {
        if self.is_empty() {
            return None;
        }
        let dir = std::env::var_os("DSAGEN_FLIGHT_DIR")?;
        static DUMPS: AtomicU64 = AtomicU64::new(0);
        let n = DUMPS.fetch_add(1, Ordering::Relaxed);
        let safe: String = label
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        let path = PathBuf::from(dir).join(format!("flight_{safe}_{n}.jsonl"));
        match std::fs::write(&path, self.dump_jsonl()) {
            Ok(()) => Some(path),
            Err(e) => {
                crate::log(
                    crate::Level::Warn,
                    format!("flight-recorder dump to {} failed: {e}", path.display()),
                );
                None
            }
        }
    }
}

impl fmt::Display for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FlightRecorder({} events)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_never_builds() {
        let rec = FlightRecorder::disabled();
        rec.record("dse", || unreachable!("closure must not run when disabled"));
        assert!(rec.is_empty());
        assert_eq!(rec.dump_jsonl(), "");
        assert!(rec.dump_on_error("x").is_none());
    }

    #[test]
    fn ring_evicts_oldest_and_keeps_sequence() {
        let rec = FlightRecorder::with_capacity(3);
        for i in 0..5u64 {
            rec.record("sim", move || (format!("e{i}"), String::new()));
        }
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 2);
        assert_eq!(events[2].seq, 4);
        assert_eq!(events[0].label, "e2");
    }

    #[test]
    fn clones_share_the_ring() {
        let rec = FlightRecorder::enabled();
        let other = rec.clone();
        other.record("fault", || ("inject".into(), "dead-pe".into()));
        assert_eq!(rec.len(), 1);
        assert!(rec.dump_jsonl().contains("dead-pe"));
    }

    #[test]
    fn dump_rows_are_json_lines() {
        let rec = FlightRecorder::enabled();
        rec.record("dse", || ("reject".into(), "reason=\"worse\"".into()));
        let dump = rec.dump_jsonl();
        let line = dump.lines().next().unwrap();
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\\\"worse\\\""), "{line}");
    }

    #[test]
    fn dump_on_error_writes_when_dir_set() {
        let rec = FlightRecorder::enabled();
        rec.record("recovery", || ("rung".into(), "port-mask".into()));
        // No env var in the test harness → no file, no error.
        if std::env::var_os("DSAGEN_FLIGHT_DIR").is_none() {
            assert!(rec.dump_on_error("unit test").is_none());
        }
    }
}
