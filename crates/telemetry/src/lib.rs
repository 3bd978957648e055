//! Structured telemetry for the DSAGEN co-design pipeline.
//!
//! The pipeline's claims rest on numbers that used to be invisible from the
//! inside: the analytical model is validated against cycle-level simulation
//! (paper §VII, Fig 15) and the DSE is steered by objective deltas, yet
//! historically only final scalars escaped. This crate provides the event
//! layer everything else reports into:
//!
//! * [`Telemetry`] — a cheaply cloneable handle that is **zero-cost when
//!   disabled**: every emission site first checks a single `Option`
//!   discriminant (no allocation, no lock, no clock read) and only builds
//!   the event when the handle is enabled. An enabled handle
//!   ([`Telemetry::in_memory`]) keeps its events in memory for
//!   [`Telemetry::events`] and the exporters below.
//! * [`Span`] — RAII phase timing with monotonic clocks; dropped spans
//!   become Chrome `trace_event`-compatible *complete* events.
//! * [`chrome_trace`] / [`jsonl`] — exporters: the former produces a JSON
//!   document loadable in `chrome://tracing` / Perfetto, the latter a flat
//!   line-per-event stream for ad-hoc `grep`/`jq` analysis.
//! * [`log`] — leveled stderr logging (gated by `DSAGEN_LOG`) replacing
//!   ad-hoc `eprintln!` across the workspace.
//!
//! Three observability pillars build on the event layer (each zero-cost
//! when disabled via the same one-branch `Option` pattern):
//!
//! * [`MetricsRegistry`] — typed counters / gauges /
//!   log-linear histograms under a stable hierarchical name space,
//!   accumulated per shard and merged deterministically.
//! * [`profile`] — a wall-time attribution tree folded
//!   from recorded spans (the benchmark's per-workload layer tables).
//! * [`FlightRecorder`] — a bounded ring of recent
//!   structured events dumped as JSONL alongside terminal errors.
//!
//! A [`Telemetry`] handle carries all three: the event buffer plus optional
//! metrics/recorder sub-handles ([`Telemetry::with_metrics`],
//! [`Telemetry::with_recorder`]), so the subsystems that already thread a
//! handle get the whole layer without signature churn.
//!
//! # Example
//!
//! ```
//! use dsagen_telemetry::{chrome_trace, EventData, Telemetry, Value};
//!
//! let tel = Telemetry::in_memory();
//! {
//!     let mut span = tel.span("phase", "schedule");
//!     span.arg("kernel", "dot");
//!     // ... do the work being timed ...
//! } // span drop emits a complete event with its duration
//! tel.emit(|| EventData::new("dse", "iteration").arg("iter", 3u64).arg("accepted", true));
//! let events = tel.events();
//! assert_eq!(events.len(), 2);
//! let trace = chrome_trace(&events);
//! assert!(trace.contains("\"ph\": \"X\"")); // the completed span
//! ```
//!
//! Disabled handles short-circuit before the closure runs:
//!
//! ```
//! use dsagen_telemetry::{EventData, Telemetry};
//! let off = Telemetry::disabled();
//! off.emit(|| unreachable!("never built when disabled"));
//! assert!(!off.is_enabled());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod metrics;
mod profiler;
mod recorder;

pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use profiler::{profile, ProfileNode, ProfileReport};
pub use recorder::{FlightEvent, FlightRecorder};

use std::fmt;
use std::io::Write as _;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Values & events
// ---------------------------------------------------------------------------

/// One argument value attached to an event. Rendered as native JSON types
/// in both exporters.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned counter.
    U64(u64),
    /// Signed quantity.
    I64(i64),
    /// Measurement.
    F64(f64),
    /// Flag.
    Bool(bool),
    /// Free-form label.
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl fmt::Display for Value {
    /// JSON rendering of the value (strings are escaped and quoted).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => {
                if v.is_finite() {
                    write!(f, "{v}")
                } else {
                    // JSON has no Inf/NaN; stringify so the artifact stays
                    // loadable.
                    write!(f, "\"{v}\"")
                }
            }
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "\"{}\"", escape_json(s)),
        }
    }
}

/// Escapes a string for embedding in a JSON document.
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// What an emission site provides; the handle stamps timestamp and thread.
#[derive(Debug, Clone, PartialEq)]
pub struct EventData {
    /// Category (Chrome-trace `cat`): `"phase"`, `"dse"`, `"sim"`,
    /// `"fault"`, ...
    pub cat: &'static str,
    /// Event name (Chrome-trace `name`).
    pub name: String,
    /// Key/value arguments.
    pub args: Vec<(&'static str, Value)>,
}

impl EventData {
    /// A new event payload with no arguments yet.
    #[must_use]
    pub fn new(cat: &'static str, name: impl Into<String>) -> Self {
        EventData {
            cat,
            name: name.into(),
            args: Vec::new(),
        }
    }

    /// Attaches one argument (builder style).
    #[must_use]
    pub fn arg(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        self.args.push((key, value.into()));
        self
    }
}

/// One recorded telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since the handle's epoch (Chrome-trace `ts` unit).
    pub ts_us: u64,
    /// Span duration in microseconds (`None` for instant events).
    pub dur_us: Option<u64>,
    /// Category.
    pub cat: &'static str,
    /// Name.
    pub name: String,
    /// Stable fingerprint of the emitting thread (Chrome-trace `tid`).
    pub tid: u64,
    /// Number of enclosing open spans on the emitting thread when this
    /// event began (0 = top level). Makes span nesting exact for the
    /// profiler — microsecond-granular timestamps alone cannot
    /// disambiguate zero-width spans on an interval boundary.
    pub depth: u32,
    /// Arguments.
    pub args: Vec<(&'static str, Value)>,
}

impl Event {
    /// Renders the event as a single-line JSON object (the JSONL row
    /// format).
    #[must_use]
    pub(crate) fn json(&self) -> String {
        let mut s = format!(
            "{{\"ts_us\": {}, \"cat\": \"{}\", \"name\": \"{}\", \"tid\": {}",
            self.ts_us,
            escape_json(self.cat),
            escape_json(&self.name),
            self.tid
        );
        if let Some(d) = self.dur_us {
            s.push_str(&format!(", \"dur_us\": {d}"));
        }
        if !self.args.is_empty() {
            s.push_str(", \"args\": {");
            for (i, (k, v)) in self.args.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("\"{}\": {v}", escape_json(k)));
            }
            s.push('}');
        }
        s.push('}');
        s
    }
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    events: Mutex<Vec<Event>>,
}

impl Inner {
    fn record(&self, event: Event) {
        match self.events.lock() {
            Ok(mut g) => g.push(event),
            Err(poisoned) => poisoned.into_inner().push(event),
        }
    }
}

// ---------------------------------------------------------------------------
// The handle
// ---------------------------------------------------------------------------

/// A cheaply cloneable telemetry handle.
///
/// A disabled handle ([`Telemetry::disabled`]) makes every emission site a
/// single branch on an `Option` discriminant: the event-building closure is
/// never called, nothing allocates, no clock is read, no lock is taken.
/// Enabled handles share one event buffer behind a mutex, so shard worker
/// threads can emit concurrently.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
    metrics: MetricsRegistry,
    recorder: FlightRecorder,
}

impl Telemetry {
    /// A handle that records nothing, at (almost) no cost.
    #[must_use]
    pub fn disabled() -> Self {
        Telemetry {
            inner: None,
            metrics: MetricsRegistry::disabled(),
            recorder: FlightRecorder::disabled(),
        }
    }

    /// A handle that accumulates events in memory; retrieve them with
    /// [`Telemetry::events`].
    #[must_use]
    pub fn in_memory() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                events: Mutex::new(Vec::new()),
            })),
            metrics: MetricsRegistry::disabled(),
            recorder: FlightRecorder::disabled(),
        }
    }

    /// Attaches a metrics registry (builder style). The registry is
    /// independent of the event buffer: a handle can carry metrics while
    /// disabled, and vice versa.
    #[must_use]
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = metrics;
        self
    }

    /// Attaches a flight recorder (builder style).
    #[must_use]
    pub fn with_recorder(mut self, recorder: FlightRecorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The attached metrics registry (disabled by default). Recording
    /// through a disabled registry is one branch.
    #[inline]
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The attached flight recorder (disabled by default).
    #[inline]
    #[must_use]
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The handle a DSE shard worker accumulates into: shares this
    /// handle's event buffer and flight recorder, but gets a **fresh**
    /// metrics registry of the same enablement — the shard's counters are
    /// merged back in shard index order ([`MetricsRegistry::absorb`]) so
    /// the final snapshot is independent of thread scheduling.
    #[must_use]
    pub fn fork_shard(&self) -> Telemetry {
        Telemetry {
            inner: self.inner.clone(),
            metrics: self.metrics.fork(),
            recorder: self.recorder.clone(),
        }
    }

    /// Whether the handle records events. Emission sites may use this to skip
    /// preparing expensive arguments; [`Telemetry::emit`] already
    /// short-circuits internally.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one instant event. `build` runs only when enabled.
    #[inline]
    pub fn emit(&self, build: impl FnOnce() -> EventData) {
        let Some(inner) = &self.inner else { return };
        let data = build();
        inner.record(Event {
            ts_us: us_since(inner.epoch),
            dur_us: None,
            cat: data.cat,
            name: data.name,
            tid: current_tid(),
            depth: span_depth(),
            args: data.args,
        });
    }

    /// Opens a timing span; the returned guard emits one *complete* event
    /// (start timestamp + duration) when dropped. Disabled handles return
    /// an inert guard.
    #[must_use = "dropping the guard immediately closes the span"]
    pub fn span(&self, cat: &'static str, name: impl Into<String>) -> Span {
        match &self.inner {
            None => Span { state: None },
            Some(inner) => {
                let depth = span_depth();
                DEPTH.with(|d| d.set(depth + 1));
                Span {
                    state: Some(SpanState {
                        inner: Arc::clone(inner),
                        cat,
                        name: name.into(),
                        start_us: us_since(inner.epoch),
                        depth,
                        args: Vec::new(),
                    }),
                }
            }
        }
    }

    /// Snapshot of the events recorded so far (empty for a disabled
    /// handle).
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        match inner.events.lock() {
            Ok(g) => g.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }
}

fn us_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

thread_local! {
    /// Open-span count on this thread (shared across every enabled
    /// handle: nesting is a property of the call stack, not the handle).
    static DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Current span nesting depth on this thread.
fn span_depth() -> u32 {
    DEPTH.with(std::cell::Cell::get)
}

/// A stable per-thread fingerprint (Chrome-trace `tid`).
fn current_tid() -> u64 {
    use std::cell::Cell;
    use std::hash::{Hash, Hasher};
    thread_local! {
        static TID: Cell<u64> = const { Cell::new(0) };
    }
    TID.with(|c| {
        let cached = c.get();
        if cached != 0 {
            return cached;
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        let tid = h.finish() | 1; // never 0, so the cache distinguishes "unset"
        c.set(tid);
        tid
    })
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct SpanState {
    inner: Arc<Inner>,
    cat: &'static str,
    name: String,
    start_us: u64,
    depth: u32,
    args: Vec<(&'static str, Value)>,
}

/// RAII timing guard minted by [`Telemetry::span`]. Dropping it records a
/// complete event covering the guard's lifetime.
#[must_use = "a span measures the scope it lives in; dropping it immediately records ~0 duration"]
pub struct Span {
    state: Option<SpanState>,
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.state {
            None => write!(f, "Span(disabled)"),
            Some(s) => write!(f, "Span({}/{})", s.cat, s.name),
        }
    }
}

impl Span {
    /// Attaches an argument to the event the span will emit.
    pub fn arg(&mut self, key: &'static str, value: impl Into<Value>) {
        if let Some(s) = &mut self.state {
            s.args.push((key, value.into()));
        }
    }

    /// Ends the span now (alias for drop, reads better at call sites).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(s) = self.state.take() {
            DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            let end_us = us_since(s.inner.epoch);
            s.inner.record(Event {
                ts_us: s.start_us,
                dur_us: Some(end_us.saturating_sub(s.start_us)),
                cat: s.cat,
                name: s.name,
                tid: current_tid(),
                depth: s.depth,
                args: s.args,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// Renders events as a Chrome `trace_event` JSON document (object format
/// with a `traceEvents` array), loadable in `chrome://tracing` or
/// <https://ui.perfetto.dev>. Spans become complete (`"ph": "X"`) events;
/// instant events become `"ph": "i"`.
#[must_use]
pub fn chrome_trace(events: &[Event]) -> String {
    let mut s = String::from("{\n\"traceEvents\": [\n");
    for (i, e) in events.iter().enumerate() {
        s.push_str("  {");
        s.push_str(&format!(
            "\"name\": \"{}\", \"cat\": \"{}\", \"pid\": 1, \"tid\": {}, \"ts\": {}",
            escape_json(&e.name),
            escape_json(e.cat),
            e.tid,
            e.ts_us
        ));
        match e.dur_us {
            Some(d) => s.push_str(&format!(", \"ph\": \"X\", \"dur\": {d}")),
            None => s.push_str(", \"ph\": \"i\", \"s\": \"t\""),
        }
        if !e.args.is_empty() {
            s.push_str(", \"args\": {");
            for (j, (k, v)) in e.args.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("\"{}\": {v}", escape_json(k)));
            }
            s.push('}');
        }
        s.push('}');
        if i + 1 < events.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("],\n\"displayTimeUnit\": \"ms\"\n}\n");
    s
}

/// Renders events as a flat JSONL stream, one event per line.
#[must_use]
pub fn jsonl(events: &[Event]) -> String {
    let mut s = String::new();
    for e in events {
        s.push_str(&e.json());
        s.push('\n');
    }
    s
}

// ---------------------------------------------------------------------------
// Leveled logging
// ---------------------------------------------------------------------------

/// Log severity, lowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or data-losing conditions.
    Error,
    /// Suspicious but tolerated conditions (the default threshold).
    Warn,
    /// Progress notes.
    Info,
    /// Developer chatter.
    Debug,
}

impl Level {
    fn label(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
        }
    }
}

/// The active threshold, parsed once from `DSAGEN_LOG`
/// (`error|warn|info|debug`, default `warn`).
#[must_use]
fn max_level() -> Level {
    static LEVEL: OnceLock<Level> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        match std::env::var("DSAGEN_LOG")
            .unwrap_or_default()
            .to_ascii_lowercase()
            .as_str()
        {
            "error" => Level::Error,
            "info" => Level::Info,
            "debug" => Level::Debug,
            _ => Level::Warn,
        }
    })
}

/// Writes one leveled line to stderr if `level` passes the `DSAGEN_LOG`
/// threshold. This is the workspace's sanctioned replacement for ad-hoc
/// `eprintln!` debugging.
pub fn log(level: Level, msg: impl AsRef<str>) {
    if level <= max_level() {
        let mut err = std::io::stderr().lock();
        let _ = writeln!(err, "[dsagen {}] {}", level.label(), msg.as_ref());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_never_builds_events() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.emit(|| unreachable!("closure must not run when disabled"));
        let span = tel.span("phase", "noop");
        drop(span);
        assert!(tel.events().is_empty());
    }

    #[test]
    fn memory_sink_records_instants_and_spans() {
        let tel = Telemetry::in_memory();
        assert!(tel.is_enabled());
        tel.emit(|| EventData::new("dse", "iteration").arg("iter", 7u64));
        {
            let mut span = tel.span("phase", "schedule");
            span.arg("kernel", "dot");
        }
        let events = tel.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "iteration");
        assert_eq!(events[0].dur_us, None);
        assert_eq!(events[0].args, vec![("iter", Value::U64(7))]);
        assert_eq!(events[1].name, "schedule");
        assert!(events[1].dur_us.is_some());
    }

    #[test]
    fn clones_share_one_sink() {
        let tel = Telemetry::in_memory();
        let other = tel.clone();
        other.emit(|| EventData::new("sim", "from-clone"));
        assert_eq!(tel.events().len(), 1);
    }

    #[test]
    fn emission_is_thread_safe() {
        let tel = Telemetry::in_memory();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let tel = tel.clone();
                scope.spawn(move || {
                    for i in 0..25u64 {
                        tel.emit(|| EventData::new("dse", "it").arg("n", t * 100 + i));
                    }
                });
            }
        });
        assert_eq!(tel.events().len(), 100);
    }

    #[test]
    fn chrome_trace_is_loadable_shape() {
        let tel = Telemetry::in_memory();
        tel.emit(|| EventData::new("fault", "inject").arg("kind", "dead-pe"));
        drop(tel.span("phase", "simulate"));
        let doc = chrome_trace(&tel.events());
        assert!(doc.starts_with("{\n\"traceEvents\": ["));
        assert!(doc.contains("\"ph\": \"i\""));
        assert!(doc.contains("\"ph\": \"X\""));
        assert!(doc.contains("\"dead-pe\""));
        assert!(doc.trim_end().ends_with('}'));
        // Balanced braces/brackets — a cheap well-formedness smoke test.
        for (open, close) in [('{', '}'), ('[', ']')] {
            let o = doc.matches(open).count();
            let c = doc.matches(close).count();
            assert_eq!(o, c, "unbalanced {open}{close}");
        }
    }

    #[test]
    fn jsonl_rows_are_one_object_per_line() {
        let tel = Telemetry::in_memory();
        tel.emit(|| EventData::new("a", "x"));
        tel.emit(|| EventData::new("b", "y").arg("f", 1.5f64).arg("s", "hi"));
        let out = jsonl(&tel.events());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(out.contains("\"f\": 1.5"));
        assert!(out.contains("\"s\": \"hi\""));
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let v = Value::Str("quote\"and\\slash".into());
        assert_eq!(v.to_string(), "\"quote\\\"and\\\\slash\"");
        assert_eq!(Value::F64(f64::NAN).to_string(), "\"NaN\"");
    }

    #[test]
    fn span_timestamps_are_monotone() {
        let tel = Telemetry::in_memory();
        let s1 = tel.span("phase", "outer");
        std::thread::sleep(std::time::Duration::from_millis(2));
        drop(tel.span("phase", "inner"));
        drop(s1);
        let events = tel.events();
        // inner recorded first (dropped first), outer second.
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[1].name, "outer");
        let outer = &events[1];
        let inner = &events[0];
        assert!(outer.ts_us <= inner.ts_us);
        assert!(outer.dur_us.unwrap() >= inner.dur_us.unwrap());
    }

    #[test]
    fn levels_order_and_default() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        // Default threshold admits warn and error.
        assert!(max_level() >= Level::Warn || max_level() == Level::Error);
        log(Level::Debug, "never shown under the default threshold");
    }
}
