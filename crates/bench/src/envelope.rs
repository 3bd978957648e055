//! Common metrics envelope for `BENCH_*.json` artifacts.
//!
//! `telemetry_overhead` wraps its JSON payload in this envelope, and
//! `bench_compare` reads it back: a schema version, the bench name, a
//! small key/value metadata block (rep counts, the gate), the run's
//! [`MetricsSnapshot`], and the bench's own document under `payload`.
//!
//! Pre-envelope artifacts are still readable: [`payload`] unwraps an
//! enveloped document and passes a bare one through unchanged.

use std::fmt::Write as _;

use dsagen_telemetry::{escape_json, MetricsSnapshot};

use crate::json::JsonValue;

/// Version of the envelope schema itself (not of any payload). Bump on
/// breaking changes to the envelope's own keys.
pub const SCHEMA_VERSION: u64 = 2;

/// One metadata value: rendered as a JSON number.
#[derive(Debug, Clone, PartialEq)]
enum MetaValue {
    Int(u64),
    Num(f64),
}

/// Builder for the common artifact envelope.
#[derive(Debug, Clone, Default)]
pub struct Envelope {
    bench: String,
    meta: Vec<(String, MetaValue)>,
    metrics: MetricsSnapshot,
}

impl Envelope {
    /// Starts an envelope for the bench binary named `bench`.
    #[must_use]
    pub fn new(bench: &str) -> Self {
        Envelope {
            bench: bench.to_string(),
            meta: Vec::new(),
            metrics: MetricsSnapshot::default(),
        }
    }

    /// Adds an integer metadata entry (seeds, rep counts); document order
    /// is preserved.
    #[must_use]
    pub fn meta_int(mut self, key: &str, value: u64) -> Self {
        self.meta.push((key.to_string(), MetaValue::Int(value)));
        self
    }

    /// Adds a float metadata entry.
    #[must_use]
    pub fn meta_num(mut self, key: &str, value: f64) -> Self {
        self.meta.push((key.to_string(), MetaValue::Num(value)));
        self
    }

    /// Attaches the run's metrics registry snapshot.
    #[must_use]
    pub fn metrics(mut self, snapshot: MetricsSnapshot) -> Self {
        self.metrics = snapshot;
        self
    }

    /// Wraps `payload` (a complete JSON document) into the enveloped
    /// artifact text. The payload is embedded verbatim.
    #[must_use]
    pub fn wrap(&self, payload: &str) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"schema_version\": {SCHEMA_VERSION},");
        let _ = writeln!(s, "  \"bench\": \"{}\",", escape_json(&self.bench));
        s.push_str("  \"meta\": {");
        for (i, (key, value)) in self.meta.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{}\": ", escape_json(key));
            match value {
                MetaValue::Int(v) => {
                    let _ = write!(s, "{v}");
                }
                MetaValue::Num(v) => {
                    let _ = write!(s, "{v}");
                }
            }
        }
        s.push_str("},\n");
        let _ = writeln!(s, "  \"metrics\": {},", self.metrics.to_json());
        let _ = write!(s, "  \"payload\": {}", payload.trim_end());
        s.push_str("\n}\n");
        s
    }
}

/// Unwraps an enveloped artifact to its payload; a pre-envelope (bare)
/// document passes through unchanged. Every comparator gate reads through
/// this, which keeps a bare baseline comparable against an enveloped
/// candidate.
#[must_use]
pub fn payload(doc: &JsonValue) -> &JsonValue {
    match (doc.get("schema_version"), doc.get("payload")) {
        (Some(_), Some(p)) => p,
        _ => doc,
    }
}

/// The envelope's bench name, when `doc` is enveloped.
#[must_use]
pub fn bench_name(doc: &JsonValue) -> Option<&str> {
    doc.get("schema_version")?;
    doc.get("bench")?.as_str()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use dsagen_telemetry::MetricsRegistry;

    #[test]
    fn wrap_then_parse_round_trips() {
        let reg = MetricsRegistry::enabled();
        reg.add("dse.iterations", 7);
        let text = Envelope::new("telemetry_overhead")
            .meta_int("seed", 0xC0DE)
            .meta_num("tolerance", 0.25)
            .metrics(reg.snapshot())
            .wrap(r#"{"rows": [1, 2, 3]}"#);
        let doc = parse(&text).expect("well-formed envelope");
        assert_eq!(
            doc.get("schema_version").and_then(JsonValue::as_f64),
            Some(SCHEMA_VERSION as f64)
        );
        assert_eq!(bench_name(&doc), Some("telemetry_overhead"));
        let meta = doc.get("meta").expect("meta block");
        assert_eq!(meta.get("seed").and_then(JsonValue::as_f64), Some(49374.0));
        let metrics = doc.get("metrics").expect("metrics block");
        assert_eq!(
            metrics.get("dse.iterations").and_then(JsonValue::as_f64),
            Some(7.0)
        );
        let rows = payload(&doc).get("rows").and_then(JsonValue::as_array);
        assert_eq!(rows.map(<[JsonValue]>::len), Some(3));
    }

    #[test]
    fn payload_passes_bare_documents_through() {
        let doc = parse(r#"{"rows": []}"#).unwrap();
        assert_eq!(payload(&doc), &doc);
        assert!(bench_name(&doc).is_none());
    }
}
