//! The result line a run prints last on its standard output, and reading
//! it back for the one-command modes.

use dsagen_bench::json::{parse, JsonValue};

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// One JSON object with exactly `correct`, `attempted`, `failed` and
    /// `metrics`. Values keep every digit measured.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn from_json(line: &str) -> Result<RunResult, String> {
        let doc = parse(line).map_err(|e| e.to_string())?;
        let count = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_f64)
                .map(|v| v as u64)
                .ok_or_else(|| format!("missing {key}"))
        };
        let Some(JsonValue::Obj(members)) = doc.get("metrics") else {
            return Err("missing metrics".into());
        };
        let metrics = members
            .iter()
            .map(|(name, m)| {
                Ok(Metric {
                    name: name.clone(),
                    value: m
                        .get("value")
                        .and_then(JsonValue::as_f64)
                        .ok_or("metric without value")?,
                    unit: m
                        .get("unit")
                        .and_then(JsonValue::as_str)
                        .ok_or("metric without unit")?
                        .to_string(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunResult {
            correct: doc
                .get("correct")
                .and_then(JsonValue::as_bool)
                .ok_or("missing correct")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let result = RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "op_p50_ms".into(),
                    value: 1.203_456_789_012_3,
                    unit: "ms".into(),
                },
                Metric {
                    name: "sim_cycles".into(),
                    value: 4_512_345_678.0,
                    unit: "cycles".into(),
                },
                Metric {
                    name: "best_objective".into(),
                    value: 1.7e-3,
                    unit: "perf2/mm2".into(),
                },
            ],
        };
        let line = result.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(RunResult::from_json(&line).expect("parses"), result);
        let keys: Vec<String> = match parse(&line).expect("json") {
            JsonValue::Obj(m) => m.into_iter().map(|(k, _)| k).collect(),
            _ => panic!("object"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
