//! Typed loading of a committed benchmark baseline artifact.
//!
//! `bench_compare` reads the committed `BENCH_telemetry_overhead.json`,
//! which may be missing (a baseline never committed), empty (a botched
//! redirect), or partial (a truncated or hand-edited document). Each of
//! those used to surface as an opaque I/O or parser string;
//! [`load_artifact`] classifies them into a [`BaselineError`] whose
//! message says *what to do about it*, so a red CI run is diagnosable
//! from its last line.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::json::{parse, JsonValue};

/// Why a baseline artifact could not be loaded. Every variant carries
/// the path and renders an actionable message.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BaselineError {
    /// The file does not exist (or is unreadable).
    Missing {
        /// The path that was attempted.
        path: PathBuf,
        /// The OS-level detail.
        detail: String,
    },
    /// The file exists but holds no content (zero bytes or only
    /// whitespace) — typically a botched shell redirect.
    Empty {
        /// The empty file.
        path: PathBuf,
    },
    /// The file holds text that is not valid JSON (truncated write,
    /// merge conflict markers, etc.).
    Unparseable {
        /// The unparseable file.
        path: PathBuf,
        /// Parser diagnosis.
        detail: String,
    },
    /// The file parses but is not a benchmark document: not a JSON
    /// object, or an object with no members (a partial artifact that
    /// cannot gate anything).
    Partial {
        /// The partial file.
        path: PathBuf,
        /// What shape was found instead.
        detail: String,
    },
}

impl BaselineError {
    /// The offending path.
    #[must_use]
    pub fn path(&self) -> &Path {
        match self {
            BaselineError::Missing { path, .. }
            | BaselineError::Empty { path }
            | BaselineError::Unparseable { path, .. }
            | BaselineError::Partial { path, .. } => path,
        }
    }
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::Missing { path, detail } => write!(
                f,
                "baseline artifact {} is missing ({detail}); if this benchmark is new, \
generate and commit its baseline (see EXPERIMENTS.md), otherwise restore the file",
                path.display()
            ),
            BaselineError::Empty { path } => write!(
                f,
                "baseline artifact {} is empty — likely a botched redirect; regenerate the \
artifact and commit it",
                path.display()
            ),
            BaselineError::Unparseable { path, detail } => write!(
                f,
                "baseline artifact {} is not valid JSON ({detail}) — truncated write or \
merge damage; regenerate the artifact and commit it",
                path.display()
            ),
            BaselineError::Partial { path, detail } => write!(
                f,
                "baseline artifact {} parses but is not a benchmark document ({detail}); \
regenerate the artifact and commit it",
                path.display()
            ),
        }
    }
}

impl std::error::Error for BaselineError {}

/// Loads and shape-checks one baseline artifact.
///
/// # Errors
///
/// A [`BaselineError`] classifying exactly what is wrong with the file;
/// never panics on file contents.
pub fn load_artifact(path: impl AsRef<Path>) -> Result<JsonValue, BaselineError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|e| BaselineError::Missing {
        path: path.to_path_buf(),
        detail: e.to_string(),
    })?;
    if text.trim().is_empty() {
        return Err(BaselineError::Empty {
            path: path.to_path_buf(),
        });
    }
    let doc = parse(&text).map_err(|e| BaselineError::Unparseable {
        path: path.to_path_buf(),
        detail: e.to_string(),
    })?;
    match &doc {
        JsonValue::Obj(members) if !members.is_empty() => Ok(doc),
        JsonValue::Obj(_) => Err(BaselineError::Partial {
            path: path.to_path_buf(),
            detail: "top-level object has no members".to_string(),
        }),
        other => Err(BaselineError::Partial {
            path: path.to_path_buf(),
            detail: format!("top-level value is {}", kind_name(other)),
        }),
    }
}

fn kind_name(v: &JsonValue) -> &'static str {
    match v {
        JsonValue::Obj(_) => "an object",
        JsonValue::Arr(_) => "an array",
        JsonValue::Str(_) => "a string",
        JsonValue::Num(_) => "a number",
        JsonValue::Bool(_) => "a bool",
        JsonValue::Null => "null",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dsagen-artifact-{}-{name}", std::process::id()))
    }

    #[test]
    fn missing_baseline_is_typed_and_actionable() {
        let path = tmp("definitely-not-there.json");
        let err = load_artifact(&path).expect_err("missing file must not load");
        assert!(matches!(err, BaselineError::Missing { .. }));
        let msg = err.to_string();
        assert!(msg.contains("missing"), "{msg}");
        assert!(
            msg.contains("generate and commit"),
            "message must say what to do: {msg}"
        );
        assert_eq!(err.path(), path.as_path());
    }

    #[test]
    fn empty_and_partial_baselines_are_typed() {
        // Zero bytes.
        let empty = tmp("empty.json");
        std::fs::write(&empty, "").unwrap();
        assert!(matches!(
            load_artifact(&empty),
            Err(BaselineError::Empty { .. })
        ));
        // Whitespace only is still empty.
        std::fs::write(&empty, "  \n\t ").unwrap();
        assert!(matches!(
            load_artifact(&empty),
            Err(BaselineError::Empty { .. })
        ));
        // Truncated JSON (a partial write).
        let cut = tmp("truncated.json");
        std::fs::write(&cut, "{\"schema\": 2, \"payload\": {\"runs\": [").unwrap();
        let err = load_artifact(&cut).expect_err("truncated JSON must not load");
        assert!(matches!(err, BaselineError::Unparseable { .. }), "{err:?}");
        assert!(err.to_string().contains("regenerate"), "{err}");
        // Parses, but not a benchmark document.
        let bare = tmp("bare.json");
        std::fs::write(&bare, "[1, 2, 3]").unwrap();
        let err = load_artifact(&bare).expect_err("non-object must not load");
        assert!(matches!(err, BaselineError::Partial { .. }), "{err:?}");
        assert!(err.to_string().contains("an array"), "{err}");
        // Empty object: partial.
        std::fs::write(&bare, "{}").unwrap();
        assert!(matches!(
            load_artifact(&bare),
            Err(BaselineError::Partial { .. })
        ));
        for p in [empty, cut, bare] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn well_formed_baseline_loads() {
        let ok = tmp("ok.json");
        std::fs::write(&ok, "{\"bench\": \"soak\", \"payload\": {}}").unwrap();
        let doc = load_artifact(&ok).expect("well-formed artifact loads");
        assert!(doc.get("bench").is_some());
        let _ = std::fs::remove_file(ok);
    }
}
