//! Shared machine-readable benchmark reports (`BENCH_*.json`).
//!
//! [`Report`] renders a flat JSON object in field order (hand-rolled on
//! purpose — the workspace has no networked dependencies) and
//! [`Report::write`] persists it. Every field is a pure function of the
//! code: no wall-clock time, core count or worker count goes into an
//! artifact, so each file regenerates byte-identically and CI gates it
//! with `git diff --exit-code`. Timings belong to the repository
//! benchmark (`perfbench/`).

use std::fmt::Write as _;

/// Renders a list of pre-rendered JSON objects as a nested array value
/// (`[]` when empty), matching the report's 2-space top-level indent.
#[must_use]
pub fn object_array(items: &[String]) -> Json {
    if items.is_empty() {
        Json::Raw("[]".into())
    } else {
        let body: Vec<String> = items.iter().map(|i| format!("    {i}")).collect();
        Json::Raw(format!("[\n{}\n  ]", body.join(",\n")))
    }
}

/// Renders `(key, rendered value)` pairs as a nested JSON object value,
/// matching the report's 2-space top-level indent.
#[must_use]
pub fn nested_object<K: std::fmt::Display, V: std::fmt::Display>(pairs: &[(K, V)]) -> Json {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("    \"{k}\": {v}"))
        .collect();
    Json::Raw(format!("{{\n{}\n  }}", body.join(",\n")))
}

/// One rendered JSON value.
#[derive(Debug, Clone)]
pub enum Json {
    /// Unsigned integer.
    U(u64),
    /// Float with fixed decimals.
    F(f64, usize),
    /// Boolean.
    B(bool),
    /// String (quoted, must not need escaping).
    S(String),
    /// Pre-rendered JSON spliced verbatim (arrays, nested objects).
    Raw(String),
}

impl Json {
    fn render(&self) -> String {
        match self {
            Json::U(v) => v.to_string(),
            Json::F(v, p) => format!("{v:.p$}", p = p),
            Json::B(v) => v.to_string(),
            Json::S(s) => {
                assert!(
                    !s.contains(['"', '\\', '\n']),
                    "string field needs no escaping by construction: {s:?}"
                );
                format!("\"{s}\"")
            }
            Json::Raw(r) => r.clone(),
        }
    }
}

/// A flat JSON report whose fields render in insertion order.
#[derive(Default)]
pub struct Report {
    fields: Vec<(&'static str, Json)>,
}

impl Report {
    /// An empty report.
    #[must_use]
    pub fn new() -> Report {
        Report::default()
    }

    /// Appends a field.
    #[must_use]
    pub fn field(mut self, key: &'static str, value: Json) -> Report {
        self.fields.push((key, value));
        self
    }

    /// Renders the whole artifact.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(key, value)| format!("  \"{key}\": {}", value.render()))
            .collect();
        let _ = write!(out, "{}", body.join(",\n"));
        out.push_str("\n}\n");
        out
    }

    /// Writes the artifact to `path` (and notes it on stderr).
    ///
    /// # Panics
    /// Panics when the path is not writable — bench artifacts are always
    /// produced in a writable checkout.
    pub fn write(&self, path: &str) {
        std::fs::write(path, self.render()).unwrap_or_else(|e| panic!("{path} not writable: {e}"));
        eprintln!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_array_and_nested_object_render_report_indented() {
        assert_eq!(object_array(&[]).render(), "[]");
        let arr = object_array(&["{\"a\": 1}".to_owned(), "{\"b\": 2}".to_owned()]);
        assert_eq!(arr.render(), "[\n    {\"a\": 1},\n    {\"b\": 2}\n  ]");
        let obj = nested_object(&[("x", 1), ("y", 2)]);
        assert_eq!(obj.render(), "{\n    \"x\": 1,\n    \"y\": 2\n  }");
    }

    #[test]
    fn renders_flat_deterministic_json() {
        let report = Report::new()
            .field("bench", Json::S("x".into()))
            .field("count", Json::U(60))
            .field("ratio", Json::F(12.3456, 3))
            .field("complete", Json::B(true))
            .field("by_kind", Json::Raw("{\n    \"A\": 1\n  }".into()));
        assert_eq!(
            report.render(),
            "{\n  \"bench\": \"x\",\n  \"count\": 60,\n  \"ratio\": 12.346,\n  \"complete\": true,\n  \"by_kind\": {\n    \"A\": 1\n  }\n}\n"
        );
    }
}
