//! Minimal JSON-lines emission for experiment rows.
//!
//! The workspace builds offline (no serde); this is the same hand-rolled
//! JSON-lines shape the vendored criterion shim writes, so the nightly
//! `all_experiments --json` artifact and the committed `BENCH_*.json`
//! baselines can be post-processed by the same tooling. Every record is
//! one object per line; strings are escaped, floats are emitted with
//! three decimals, and absent values are `null`.

use smpx_core::obs::escape_json;
use std::io::Write as _;

/// One JSON value in a record.
#[derive(Debug, Clone)]
pub enum Value {
    /// A string field.
    S(String),
    /// An unsigned integer field.
    U(u64),
    /// A float field (emitted with three decimals).
    F(f64),
    /// A boolean field.
    B(bool),
    /// An explicit `null`.
    Null,
}

impl Value {
    fn render(&self) -> String {
        match self {
            Value::S(s) => format!("\"{}\"", escape_json(s)),
            Value::U(n) => n.to_string(),
            Value::F(f) if f.is_finite() => format!("{f:.3}"),
            Value::F(_) => "null".to_string(),
            Value::B(b) => b.to_string(),
            Value::Null => "null".to_string(),
        }
    }
}

/// Collects records and appends them to the `--json <path>` target, if
/// one was given on the command line (same flag shape as the criterion
/// shim: `--json out.json` or `--json=out.json`).
pub struct JsonSink {
    path: Option<String>,
    lines: Vec<String>,
}

impl JsonSink {
    /// Parse `--json` from the process arguments.
    pub fn from_args() -> JsonSink {
        let mut path = None;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            if a == "--json" {
                path = args.next();
            } else if let Some(p) = a.strip_prefix("--json=") {
                path = Some(p.to_string());
            }
        }
        JsonSink { path, lines: Vec::new() }
    }

    /// A sink writing to an explicit target: a file path, or `-` for
    /// stderr (stdout stays reserved for document payloads — the CLI's
    /// `--stats-json` twin of the human `--stats` table routes here).
    pub fn to_path(path: impl Into<String>) -> JsonSink {
        JsonSink { path: Some(path.into()), lines: Vec::new() }
    }

    /// Is a sink path configured?
    pub fn enabled(&self) -> bool {
        self.path.is_some()
    }

    /// Record one object (insertion order is preserved).
    pub fn push(&mut self, fields: &[(&str, Value)]) {
        if self.path.is_none() {
            return;
        }
        let body: Vec<String> =
            fields.iter().map(|(k, v)| format!("\"{}\":{}", escape_json(k), v.render())).collect();
        self.lines.push(format!("{{{}}}", body.join(",")));
    }

    /// Append everything recorded so far to the target (file append, or
    /// stderr for the `-` target).
    pub fn flush(&mut self) -> std::io::Result<()> {
        let Some(path) = &self.path else { return Ok(()) };
        if self.lines.is_empty() {
            return Ok(());
        }
        if path == "-" {
            let mut e = std::io::stderr().lock();
            for line in self.lines.drain(..) {
                writeln!(e, "{line}")?;
            }
            return Ok(());
        }
        let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        for line in self.lines.drain(..) {
            writeln!(f, "{line}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_records() {
        let mut sink = JsonSink { path: Some("unused".into()), lines: Vec::new() };
        sink.push(&[
            ("table", Value::S("table1".into())),
            ("id", Value::S("XM\"1\"".into())),
            ("secs", Value::F(1.23456)),
            ("bytes", Value::U(42)),
            ("agree", Value::B(true)),
            ("missing", Value::Null),
            ("nan", Value::F(f64::NAN)),
        ]);
        assert_eq!(
            sink.lines[0],
            "{\"table\":\"table1\",\"id\":\"XM\\\"1\\\"\",\"secs\":1.235,\
             \"bytes\":42,\"agree\":true,\"missing\":null,\"nan\":null}"
        );
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut sink = JsonSink { path: None, lines: Vec::new() };
        assert!(!sink.enabled());
        sink.push(&[("k", Value::U(1))]);
        assert!(sink.lines.is_empty());
        sink.flush().unwrap();
    }
}
