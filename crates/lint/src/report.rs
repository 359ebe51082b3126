//! Findings, the machine-readable report, and its JSON codec.
//!
//! The JSON report is what CI archives next to the bench CSVs, so it
//! must be **diffable**: findings are stable-sorted by (file, line,
//! rule, message) and serialization is deterministic (same report ⇒
//! byte-identical JSON). The layout is this file's; strings are quoted
//! and parsed by `cilkm-base`'s codec, so tests can prove the emitted
//! JSON round-trips.

use std::fmt::Write as _;

use cilkm_base::{parse, quote, Value};

/// The six rule families (see DESIGN.md §12).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Facade integrity: raw `std::sync::atomic` / `Mutex` / `Condvar` /
    /// `thread::park` outside the `msync` facade.
    RawSync,
    /// Fast-path purity: allocation, formatting, or panicking indexing
    /// inside a `// lint: hot-path` function.
    HotPath,
    /// `cfg(feature = ...)` hygiene: undeclared or inconsistent feature
    /// names.
    CfgFeature,
    /// Unsafe contracts: missing `// SAFETY:` rationale or a stale
    /// `UNSAFE_LEDGER.md`.
    UnsafeLedger,
    /// Model-test coverage hygiene: `#[ignore]`d or
    /// `preemptions: Some(_)`-bounded model tests without a waiver.
    BoundedModel,
    /// Sanitizer-hook coverage: an op in an `msync.rs` facade of a
    /// `sanitize`-capable crate that never invokes a `cilkm_san` hook.
    SanHook,
}

impl Rule {
    /// The stable kebab-case name used in waivers, JSON, and docs.
    pub fn name(self) -> &'static str {
        match self {
            Rule::RawSync => "raw-sync",
            Rule::HotPath => "hot-path",
            Rule::CfgFeature => "cfg-feature",
            Rule::UnsafeLedger => "unsafe-ledger",
            Rule::BoundedModel => "bounded-model",
            Rule::SanHook => "san-hook-coverage",
        }
    }

    /// Parses a rule name as written in a waiver.
    pub fn from_name(name: &str) -> Option<Rule> {
        match name {
            "raw-sync" => Some(Rule::RawSync),
            "hot-path" => Some(Rule::HotPath),
            "cfg-feature" => Some(Rule::CfgFeature),
            "unsafe-ledger" => Some(Rule::UnsafeLedger),
            "bounded-model" => Some(Rule::BoundedModel),
            "san-hook-coverage" => Some(Rule::SanHook),
            _ => None,
        }
    }

    /// All rules, in report order.
    pub const ALL: [Rule; 6] = [
        Rule::RawSync,
        Rule::HotPath,
        Rule::CfgFeature,
        Rule::UnsafeLedger,
        Rule::BoundedModel,
        Rule::SanHook,
    ];
}

/// One finding: a rule violation at a source location. Waived findings
/// are kept in the report (so the waiver inventory is auditable) but do
/// not fail the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// `Some(reason)` when a `// lint: allow(...)` waiver covers this
    /// finding.
    pub waived: Option<String>,
}

/// A full lint run: every finding plus per-rule totals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Report {
    /// All findings, stable-sorted (see [`Report::sort`]).
    pub findings: Vec<Finding>,
}

impl Report {
    /// Stable order for diffable output: file, then line, then rule,
    /// then message.
    pub fn sort(&mut self) {
        self.findings.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
                b.file.as_str(),
                b.line,
                b.rule,
                b.message.as_str(),
            ))
        });
    }

    /// Findings not covered by a waiver — the ones that fail CI.
    pub fn unwaived(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.waived.is_none())
    }

    /// Count of unwaived findings for one rule.
    pub fn count(&self, rule: Rule) -> usize {
        self.unwaived().filter(|f| f.rule == rule).count()
    }

    /// Serializes the report as deterministic, pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"version\": 1,\n  \"summary\": {");
        for (i, rule) in Rule::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\n    \"{}\": {}", rule.name(), self.count(*rule));
        }
        let _ = write!(
            s,
            "\n  }},\n  \"waived\": {},\n  \"findings\": [",
            self.findings.len() - self.unwaived().count()
        );
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"waived\": {}}}",
                quote(f.rule.name()),
                quote(&f.file),
                f.line,
                quote(&f.message),
                match &f.waived {
                    None => "null".to_string(),
                    Some(r) => quote(r),
                }
            );
        }
        if !self.findings.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }

    /// Parses a report previously produced by [`Report::to_json`].
    /// Tolerates any whitespace; rejects anything structurally off.
    pub fn from_json(src: &str) -> Result<Report, String> {
        let value = parse(src)?;
        let arr = value
            .get("findings")
            .ok_or("missing \"findings\"")?
            .as_array()
            .ok_or("\"findings\" is not an array")?;
        let mut findings = Vec::new();
        for f in arr {
            let string = |key: &str| {
                f.get(key)
                    .and_then(Value::as_str)
                    .ok_or(format!("finding missing \"{key}\""))
            };
            let rule_name = string("rule")?;
            findings.push(Finding {
                rule: Rule::from_name(rule_name)
                    .ok_or_else(|| format!("unknown rule {rule_name:?}"))?,
                file: string("file")?.to_string(),
                line: f
                    .get("line")
                    .and_then(Value::as_u64)
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or("finding missing \"line\"")?,
                message: string("message")?.to_string(),
                waived: match f.get("waived") {
                    None => return Err("finding missing \"waived\"".into()),
                    Some(Value::Null) => None,
                    Some(v) => Some(
                        v.as_str()
                            .ok_or("\"waived\" is neither null nor a string")?
                            .to_string(),
                    ),
                },
            });
        }
        Ok(Report { findings })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report {
            findings: vec![
                Finding {
                    rule: Rule::CfgFeature,
                    file: "crates/x/src/lib.rs".into(),
                    line: 9,
                    message: "feature \"trce\" is not declared in crates/x/Cargo.toml".into(),
                    waived: None,
                },
                Finding {
                    rule: Rule::RawSync,
                    file: "crates/a/src/lib.rs".into(),
                    line: 3,
                    message: "raw `std::sync::atomic` outside the msync facade".into(),
                    waived: Some("monitoring counters\twith a tab".into()),
                },
            ],
        };
        r.sort();
        r
    }

    #[test]
    fn json_round_trips() {
        let r = sample();
        let json = r.to_json();
        let back = Report::from_json(&json).unwrap();
        assert_eq!(back, r);
        // Idempotent: re-serializing the parsed report is byte-identical.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn sort_is_stable_by_file_then_line() {
        let r = sample();
        assert_eq!(r.findings[0].file, "crates/a/src/lib.rs");
        assert_eq!(r.findings[1].file, "crates/x/src/lib.rs");
    }

    #[test]
    fn summary_counts_only_unwaived() {
        let r = sample();
        assert_eq!(r.count(Rule::RawSync), 0, "waived finding must not count");
        assert_eq!(r.count(Rule::CfgFeature), 1);
        assert!(r.to_json().contains("\"waived\": 1"));
    }
}
