//! Findings, the machine-readable sanitizer report, and its JSON codec.
//!
//! The JSON codec is `cilkm-base`'s. The report CI archives must be
//! **diffable**, so findings are stable-sorted by (detector, site,
//! message), duplicates are collapsed at record time, and serialization
//! is deterministic (same findings ⇒ byte-identical JSON). Messages never embed raw addresses — a racy
//! pair is identified by its facade-site label and thread ids, which
//! are stable across runs of a deterministic repro, while heap
//! addresses are not.

use std::fmt::Write as _;

use cilkm_base::{parse, quote, Value};

/// The three detector families (see DESIGN.md §17).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Detector {
    /// FastTrack-style happens-before data race on a traced plain
    /// location.
    Race,
    /// SP (series-parallel) determinacy race: two logically-parallel
    /// strands touched a reducer-contract location without a view.
    DeterminacyRace,
    /// Lock-acquisition-order inversion (potential AB/BA deadlock).
    LockOrder,
}

impl Detector {
    /// The stable kebab-case name used in JSON and docs.
    pub fn name(self) -> &'static str {
        match self {
            Detector::Race => "race",
            Detector::DeterminacyRace => "determinacy-race",
            Detector::LockOrder => "lock-order",
        }
    }

    /// Parses a detector name as written in the JSON report.
    pub fn from_name(name: &str) -> Option<Detector> {
        match name {
            "race" => Some(Detector::Race),
            "determinacy-race" => Some(Detector::DeterminacyRace),
            "lock-order" => Some(Detector::LockOrder),
            _ => None,
        }
    }

    /// All detectors, in report order.
    pub const ALL: [Detector; 3] = [
        Detector::Race,
        Detector::DeterminacyRace,
        Detector::LockOrder,
    ];
}

/// One finding: a detector firing at an instrumented site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Which detector fired.
    pub detector: Detector,
    /// The facade-site label of the instrumented location (e.g.
    /// `"SpaMap"`, `"Mutex"`, or a test-provided label).
    pub site: String,
    /// Human-readable description, including thread ids.
    pub message: String,
}

/// A full sanitizer run: every deduplicated finding plus per-detector
/// totals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Report {
    /// All findings, stable-sorted (see [`Report::sort`]).
    pub findings: Vec<Finding>,
}

impl Report {
    /// Stable order for diffable output: detector, then site, then
    /// message.
    pub fn sort(&mut self) {
        self.findings.sort_by(|a, b| {
            (a.detector, a.site.as_str(), a.message.as_str()).cmp(&(
                b.detector,
                b.site.as_str(),
                b.message.as_str(),
            ))
        });
    }

    /// Count of findings for one detector.
    pub fn count(&self, detector: Detector) -> usize {
        self.findings
            .iter()
            .filter(|f| f.detector == detector)
            .count()
    }

    /// Serializes the report as deterministic, pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"version\": 1,\n  \"summary\": {");
        for (i, d) in Detector::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\n    \"{}\": {}", d.name(), self.count(*d));
        }
        s.push_str("\n  },\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\"detector\": {}, \"site\": {}, \"message\": {}}}",
                quote(f.detector.name()),
                quote(&f.site),
                quote(&f.message),
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
            let name = string("detector")?;
            findings.push(Finding {
                detector: Detector::from_name(name)
                    .ok_or_else(|| format!("unknown detector {name:?}"))?,
                site: string("site")?.to_string(),
                message: string("message")?.to_string(),
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
                    detector: Detector::LockOrder,
                    site: "Mutex".into(),
                    message: "acquisition-order inversion: thread t2".into(),
                },
                Finding {
                    detector: Detector::Race,
                    site: "SpaMap".into(),
                    message: "write-write race between threads t1 and t3".into(),
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
    fn sort_orders_by_detector_then_site() {
        let r = sample();
        assert_eq!(r.findings[0].detector, Detector::Race);
        assert_eq!(r.findings[1].detector, Detector::LockOrder);
    }

    #[test]
    fn empty_report_is_stable() {
        let r = Report::default();
        let json = r.to_json();
        assert!(json.contains("\"race\": 0"));
        assert_eq!(Report::from_json(&json).unwrap(), r);
    }
}
