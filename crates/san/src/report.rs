//! Findings, the machine-readable sanitizer report, and its JSON codec.
//!
//! Same codec discipline as `cilkm-lint`'s `lint_report.json`: the
//! report CI archives must be **diffable**, so findings are
//! stable-sorted by (detector, site, message), duplicates are collapsed
//! at record time, and serialization is deterministic (same findings ⇒
//! byte-identical JSON). Messages never embed raw addresses — a racy
//! pair is identified by its facade-site label and thread ids, which
//! are stable across runs of a deterministic repro, while heap
//! addresses are not.

use std::fmt::Write as _;

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
                json_string(f.detector.name()),
                json_string(&f.site),
                json_string(&f.message),
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
        // The report grammar is flat enough for a line-free scan: pull
        // the "findings" array and read each object's three string
        // fields. A tiny recursive parser would also do, but the only
        // consumer is the summarizer bin and the round-trip test.
        let mut p = Parser {
            bytes: src.as_bytes(),
            pos: 0,
        };
        p.seek_key("findings")?;
        p.expect(b'[')?;
        let mut findings = Vec::new();
        loop {
            match p.peek() {
                Some(b']') => break,
                Some(b'{') => {
                    p.pos += 1;
                    let mut detector = None;
                    let mut site = None;
                    let mut message = None;
                    loop {
                        let key = p.string()?;
                        p.expect(b':')?;
                        let value = p.string()?;
                        match key.as_str() {
                            "detector" => {
                                detector = Some(
                                    Detector::from_name(&value)
                                        .ok_or_else(|| format!("unknown detector {value:?}"))?,
                                )
                            }
                            "site" => site = Some(value),
                            "message" => message = Some(value),
                            other => return Err(format!("unknown finding key {other:?}")),
                        }
                        match p.peek() {
                            Some(b',') => p.pos += 1,
                            Some(b'}') => {
                                p.pos += 1;
                                break;
                            }
                            other => return Err(format!("expected , or }} but found {other:?}")),
                        }
                    }
                    findings.push(Finding {
                        detector: detector.ok_or("finding missing \"detector\"")?,
                        site: site.ok_or("finding missing \"site\"")?,
                        message: message.ok_or("finding missing \"message\"")?,
                    });
                    if p.peek() == Some(b',') {
                        p.pos += 1;
                    }
                }
                other => return Err(format!("expected {{ or ] but found {other:?}")),
            }
        }
        Ok(Report { findings })
    }
}

/// Escapes `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The minimal scanner behind [`Report::from_json`].
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&mut self) -> Option<u8> {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    /// Advances to just past `"key":` at any nesting depth (keys are
    /// unique in the report grammar).
    fn seek_key(&mut self, key: &str) -> Result<(), String> {
        let needle = format!("\"{key}\"");
        let hay = std::str::from_utf8(self.bytes).map_err(|_| "report is not UTF-8")?;
        let at = hay.find(&needle).ok_or(format!("missing {needle}"))?;
        self.pos = at + needle.len();
        self.expect(b':')
    }

    /// Parses one JSON string literal (the escapes `to_json` emits).
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid UTF-8 in string")?;
                    let c = s.chars().next().ok_or("empty string tail")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
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
