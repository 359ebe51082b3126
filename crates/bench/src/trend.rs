//! Perf-trajectory trend checking: compare two generations of the
//! stable-schema `bench_out` artifacts and flag regressions.
//!
//! The repo commits machine-readable benchmark results —
//! `BENCH_<bin>.json` perf-trajectory points plus the model checker's
//! `exploration_stats.json` — precisely so that perf changes show up in
//! review as a diff. This module is the gating half: [`extract`] reduces
//! any of the three committed document shapes to flat `(key, value)`
//! metrics, and [`compare`] flags every metric that got *worse* than the
//! baseline beyond a tolerance. The `cilkm-trend` bin wires it into CI.
//!
//! Document shapes (all `schema_version` 1):
//!
//! * **results array** (`BENCH_lookup.json`, `BENCH_comparison.json`…):
//!   `{"results": [{"name": …, "median_ns": …}, …]}` — one metric per
//!   entry, keyed `<name>/median_ns`, lower is better;
//! * **flat document** (`BENCH_transferal.json`…): top-level
//!   `"key": number` pairs — time-like keys (`*_ns`, `*_pct`,
//!   `crossings_per_steal`) become metrics, lower is better; `gate_*`
//!   configuration knobs and workload descriptors are ignored;
//! * **exploration runs** (`exploration_stats.json`):
//!   `{"runs": [{"test": …, "engine": …, "verdict": …}, …]}` — the
//!   verdict becomes a 0/1 metric so a `pass` → `fail` flip is flagged
//!   at any tolerance.
//!
//! Parsing is the same line-oriented scanner the writers of these files
//! use (`cilkm-checker::stats`, the criterion shim): each entry is one
//! line, each flat field one line — not a general JSON parser, and it
//! does not need to be, because both sides of every comparison are our
//! own serializers' output.

use std::collections::BTreeMap;

/// One comparable number extracted from an artifact.
pub type Metrics = BTreeMap<String, f64>;

/// One flagged regression.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// Metric key (`<result name>/median_ns`, `transferal_wall_p99_ns`,
    /// `pbfs::determinism@dpor/verdict`, …).
    pub key: String,
    /// Baseline (committed) value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// The tolerance (percent) this metric was allowed to grow by.
    pub tolerance_pct: f64,
}

impl Regression {
    /// Relative growth in percent.
    pub fn growth_pct(&self) -> f64 {
        if self.baseline == 0.0 {
            f64::INFINITY
        } else {
            (self.current - self.baseline) / self.baseline * 100.0
        }
    }
}

/// Extracts `"key":` followed by a string or bare scalar from a one-line
/// JSON object (the format all our artifact writers emit).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = line[start..].trim_start();
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped.split('"').next()
    } else {
        rest.split([',', '}']).next().map(str::trim)
    }
}

/// True for flat-document keys that measure cost (lower is better), as
/// opposed to configuration knobs and workload descriptors.
fn is_cost_key(key: &str) -> bool {
    if key.starts_with("gate_") || key == "schema_version" {
        return false;
    }
    key.ends_with("_ns") || key.ends_with("_pct") || key == "crossings_per_steal"
}

/// Reduces one artifact document to flat comparable metrics. `name` is
/// only used in diagnostics; shape is sniffed from the content.
pub fn extract(text: &str) -> Metrics {
    let mut out = Metrics::new();
    if text.contains("\"results\":") {
        for line in text.lines() {
            let line = line.trim().trim_end_matches(',');
            if !line.starts_with("{\"name\":") {
                continue;
            }
            if let (Some(name), Some(median)) = (field(line, "name"), field(line, "median_ns")) {
                if let Ok(v) = median.parse::<f64>() {
                    out.insert(format!("{name}/median_ns"), v);
                }
            }
        }
    } else if text.contains("\"runs\":") {
        for line in text.lines() {
            let line = line.trim().trim_end_matches(',');
            if !line.starts_with("{\"test\":") {
                continue;
            }
            if let (Some(test), Some(engine), Some(verdict)) = (
                field(line, "test"),
                field(line, "engine"),
                field(line, "verdict"),
            ) {
                let v = if verdict == "pass" { 0.0 } else { 1.0 };
                out.insert(format!("{test}@{engine}/verdict"), v);
                // Schedule coverage rides along as a higher-is-better
                // metric: a big drop means the exploration got pruned
                // down (a dependence-relation bug can silently shrink
                // the searched space while every verdict stays green).
                if let Some(v) = field(line, "schedules").and_then(|v| v.parse::<f64>().ok()) {
                    out.insert(format!("{test}@{engine}/schedules"), v);
                }
            }
        }
    } else {
        for line in text.lines() {
            let line = line.trim().trim_end_matches(',');
            let Some(rest) = line.strip_prefix('"') else {
                continue;
            };
            let Some((key, _)) = rest.split_once('"') else {
                continue;
            };
            if !is_cost_key(key) {
                continue;
            }
            if let Some(v) = field(line, key).and_then(|v| v.parse::<f64>().ok()) {
                out.insert(key.to_string(), v);
            }
        }
    }
    out
}

/// Compares current metrics against a baseline. A metric regresses when
/// it *grows* past `tolerance_pct` percent of the baseline (almost all
/// our metrics are lower-is-better); verdict metrics (0 = pass) use zero
/// tolerance so any new failure is flagged, and `/schedules` coverage
/// metrics invert — they regress when the explored-schedule count
/// *shrinks* by more than the tolerance. Metrics present on only one
/// side are reported through `missing` (benchmarks legitimately come and
/// go across commits; that is a review concern, not a gate failure).
pub fn compare(
    baseline: &Metrics,
    current: &Metrics,
    tolerance_pct: f64,
    missing: &mut Vec<String>,
) -> Vec<Regression> {
    let mut out = Vec::new();
    for (key, &base) in baseline {
        let Some(&cur) = current.get(key) else {
            missing.push(key.clone());
            continue;
        };
        let tol = if key.ends_with("/verdict") {
            0.0
        } else {
            tolerance_pct
        };
        let worse = if key.ends_with("/schedules") {
            cur < base * (1.0 - tol / 100.0) - f64::EPSILON
        } else {
            cur > base * (1.0 + tol / 100.0) + f64::EPSILON
        };
        if worse {
            out.push(Regression {
                key: key.clone(),
                baseline: base,
                current: cur,
                tolerance_pct: tol,
            });
        }
    }
    out
}

/// Renders regressions as a report block (empty string when clean).
pub fn render(file: &str, regressions: &[Regression]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for r in regressions {
        let _ = writeln!(
            s,
            "REGRESSION {file}: {} {:.2} -> {:.2} ({:+.1}%, tolerance {:.0}%)",
            r.key,
            r.baseline,
            r.current,
            r.growth_pct(),
            r.tolerance_pct
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const RESULTS_DOC: &str = r#"{
  "schema_version": 1,
  "bench": "lookup",
  "results": [
    {"name": "lookup/memory-mapped", "samples": 20, "iters_per_sample": 1000, "min_ns": 2.61, "median_ns": 2.73, "mean_ns": 2.75, "max_ns": 2.94},
    {"name": "lookup/hypermap", "samples": 20, "iters_per_sample": 1000, "min_ns": 4.36, "median_ns": 4.67, "mean_ns": 4.74, "max_ns": 5.51}
  ]
}
"#;

    const FLAT_DOC: &str = r#"{
  "schema_version": 1,
  "bench": "transferal_p99",
  "workers": 8,
  "steals": 665,
  "transferal_wall_p99_ns": 28672,
  "crossings_per_steal": 0.408,
  "lookup_ns": 2.587,
  "gate_p99_max_ns": 4000000
}
"#;

    const RUNS_DOC: &str = r#"{
  "schema_version": 1,
  "runs": [
    {"test":"obs::ring","engine":"dpor","verdict":"pass","complete":true,"schedules":24,"pruned":3,"dependence_classes":4,"max_depth":40},
    {"test":"tlmm::pmap","engine":"pct","verdict":"pass","complete":false,"schedules":64,"pruned":0,"dependence_classes":7,"max_depth":91}
  ]
}
"#;

    #[test]
    fn results_docs_extract_per_name_medians() {
        let m = extract(RESULTS_DOC);
        assert_eq!(m.len(), 2);
        assert_eq!(m["lookup/memory-mapped/median_ns"], 2.73);
        assert_eq!(m["lookup/hypermap/median_ns"], 4.67);
    }

    #[test]
    fn flat_docs_extract_cost_keys_only() {
        let m = extract(FLAT_DOC);
        // Time-like keys in; config (`gate_*`, `schema_version`) and
        // workload descriptors (`workers`, `steals`) out.
        assert_eq!(m.len(), 3);
        assert_eq!(m["transferal_wall_p99_ns"], 28672.0);
        assert_eq!(m["crossings_per_steal"], 0.408);
        assert_eq!(m["lookup_ns"], 2.587);
    }

    #[test]
    fn exploration_runs_extract_verdicts_and_schedule_coverage() {
        let m = extract(RUNS_DOC);
        assert_eq!(m.len(), 4);
        assert_eq!(m["obs::ring@dpor/verdict"], 0.0);
        assert_eq!(m["obs::ring@dpor/schedules"], 24.0);
        assert_eq!(m["tlmm::pmap@pct/schedules"], 64.0);
    }

    #[test]
    fn schedule_coverage_shrink_is_flagged_growth_is_not() {
        let base = extract(RUNS_DOC);
        // Coverage collapse (24 -> 6 schedules, -75%): flagged at 25%
        // tolerance, tolerated at 80%.
        let cur = extract(&RUNS_DOC.replace("\"schedules\":24", "\"schedules\":6"));
        let mut missing = Vec::new();
        let regs = compare(&base, &cur, 25.0, &mut missing);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].key, "obs::ring@dpor/schedules");
        assert!((regs[0].growth_pct() + 75.0).abs() < 0.1);
        assert!(compare(&base, &cur, 80.0, &mut missing).is_empty());
        // Exploring *more* schedules is never a regression.
        let grown = extract(&RUNS_DOC.replace("\"schedules\":24", "\"schedules\":240"));
        assert!(compare(&base, &grown, 0.0, &mut missing).is_empty());
    }

    #[test]
    fn identical_history_is_clean() {
        for doc in [RESULTS_DOC, FLAT_DOC, RUNS_DOC] {
            let m = extract(doc);
            let mut missing = Vec::new();
            assert!(compare(&m, &m, 0.0, &mut missing).is_empty());
            assert!(missing.is_empty());
        }
    }

    #[test]
    fn synthetic_regression_is_flagged_and_tolerance_respected() {
        let base = extract(RESULTS_DOC);
        let cur = extract(&RESULTS_DOC.replace("\"median_ns\": 4.67", "\"median_ns\": 9.34"));
        let mut missing = Vec::new();
        // 100% growth: flagged at 50% tolerance…
        let regs = compare(&base, &cur, 50.0, &mut missing);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].key, "lookup/hypermap/median_ns");
        assert!((regs[0].growth_pct() - 100.0).abs() < 0.1);
        // …tolerated at 150%.
        assert!(compare(&base, &cur, 150.0, &mut missing).is_empty());
    }

    #[test]
    fn improvements_never_flag() {
        let base = extract(FLAT_DOC);
        let cur = extract(&FLAT_DOC.replace("28672", "100"));
        let mut missing = Vec::new();
        assert!(compare(&base, &cur, 0.0, &mut missing).is_empty());
    }

    #[test]
    fn verdict_flip_is_flagged_at_any_tolerance() {
        let base = extract(RUNS_DOC);
        let cur = extract(&RUNS_DOC.replacen("\"verdict\":\"pass\"", "\"verdict\":\"fail\"", 1));
        let mut missing = Vec::new();
        let regs = compare(&base, &cur, 1_000_000.0, &mut missing);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].key.ends_with("/verdict"));
    }

    #[test]
    fn removed_metrics_report_as_missing_not_regressions() {
        let base = extract(RESULTS_DOC);
        let mut cur = base.clone();
        cur.remove("lookup/hypermap/median_ns");
        let mut missing = Vec::new();
        assert!(compare(&base, &cur, 10.0, &mut missing).is_empty());
        assert_eq!(missing, vec!["lookup/hypermap/median_ns".to_string()]);
    }

    #[test]
    fn render_formats_growth() {
        let r = Regression {
            key: "x_ns".into(),
            baseline: 10.0,
            current: 20.0,
            tolerance_pct: 25.0,
        };
        let s = render("BENCH_x.json", &[r]);
        assert!(s.contains("REGRESSION BENCH_x.json: x_ns 10.00 -> 20.00 (+100.0%, tolerance 25%)"));
    }
}
