//! Exploration statistics: per-run accounting and the deterministic
//! JSON report CI archives and gates with `cilkm-trend`.
//!
//! Every `try_model_with` call accumulates schedule counts, DPOR
//! pruning, the distinct dependence classes touched, and the maximum
//! execution depth. When the `CILKM_CHECK_STATS` env var names a file,
//! the run's summary is merged into it keyed by `(test, engine)`: the
//! file is read, the entry replaced, and the whole report rewritten
//! sorted, so the order of the file does not depend on test order.
//!
//! Verdicts and schedule counts are what two reports can be held to:
//! [`compare`], the gate the `cilkm-trend` bin runs, reads both with
//! `cilkm-base`'s parser (the writer quotes through its escaper, so any
//! test name round-trips). Verdicts repeat exactly, and so do DFS
//! schedule counts; a DPOR count can move by one between runs. The
//! dependence-class count keys on heap addresses, which differ from run
//! to run, so it is recorded and not compared.

use std::collections::{BTreeMap, HashSet};
use std::sync::{Mutex as OsMutex, OnceLock};

use cilkm_base::{parse, quote, Value};

use crate::exec::{ModelError, Report, RunOutcome};

/// Running totals for one `try_model_with` call.
#[derive(Default)]
pub(crate) struct Acc {
    /// Schedules executed so far.
    pub(crate) schedules: usize,
    /// DPOR: sibling subtrees skipped as redundant.
    pub(crate) pruned: usize,
    /// Distinct dependence classes seen across all executions.
    pub(crate) classes: HashSet<(u8, usize)>,
    /// Maximum visible-operation count of any single execution.
    pub(crate) max_depth: usize,
}

impl Acc {
    /// Folds one execution's outcome into the totals.
    pub(crate) fn absorb(&mut self, out: &RunOutcome) {
        for s in &out.steps {
            if let Some(c) = s.access.class(s.tid) {
                self.classes.insert(c);
            }
        }
        self.max_depth = self.max_depth.max(out.steps.len());
    }

    /// The public [`Report`] for a passing run.
    pub(crate) fn report(&self, complete: bool) -> Report {
        Report {
            schedules: self.schedules,
            complete,
            pruned: self.pruned,
            dependence_classes: self.classes.len(),
            max_depth: self.max_depth,
        }
    }
}

/// One line of the stats report.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Entry {
    verdict: String,
    complete: bool,
    schedules: usize,
    pruned: usize,
    dependence_classes: usize,
    max_depth: usize,
}

fn sink() -> &'static OsMutex<()> {
    static SINK: OnceLock<OsMutex<()>> = OnceLock::new();
    SINK.get_or_init(|| OsMutex::new(()))
}

fn entry_line(test: &str, engine: &str, e: &Entry) -> String {
    format!(
        "    {{\"test\":{},\"engine\":{},\"verdict\":{},\"complete\":{},\
         \"schedules\":{},\"pruned\":{},\"dependence_classes\":{},\"max_depth\":{}}}",
        quote(test),
        quote(engine),
        quote(&e.verdict),
        e.complete,
        e.schedules,
        e.pruned,
        e.dependence_classes,
        e.max_depth
    )
}

/// Reads a report written by [`render`]: the entries of its `"runs"`
/// array, keyed by `(test, engine)`.
fn parse_existing(src: &str) -> Result<BTreeMap<(String, String), Entry>, String> {
    let value = parse(src)?;
    let runs = value
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("no \"runs\" array")?;
    let mut map = BTreeMap::new();
    for run in runs {
        let string = |k: &str| {
            run.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(format!("an entry has no string {k:?}"))
        };
        let num = |k: &str| {
            run.get(k)
                .and_then(Value::as_u64)
                .and_then(|n| usize::try_from(n).ok())
                .ok_or(format!("an entry has no count {k:?}"))
        };
        map.insert(
            (string("test")?, string("engine")?),
            Entry {
                verdict: string("verdict")?,
                complete: run.get("complete").and_then(Value::as_bool) == Some(true),
                schedules: num("schedules")?,
                pruned: num("pruned")?,
                dependence_classes: num("dependence_classes")?,
                max_depth: num("max_depth")?,
            },
        );
    }
    Ok(map)
}

fn render(map: &BTreeMap<(String, String), Entry>) -> String {
    let mut out = String::from("{\n  \"schema_version\": 1,\n  \"runs\": [\n");
    let lines: Vec<String> = map
        .iter()
        .map(|((t, e), entry)| entry_line(t, e, entry))
        .collect();
    out.push_str(&lines.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// How far an entry's schedule count may fall below its baseline, in
/// percent, before [`compare`] calls it a regression.
const MAX_SCHEDULE_SHRINK_PCT: u128 = 25;

/// Compares the exploration-stats report `current` against `baseline`,
/// entry by `(test, engine)` entry. An entry regresses when its verdict
/// differs from the baseline's, either way (a negative control that
/// starts passing means a detector went blind), or when its schedule
/// count falls by more than 25 % (a pruning bug can shrink the searched
/// space while every verdict holds). A baseline entry missing from the
/// current report regresses too: a model test that was deleted, renamed
/// or compiled out would otherwise leave the gate without a word. An
/// entry in the current report only is a note. Returns
/// `(regressions, notes)`, one line each, or `Err` when either text is
/// not a report or holds no entry.
pub fn compare(baseline: &str, current: &str) -> Result<(Vec<String>, Vec<String>), String> {
    let read = |src: &str, side: &str| match parse_existing(src) {
        Ok(map) if map.is_empty() => Err(format!("the {side} holds no exploration-stats entry")),
        Ok(map) => Ok(map),
        Err(e) => Err(format!(
            "the {side} is not an exploration-stats report: {e}"
        )),
    };
    let (base, cur) = (
        read(baseline, "baseline")?,
        read(current, "current report")?,
    );
    let (mut regressions, mut notes) = (Vec::new(), Vec::new());
    for ((test, engine), b) in &base {
        let Some(c) = cur.get(&(test.clone(), engine.clone())) else {
            regressions.push(format!("{test}@{engine}: in the baseline only"));
            continue;
        };
        if c.verdict != b.verdict {
            regressions.push(format!(
                "{test}@{engine}: verdict {} -> {}",
                b.verdict, c.verdict
            ));
        }
        // In u128: the counts come from files, so the products must not
        // overflow whatever `usize` they hold.
        if c.schedules as u128 * 100 < b.schedules as u128 * (100 - MAX_SCHEDULE_SHRINK_PCT) {
            regressions.push(format!(
                "{test}@{engine}: schedules {} -> {}, down more than {MAX_SCHEDULE_SHRINK_PCT} %",
                b.schedules, c.schedules
            ));
        }
    }
    for (test, engine) in cur.keys().filter(|k| !base.contains_key(*k)) {
        notes.push(format!("{test}@{engine}: in the current report only"));
    }
    Ok((regressions, notes))
}

/// Records one finished model run into the `CILKM_CHECK_STATS` file (a
/// no-op when the env var is unset). Keyed by the calling thread's name,
/// which under `cargo test` is the test's path.
pub(crate) fn record(engine: &'static str, acc: &Acc, result: &Result<Report, ModelError>) {
    let Ok(path) = std::env::var("CILKM_CHECK_STATS") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let test = std::thread::current().name().unwrap_or("main").to_string();
    let entry = Entry {
        verdict: if result.is_ok() { "pass" } else { "fail" }.to_string(),
        complete: matches!(result, Ok(r) if r.complete),
        schedules: acc.schedules,
        pruned: acc.pruned,
        dependence_classes: acc.classes.len(),
        max_depth: acc.max_depth,
    };
    let _g = sink().lock().unwrap_or_else(|e| e.into_inner());
    // A missing or unreadable file starts a fresh report.
    let mut map = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| parse_existing(&s).ok())
        .unwrap_or_default();
    map.insert((test, engine.to_string()), entry);
    // Best-effort: stats must never fail a model run.
    let _ = std::fs::write(&path, render(&map));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(v: &str, n: usize) -> Entry {
        Entry {
            verdict: v.to_string(),
            complete: true,
            schedules: n,
            pruned: 1,
            dependence_classes: 2,
            max_depth: 3,
        }
    }

    #[test]
    fn render_parse_roundtrip() {
        let mut map = BTreeMap::new();
        map.insert(("b::t1".to_string(), "dpor".to_string()), entry("pass", 10));
        map.insert(("a::t2".to_string(), "dfs".to_string()), entry("fail", 7));
        // Any name survives: quotes, backslashes and control characters.
        map.insert(
            ("q\"uote\\back\tslash\n\u{1}".to_string(), "dfs".to_string()),
            entry("pass", 4),
        );
        let text = render(&map);
        let back = parse_existing(&text).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back, map);
        // Deterministic: re-render of the parse is byte-identical.
        assert_eq!(render(&back), text);
    }

    #[test]
    fn merge_replaces_same_key() {
        let mut map = BTreeMap::new();
        map.insert(("t".to_string(), "dpor".to_string()), entry("pass", 1));
        let text = render(&map);
        let mut back = parse_existing(&text).unwrap();
        back.insert(("t".to_string(), "dpor".to_string()), entry("pass", 9));
        assert_eq!(back.len(), 1);
        assert_eq!(back.values().next().unwrap().schedules, 9);
    }

    /// A protocol test that passes and a negative control that must fail.
    fn report() -> String {
        let mut map = BTreeMap::new();
        map.insert(
            ("obs::ring".to_string(), "dpor".to_string()),
            entry("pass", 24),
        );
        map.insert(
            ("abba_deadlock_detected".to_string(), "dfs".to_string()),
            entry("fail", 26),
        );
        render(&map)
    }

    #[test]
    fn identical_reports_are_clean() {
        let r = report();
        assert_eq!(compare(&r, &r), Ok((vec![], vec![])));
    }

    #[test]
    fn a_verdict_flip_either_way_regresses() {
        let r = report();
        for (from, to) in [("pass", "fail"), ("fail", "pass")] {
            let flipped = r.replace(
                &format!("\"verdict\":\"{from}\""),
                &format!("\"verdict\":\"{to}\""),
            );
            let (regressions, notes) = compare(&r, &flipped).unwrap();
            assert_eq!(regressions.len(), 1, "{from} -> {to}: {regressions:?}");
            assert!(regressions[0].ends_with(&format!("verdict {from} -> {to}")));
            assert!(notes.is_empty());
        }
    }

    #[test]
    fn coverage_shrinking_past_a_quarter_regresses_and_growth_never_does() {
        let r = report();
        let with = |n: usize| r.replace("\"schedules\":24", &format!("\"schedules\":{n}"));
        assert_eq!(compare(&r, &with(18)).unwrap().0, Vec::<String>::new());
        let regressions = compare(&r, &with(17)).unwrap().0;
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].starts_with("obs::ring@dpor: schedules 24 -> 17"));
        assert_eq!(compare(&r, &with(240)).unwrap().0, Vec::<String>::new());
    }

    #[test]
    fn an_entry_missing_from_the_current_report_regresses() {
        let r = report();
        let mut map = parse_existing(&r).unwrap();
        map.remove(&("obs::ring".to_string(), "dpor".to_string()));
        let (regressions, notes) = compare(&r, &render(&map)).unwrap();
        assert_eq!(regressions, ["obs::ring@dpor: in the baseline only"]);
        assert!(notes.is_empty());
    }

    #[test]
    fn an_entry_in_the_current_report_only_is_a_note() {
        let r = report();
        let mut map = parse_existing(&r).unwrap();
        map.insert(
            ("new::test".to_string(), "dfs".to_string()),
            entry("pass", 5),
        );
        let (regressions, notes) = compare(&r, &render(&map)).unwrap();
        assert!(regressions.is_empty());
        assert_eq!(notes, ["new::test@dfs: in the current report only"]);
        // A report with no entry at all compares nothing.
        assert!(compare(&r, "").is_err());
        assert!(compare("{\n}\n", &r).is_err());
    }

    #[test]
    fn the_committed_report_round_trips_and_compares_clean() {
        let committed = include_str!("../../../bench_out/exploration_stats.json");
        let map = parse_existing(committed).unwrap();
        assert_eq!(map.len(), committed.matches("{\"test\":").count());
        let rendered = render(&map);
        assert_eq!(rendered, committed);
        assert_eq!(compare(committed, &rendered), Ok((vec![], vec![])));
    }
}
