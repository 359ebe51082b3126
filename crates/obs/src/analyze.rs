//! Trace summarization (the engine behind the `cilkm-trace` binary).
//!
//! Consumes a drained [`Trace`] and produces per-worker utilization, a
//! steal/idle breakdown, an estimate of the hypermerge critical path,
//! and kernel-crossing counts per steal — the quantities §8 of the
//! paper argues about (merge work scales with steals, not with views;
//! crossings ride on steals).
//!
//! Span accounting pairs `Begin`/`End` kinds per worker with a depth
//! counter, so nested jobs (a worker stealing while already inside a
//! stolen job) are not double-counted. A span left open at the end of a
//! trace is closed at the worker's last timestamp, which undercounts
//! slightly but never fabricates time.

use crate::event::EventKind;
use crate::trace::Trace;

/// Accumulated activity of one worker (one trace ring).
#[derive(Clone, Debug, Default)]
pub struct WorkerSummary {
    /// Ring label (thread name).
    pub label: String,
    /// Timestamp of the worker's first event.
    pub first_ts_ns: u64,
    /// Timestamp of the worker's last event.
    pub last_ts_ns: u64,
    /// Time inside foreign jobs (outermost `JobBegin`..`JobEnd`).
    pub job_ns: u64,
    /// Time inside hypermerges (`MergeBegin`..`MergeEnd`).
    pub merge_ns: u64,
    /// Time parked (`Park`..`Wake`).
    pub park_ns: u64,
    /// Foreign jobs executed.
    pub jobs: u64,
    /// Hypermerges performed.
    pub merges: u64,
    /// Times the worker parked.
    pub parks: u64,
    /// Successful steals.
    pub steals: u64,
    /// Idle episodes that found nothing to steal (see
    /// [`EventKind::StealFail`] for the once-per-episode semantics).
    pub idle_episodes: u64,
    /// View transferals out of this worker (a stolen task's end, or a
    /// leapfrogging worker setting its context aside).
    pub detaches: u64,
    /// View re-installations (after a leapfrogged job).
    pub attaches: u64,
    /// Simulated `sys_palloc` crossings.
    pub pallocs: u64,
    /// Simulated `sys_pfree` crossings.
    pub pfrees: u64,
    /// Simulated `sys_pmap` crossings.
    pub pmaps: u64,
    /// Pages touched across all `sys_pmap` crossings.
    pub pmap_pages: u64,
    /// Tasks this worker made stealable ([`EventKind::Spawn`]).
    pub spawns: u64,
    /// Spawned tasks this worker ran inline (popped its own deque;
    /// [`EventKind::StrandBegin`]).
    pub inline_strands: u64,
    /// Sync points this worker's strands reached
    /// ([`EventKind::SyncBegin`]).
    pub syncs: u64,
    /// Events this worker lost to a full ring.
    pub dropped: u64,
}

impl WorkerSummary {
    /// Kernel crossings of any flavor charged to this worker.
    pub fn crossings(&self) -> u64 {
        self.pallocs + self.pfrees + self.pmaps
    }
}

/// Whole-trace rollup.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Per-worker breakdowns, in label order.
    pub workers: Vec<WorkerSummary>,
    /// Earliest timestamp in the trace.
    pub start_ns: u64,
    /// Latest timestamp in the trace.
    pub end_ns: u64,
}

impl TraceSummary {
    /// Traced wall-clock span.
    pub fn span_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Successful steals across all workers.
    pub fn steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Kernel crossings across all workers.
    pub fn crossings(&self) -> u64 {
        self.workers.iter().map(|w| w.crossings()).sum()
    }

    /// Crossings per successful steal — the paper's key ratio (map
    /// pressure should ride on steals, not on views). `None` when no
    /// steal happened.
    pub fn crossings_per_steal(&self) -> Option<f64> {
        match self.steals() {
            0 => None,
            s => Some(self.crossings() as f64 / s as f64),
        }
    }

    /// Lower-bound estimate of the hypermerge critical path: the largest
    /// single-worker merge total. Merges on different workers can
    /// overlap, so summing across workers would overstate; the busiest
    /// worker's total is a floor on the serially-dependent merge time.
    pub fn merge_critical_path_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.merge_ns).max().unwrap_or(0)
    }

    /// Fraction of the traced span worker `w` spent inside foreign jobs.
    pub fn utilization(&self, w: &WorkerSummary) -> f64 {
        match self.span_ns() {
            0 => 0.0,
            span => w.job_ns as f64 / span as f64,
        }
    }
}

/// Tracks one `Begin`/`End` pair kind with a depth counter so nesting is
/// not double-counted.
#[derive(Default)]
struct SpanAcc {
    depth: u32,
    open_ts: u64,
    total_ns: u64,
    count: u64,
}

impl SpanAcc {
    fn begin(&mut self, ts: u64) {
        if self.depth == 0 {
            self.open_ts = ts;
            self.count += 1;
        }
        self.depth += 1;
    }

    fn end(&mut self, ts: u64) {
        // An End with no matching Begin (trace started mid-span) is
        // ignored rather than inventing time.
        if self.depth > 0 {
            self.depth -= 1;
            if self.depth == 0 {
                self.total_ns += ts.saturating_sub(self.open_ts);
            }
        }
    }

    fn close(&mut self, ts: u64) -> u64 {
        if self.depth > 0 {
            self.depth = 0;
            self.total_ns += ts.saturating_sub(self.open_ts);
        }
        self.total_ns
    }
}

/// Builds the per-worker and whole-trace rollup.
pub fn summarize(trace: &Trace) -> TraceSummary {
    let mut workers = Vec::with_capacity(trace.threads.len());
    let mut start_ns = u64::MAX;
    let mut end_ns = 0u64;
    for t in &trace.threads {
        let mut w = WorkerSummary {
            label: t.label.clone(),
            dropped: t.dropped,
            ..WorkerSummary::default()
        };
        let (mut job, mut merge, mut park) =
            (SpanAcc::default(), SpanAcc::default(), SpanAcc::default());
        let mut last_ts = 0u64;
        for (i, ev) in t.events.iter().enumerate() {
            if i == 0 {
                w.first_ts_ns = ev.ts_ns;
            }
            last_ts = ev.ts_ns;
            match ev.kind {
                EventKind::JobBegin => job.begin(ev.ts_ns),
                EventKind::JobEnd => job.end(ev.ts_ns),
                EventKind::MergeBegin => merge.begin(ev.ts_ns),
                EventKind::MergeEnd => merge.end(ev.ts_ns),
                EventKind::Park => park.begin(ev.ts_ns),
                EventKind::Wake => park.end(ev.ts_ns),
                EventKind::StealSuccess => w.steals += 1,
                EventKind::StealFail => w.idle_episodes += 1,
                EventKind::Detach => w.detaches += 1,
                EventKind::Attach => w.attaches += 1,
                EventKind::Palloc => w.pallocs += 1,
                EventKind::Pfree => w.pfrees += 1,
                EventKind::Pmap => {
                    w.pmaps += 1;
                    w.pmap_pages += ev.arg;
                }
                EventKind::Spawn => w.spawns += 1,
                EventKind::StrandBegin => w.inline_strands += 1,
                EventKind::SyncBegin => w.syncs += 1,
                EventKind::RegionBegin
                | EventKind::RegionEnd
                | EventKind::StrandEnd
                | EventKind::SyncEnd => {}
            }
        }
        w.last_ts_ns = last_ts;
        w.job_ns = job.close(last_ts);
        w.jobs = job.count;
        w.merge_ns = merge.close(last_ts);
        w.merges = merge.count;
        w.park_ns = park.close(last_ts);
        w.parks = park.count;
        if !t.events.is_empty() {
            start_ns = start_ns.min(w.first_ts_ns);
            end_ns = end_ns.max(w.last_ts_ns);
        }
        workers.push(w);
    }
    if start_ns == u64::MAX {
        start_ns = 0;
    }
    TraceSummary {
        workers,
        start_ns,
        end_ns,
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Renders the summary as the text report `cilkm-trace` prints.
pub fn render(s: &TraceSummary) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: {} threads over {:.3} ms",
        s.workers.len(),
        ms(s.span_ns())
    );
    let _ = writeln!(
        out,
        "{:<18} {:>6} {:>10} {:>10} {:>10} {:>7} {:>6} {:>6} {:>9} {:>8}",
        "worker",
        "util%",
        "job_ms",
        "merge_ms",
        "park_ms",
        "steals",
        "idle",
        "merges",
        "crossings",
        "dropped"
    );
    for w in &s.workers {
        let _ = writeln!(
            out,
            "{:<18} {:>6.1} {:>10.3} {:>10.3} {:>10.3} {:>7} {:>6} {:>6} {:>9} {:>8}",
            w.label,
            100.0 * s.utilization(w),
            ms(w.job_ns),
            ms(w.merge_ns),
            ms(w.park_ns),
            w.steals,
            w.idle_episodes,
            w.merges,
            w.crossings(),
            w.dropped,
        );
    }
    let _ = writeln!(
        out,
        "steals: {}   kernel crossings: {} ({} palloc, {} pfree, {} pmap / {} pages)",
        s.steals(),
        s.crossings(),
        s.workers.iter().map(|w| w.pallocs).sum::<u64>(),
        s.workers.iter().map(|w| w.pfrees).sum::<u64>(),
        s.workers.iter().map(|w| w.pmaps).sum::<u64>(),
        s.workers.iter().map(|w| w.pmap_pages).sum::<u64>(),
    );
    let (spawns, syncs): (u64, u64) = (
        s.workers.iter().map(|w| w.spawns).sum(),
        s.workers.iter().map(|w| w.syncs).sum(),
    );
    if spawns > 0 || syncs > 0 {
        let _ = writeln!(
            out,
            "dag events: {} spawns, {} syncs, {} inline strands (run `cilkm-trace --dag` for work/span)",
            spawns,
            syncs,
            s.workers.iter().map(|w| w.inline_strands).sum::<u64>(),
        );
    }
    match s.crossings_per_steal() {
        Some(r) => {
            let _ = writeln!(out, "crossings per steal: {r:.2}");
        }
        None => {
            let _ = writeln!(out, "crossings per steal: n/a (no steals)");
        }
    }
    let _ = writeln!(
        out,
        "merge critical-path estimate: {:.3} ms (busiest worker's merge total)",
        ms(s.merge_critical_path_ns())
    );
    if s.workers.iter().any(|w| w.dropped > 0) {
        let _ = writeln!(
            out,
            "warning: {} events dropped (rings full — raise CILKM_TRACE_CAP); durations undercount",
            s.workers.iter().map(|w| w.dropped).sum::<u64>()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::trace::ThreadTrace;

    fn ev(ts: u64, kind: EventKind, arg: u64) -> Event {
        Event {
            ts_ns: ts,
            kind,
            arg,
        }
    }

    #[test]
    fn spans_pair_and_nest_without_double_counting() {
        let trace = Trace {
            threads: vec![ThreadTrace {
                label: "w0".into(),
                events: vec![
                    ev(100, EventKind::StealSuccess, 1),
                    ev(100, EventKind::JobBegin, 0),
                    // Nested steal inside the job must not double-count.
                    ev(200, EventKind::JobBegin, 0),
                    ev(300, EventKind::JobEnd, 0),
                    ev(400, EventKind::MergeBegin, 0),
                    ev(450, EventKind::MergeEnd, 0),
                    ev(500, EventKind::JobEnd, 0),
                    ev(600, EventKind::Park, 0),
                    ev(900, EventKind::Wake, 0),
                ],
                dropped: 0,
            }],
        };
        let s = summarize(&trace);
        let w = &s.workers[0];
        assert_eq!(w.job_ns, 400, "outermost job span only");
        assert_eq!(w.jobs, 1);
        assert_eq!(w.merge_ns, 50);
        assert_eq!(w.park_ns, 300);
        assert_eq!(w.steals, 1);
        assert_eq!(s.span_ns(), 800);
        assert!((s.utilization(w) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn open_spans_close_at_last_event_and_orphan_ends_are_ignored() {
        let trace = Trace {
            threads: vec![ThreadTrace {
                label: "w0".into(),
                events: vec![
                    ev(50, EventKind::JobEnd, 0), // orphan: trace began mid-job
                    ev(100, EventKind::MergeBegin, 0),
                    ev(400, EventKind::StealSuccess, 0), // merge still open
                ],
                dropped: 0,
            }],
        };
        let w = &summarize(&trace).workers[0];
        assert_eq!(w.job_ns, 0);
        assert_eq!(w.merge_ns, 300, "open merge closes at the last event");
    }

    #[test]
    fn rollup_ratios_and_critical_path() {
        let trace = Trace {
            threads: vec![
                ThreadTrace {
                    label: "w0".into(),
                    events: vec![
                        ev(0, EventKind::StealSuccess, 1),
                        ev(10, EventKind::Pmap, 8),
                        ev(20, EventKind::Palloc, 0),
                        ev(30, EventKind::MergeBegin, 0),
                        ev(130, EventKind::MergeEnd, 0),
                    ],
                    dropped: 0,
                },
                ThreadTrace {
                    label: "w1".into(),
                    events: vec![
                        ev(5, EventKind::StealSuccess, 0),
                        ev(15, EventKind::Pfree, 0),
                        ev(40, EventKind::MergeBegin, 0),
                        ev(300, EventKind::MergeEnd, 0),
                    ],
                    dropped: 0,
                },
            ],
        };
        let s = summarize(&trace);
        assert_eq!(s.steals(), 2);
        assert_eq!(s.crossings(), 3);
        assert_eq!(s.crossings_per_steal(), Some(1.5));
        assert_eq!(s.merge_critical_path_ns(), 260);
        assert_eq!(s.span_ns(), 300);
        let report = render(&s);
        assert!(report.contains("crossings per steal: 1.50"));
        assert!(report.contains("w0"));
        assert!(report.contains("w1"));
    }

    #[test]
    fn empty_trace_is_harmless() {
        let s = summarize(&Trace::default());
        assert_eq!(s.span_ns(), 0);
        assert_eq!(s.crossings_per_steal(), None);
        let report = render(&s);
        assert!(report.contains("no steals"));
    }
}
