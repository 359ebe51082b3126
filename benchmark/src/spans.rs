//! Spans recorded by the harness itself, around every call into the
//! program: `pass{input_gen, setup{pool_new, reducers_new, warmup},
//! block{serial_elision, rep.., verify..}, teardown}`. Each span has an
//! id, a parent, a name, a start and an end; they stay in memory until
//! the pass ends. Spans *inside* the program are a later issue.

use std::time::Instant;

use crate::json::{obj, Value};

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One recorded interval, in nanoseconds since the recorder's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals of the self-time table.
#[derive(Clone, Debug, PartialEq)]
pub struct SelfTime {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The in-memory span recorder. A disabled recorder (the gated pass)
/// ignores every call, so the timed loop pays one branch.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len();
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records an already-timed interval as a child of the innermost open
    /// span (the timed loop reads the clock once and feeds both the rep
    /// sample and the span from the same two instants).
    pub fn leaf(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    obj([
                        ("id", Value::from(s.id)),
                        ("parent", Value::from(s.parent)),
                        ("name", Value::from(s.name)),
                        ("start_ns", Value::from(s.start_ns)),
                        ("end_ns", Value::from(s.end_ns)),
                    ])
                })
                .collect(),
        )
    }
}

/// A span's self time is its duration minus the part of that interval
/// its child spans cover (children clipped to the parent and merged
/// where they overlap). Returns totals per span name, in first-seen
/// order.
pub fn self_times(spans: &[Span]) -> Vec<SelfTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    let mut table: Vec<SelfTime> = Vec::new();
    for s in spans {
        let kids = &mut children[s.id];
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for &(lo, hi) in kids.iter() {
            let lo = lo.max(reach);
            if hi > lo {
                covered += hi - lo;
                reach = hi;
            }
        }
        let total = s.end_ns - s.start_ns;
        let row = match table.iter_mut().find(|r| r.name == s.name) {
            Some(row) => row,
            None => {
                table.push(SelfTime {
                    name: s.name,
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                });
                table.last_mut().expect("just pushed")
            }
        };
        row.count += 1;
        row.total_ns += total;
        row.self_ns += total - covered;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span(0, None, "pass", 0, 100),
            span(1, Some(0), "setup", 10, 40),
            span(2, Some(1), "pool_new", 10, 25),
            span(3, Some(0), "block", 50, 90),
            span(4, Some(3), "rep", 50, 60),
            span(5, Some(3), "rep", 60, 75),
            // overlaps the previous rep and sticks out of the parent:
            // only 75..90 is newly covered
            span(6, Some(3), "verify", 70, 95),
        ];
        let t = self_times(&spans);
        let row = |n: &str| t.iter().find(|r| r.name == n).unwrap().clone();
        assert_eq!(row("pass").self_ns, 100 - 30 - 40);
        assert_eq!(row("setup").self_ns, 30 - 15);
        assert_eq!(row("pool_new").self_ns, 15);
        assert_eq!(row("block").self_ns, 0);
        assert_eq!(row("rep").count, 2);
        assert_eq!(row("rep").total_ns, 25);
        assert_eq!(row("rep").self_ns, 25);
        // self times of a tree partition the root, up to overlap/overhang
        let sum: u64 = t.iter().map(|r| r.self_ns).sum();
        assert_eq!(sum, 100 + 5 + 5);
    }

    #[test]
    fn recorder_nests_and_leaves_attach_to_the_open_span() {
        let mut s = Spans::new(true);
        let pass = s.open("pass");
        let block = s.open("block");
        let t0 = Instant::now();
        s.leaf("rep", t0, Instant::now());
        s.close(block);
        s.close(pass);
        let all = s.all();
        assert_eq!(all.len(), 3);
        assert_eq!(all[1].parent, Some(pass));
        assert_eq!(all[2].parent, Some(block));
        assert!(all[0].start_ns <= all[1].start_ns && all[1].end_ns <= all[0].end_ns);
        let json = s.to_json();
        assert_eq!(
            json.as_arr().unwrap()[2].get("name").unwrap().as_str(),
            Some("rep")
        );
        assert_eq!(json.as_arr().unwrap()[0].get("parent"), Some(&Value::Null));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        let id = s.open("pass");
        s.leaf("rep", Instant::now(), Instant::now());
        s.close(id);
        assert!(s.all().is_empty());
    }
}
