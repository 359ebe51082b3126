//! Trace and metrics exporters (and the matching loaders).
//!
//! Two trace formats are written side by side:
//!
//! * **Chrome `trace_event` JSON** ([`write_chrome_json`]) — loads
//!   directly in Perfetto or `chrome://tracing`. Paired kinds
//!   (job, merge, park, region) become `B`/`E` duration slices; the rest
//!   become instants. One JSON object per line, which keeps the loader
//!   ([`read_chrome_json`]) a line scanner instead of a JSON engine —
//!   the workspace builds offline, so there is no serde to lean on.
//! * **Events CSV** ([`write_events_csv`]) — a lossless
//!   `worker,ts_ns,kind,arg` dump for ad-hoc tooling, loaded back by
//!   [`read_events_csv`].
//!
//! Metrics snapshots get flat CSV ([`write_metrics_csv`]) and JSON
//! ([`write_metrics_json`]) dumps; histograms are flattened into
//! `count` / `sum` / `mean` / coarse quantiles plus their non-empty
//! buckets.
//!
//! The loaders only promise to read what the writers here produce.

use std::io::{self, Write};

use crate::event::{Event, EventKind};
use crate::metrics::{bucket_lower_bound, MetricValue, MetricsSnapshot};
use crate::trace::{ThreadTrace, Trace};

/// For paired kinds, the Chrome slice name and whether this side opens
/// (`B`) or closes (`E`) it.
fn span_of(kind: EventKind) -> Option<(&'static str, bool)> {
    match kind {
        EventKind::RegionBegin => Some(("region", true)),
        EventKind::RegionEnd => Some(("region", false)),
        EventKind::JobBegin => Some(("job", true)),
        EventKind::JobEnd => Some(("job", false)),
        EventKind::MergeBegin => Some(("merge", true)),
        EventKind::MergeEnd => Some(("merge", false)),
        EventKind::Park => Some(("park", true)),
        EventKind::Wake => Some(("park", false)),
        _ => None,
    }
}

fn kind_from_span(name: &str, begin: bool) -> Option<EventKind> {
    match (name, begin) {
        ("region", true) => Some(EventKind::RegionBegin),
        ("region", false) => Some(EventKind::RegionEnd),
        ("job", true) => Some(EventKind::JobBegin),
        ("job", false) => Some(EventKind::JobEnd),
        ("merge", true) => Some(EventKind::MergeBegin),
        ("merge", false) => Some(EventKind::MergeEnd),
        ("park", true) => Some(EventKind::Park),
        ("park", false) => Some(EventKind::Wake),
        _ => None,
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Writes a Perfetto-loadable Chrome `trace_event` JSON document. `tid`
/// is the thread's index in the (label-sorted) trace; timestamps are
/// microseconds with nanosecond precision preserved in the fraction.
pub fn write_chrome_json<W: Write>(trace: &Trace, w: &mut W) -> io::Result<()> {
    writeln!(w, "{{\"traceEvents\":[")?;
    let mut first = true;
    let mut line = |w: &mut W, s: String| -> io::Result<()> {
        if first {
            first = false;
            writeln!(w, "{s}")
        } else {
            writeln!(w, ",{s}")
        }
    };
    for (tid, t) in trace.threads.iter().enumerate() {
        line(
            w,
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                json_escape(&t.label)
            ),
        )?;
        if t.dropped > 0 {
            line(
                w,
                format!(
                    "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"cilkm_dropped\",\
                     \"args\":{{\"dropped\":{}}}}}",
                    t.dropped
                ),
            )?;
        }
        for ev in &t.events {
            let ts_us = ev.ts_ns as f64 / 1000.0;
            let s = match span_of(ev.kind) {
                Some((name, begin)) => format!(
                    "{{\"ph\":\"{}\",\"pid\":1,\"tid\":{tid},\"ts\":{ts_us:.3},\
                     \"name\":\"{name}\",\"args\":{{\"arg\":{}}}}}",
                    if begin { 'B' } else { 'E' },
                    ev.arg
                ),
                None => format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{ts_us:.3},\"s\":\"t\",\
                     \"name\":\"{}\",\"args\":{{\"arg\":{}}}}}",
                    ev.kind.name(),
                    ev.arg
                ),
            };
            line(w, s)?;
        }
    }
    writeln!(w, "]}}")
}

/// Pulls `"key":<raw json scalar>` out of one of our own single-line
/// JSON objects. Only handles the writer's output shape.
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    if let Some(inner) = rest.strip_prefix('"') {
        let end = inner.find('"')?;
        Some(&inner[..end])
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
}

/// Loads a trace written by [`write_chrome_json`]. Timestamps come back
/// quantized to the stored microsecond precision (whole ns).
pub fn read_chrome_json(text: &str) -> Result<Trace, String> {
    // tid -> (label, dropped, events)
    let mut threads: Vec<(String, u64, Vec<Event>)> = Vec::new();
    let at = |tid: usize, threads: &mut Vec<(String, u64, Vec<Event>)>| {
        while threads.len() <= tid {
            threads.push((format!("tid-{}", threads.len()), 0, Vec::new()));
        }
    };
    for line in text.lines() {
        let line = line.trim().trim_start_matches(',');
        if !line.starts_with('{') || !line.contains("\"ph\"") {
            continue;
        }
        let ph = json_field(line, "ph").ok_or_else(|| format!("missing ph: {line}"))?;
        let tid: usize = json_field(line, "tid")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("missing tid: {line}"))?;
        at(tid, &mut threads);
        let name = json_field(line, "name").unwrap_or("");
        match ph {
            "M" => match name {
                "thread_name" => {
                    // Two "name" keys on this line; the label is the
                    // last one (inside args).
                    if let Some(pos) = line.rfind("\"name\":\"") {
                        let rest = &line[pos + 8..];
                        if let Some(end) = rest.find('"') {
                            threads[tid].0 = rest[..end].to_owned();
                        }
                    }
                }
                "cilkm_dropped" => {
                    threads[tid].1 = json_field(line, "dropped")
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(0);
                }
                _ => {}
            },
            "B" | "E" | "i" => {
                let kind = if ph == "i" {
                    EventKind::from_name(name)
                } else {
                    kind_from_span(name, ph == "B")
                }
                .ok_or_else(|| format!("unknown event name {name:?}"))?;
                let ts_us: f64 = json_field(line, "ts")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("missing ts: {line}"))?;
                let arg: u64 = json_field(line, "arg")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0);
                threads[tid].2.push(Event {
                    ts_ns: (ts_us * 1000.0).round() as u64,
                    kind,
                    arg,
                });
            }
            _ => {}
        }
    }
    let mut out: Vec<ThreadTrace> = threads
        .into_iter()
        .map(|(label, dropped, events)| ThreadTrace {
            label,
            events,
            dropped,
        })
        // Metadata-only lanes carry nothing to re-analyze; drop them
        // instead of inventing empty workers.
        .filter(|t| !t.events.is_empty() || t.dropped > 0)
        .collect();
    out.sort_by(|a, b| a.label.cmp(&b.label));
    Ok(Trace { threads: out })
}

/// Writes the lossless `worker,ts_ns,kind,arg` event dump. A pseudo-row
/// with kind `dropped` carries each thread's lost-event count.
pub fn write_events_csv<W: Write>(trace: &Trace, w: &mut W) -> io::Result<()> {
    writeln!(w, "worker,ts_ns,kind,arg")?;
    for t in &trace.threads {
        for ev in &t.events {
            writeln!(w, "{},{},{},{}", t.label, ev.ts_ns, ev.kind.name(), ev.arg)?;
        }
        if t.dropped > 0 {
            writeln!(w, "{},0,dropped,{}", t.label, t.dropped)?;
        }
    }
    Ok(())
}

/// Loads a dump written by [`write_events_csv`].
pub fn read_events_csv(text: &str) -> Result<Trace, String> {
    let mut threads: Vec<ThreadTrace> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if i == 0 || line.trim().is_empty() {
            continue;
        }
        let mut parts = line.splitn(4, ',');
        let (worker, ts, kind, arg) = (
            parts.next().ok_or_else(|| format!("line {i}: no worker"))?,
            parts.next().ok_or_else(|| format!("line {i}: no ts"))?,
            parts.next().ok_or_else(|| format!("line {i}: no kind"))?,
            parts.next().ok_or_else(|| format!("line {i}: no arg"))?,
        );
        let ts_ns: u64 = ts.parse().map_err(|_| format!("line {i}: bad ts {ts:?}"))?;
        let arg: u64 = arg
            .parse()
            .map_err(|_| format!("line {i}: bad arg {arg:?}"))?;
        let t = match threads.iter_mut().find(|t| t.label == worker) {
            Some(t) => t,
            None => {
                threads.push(ThreadTrace {
                    label: worker.to_owned(),
                    events: Vec::new(),
                    dropped: 0,
                });
                threads.last_mut().unwrap()
            }
        };
        if kind == "dropped" {
            t.dropped = arg;
        } else {
            let kind =
                EventKind::from_name(kind).ok_or_else(|| format!("line {i}: bad kind {kind:?}"))?;
            t.events.push(Event { ts_ns, kind, arg });
        }
    }
    threads.sort_by(|a, b| a.label.cmp(&b.label));
    Ok(Trace { threads })
}

/// Flattens one histogram into `(suffix, text value)` rows shared by the
/// CSV and JSON metric writers.
fn histogram_rows(h: &crate::metrics::HistogramSnapshot) -> Vec<(String, String)> {
    let mut rows = vec![
        ("count".into(), h.count.to_string()),
        ("sum".into(), h.sum.to_string()),
        ("mean".into(), format!("{:.3}", h.mean())),
        ("p50_le".into(), h.quantile_upper_bound(0.5).to_string()),
        ("p99_le".into(), h.quantile_upper_bound(0.99).to_string()),
    ];
    for (i, &b) in h.buckets.iter().enumerate() {
        if b > 0 {
            rows.push((
                format!("bucket_ge_{}", bucket_lower_bound(i)),
                b.to_string(),
            ));
        }
    }
    rows
}

/// Writes a flat `metric,value` CSV. Histograms expand into
/// `name.count`, `name.sum`, `name.mean`, coarse quantiles, and one row
/// per non-empty bucket.
pub fn write_metrics_csv<W: Write>(snap: &MetricsSnapshot, w: &mut W) -> io::Result<()> {
    writeln!(w, "metric,value")?;
    for (name, value) in &snap.values {
        match value {
            MetricValue::Counter(v) => writeln!(w, "{name},{v}")?,
            MetricValue::Histogram(h) => {
                for (suffix, v) in histogram_rows(h) {
                    writeln!(w, "{name}.{suffix},{v}")?;
                }
            }
        }
    }
    Ok(())
}

/// Writes the snapshot as one flat JSON object (histograms expand into
/// dotted keys, as in the CSV form).
pub fn write_metrics_json<W: Write>(snap: &MetricsSnapshot, w: &mut W) -> io::Result<()> {
    writeln!(w, "{{")?;
    let mut rows: Vec<(String, String)> = Vec::new();
    for (name, value) in &snap.values {
        match value {
            MetricValue::Counter(v) => rows.push((name.clone(), v.to_string())),
            MetricValue::Histogram(h) => {
                for (suffix, v) in histogram_rows(h) {
                    rows.push((format!("{name}.{suffix}"), v));
                }
            }
        }
    }
    for (i, (name, v)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        writeln!(w, "  \"{}\": {v}{comma}", json_escape(name))?;
    }
    writeln!(w, "}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Histogram, MetricsSnapshot};

    fn sample_trace() -> Trace {
        Trace {
            threads: vec![
                ThreadTrace {
                    label: "cilkm-worker-0".into(),
                    events: vec![
                        Event {
                            ts_ns: 1_500,
                            kind: EventKind::JobBegin,
                            arg: 0,
                        },
                        Event {
                            ts_ns: 2_500,
                            kind: EventKind::StealSuccess,
                            arg: 1,
                        },
                        Event {
                            ts_ns: 9_000,
                            kind: EventKind::JobEnd,
                            arg: 0,
                        },
                    ],
                    dropped: 0,
                },
                ThreadTrace {
                    label: "cilkm-worker-1".into(),
                    events: vec![
                        Event {
                            ts_ns: 3_000,
                            kind: EventKind::Park,
                            arg: 0,
                        },
                        Event {
                            ts_ns: 8_000,
                            kind: EventKind::Wake,
                            arg: 0,
                        },
                        Event {
                            ts_ns: 8_100,
                            kind: EventKind::Detach,
                            arg: 1,
                        },
                    ],
                    dropped: 2,
                },
            ],
        }
    }

    #[test]
    fn events_csv_round_trips_losslessly() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_events_csv(&trace, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let back = read_events_csv(&text).unwrap();
        assert_eq!(back.threads.len(), 2);
        for (a, b) in trace.threads.iter().zip(&back.threads) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.events, b.events);
            assert_eq!(a.dropped, b.dropped);
        }
    }

    #[test]
    fn chrome_json_round_trips_kinds_and_args() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_chrome_json(&trace, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.trim_end().ends_with("]}"));

        let back = read_chrome_json(&text).unwrap();
        assert_eq!(back.threads.len(), 2);
        assert_eq!(back.threads[0].label, "cilkm-worker-0");
        assert_eq!(back.threads[1].dropped, 2);
        for (a, b) in trace.threads.iter().zip(&back.threads) {
            assert_eq!(a.events.len(), b.events.len());
            for (ea, eb) in a.events.iter().zip(&b.events) {
                assert_eq!(ea.kind, eb.kind);
                assert_eq!(ea.arg, eb.arg);
                // Timestamps survive at microsecond-file precision.
                assert_eq!(ea.ts_ns, eb.ts_ns);
            }
        }
    }

    proptest::proptest! {
        /// Every event kind with arbitrary args survives both
        /// exporters. Timestamps are kept
        /// under 2^50 ns (~13 days) so the Chrome format's f64
        /// microsecond field stays exact: at 2^52 the representation
        /// error of `ts/1000.0` reaches the 0.5 ns rounding boundary.
        #[test]
        fn any_event_stream_round_trips_both_formats(
            raw in proptest::collection::vec(
                (0u64..(1 << 50), 0..EventKind::ALL.len(), proptest::prelude::any::<u64>()),
                1..48,
            )
        ) {
            let events: Vec<Event> = raw
                .into_iter()
                .map(|(ts_ns, k, arg)| Event { ts_ns, kind: EventKind::ALL[k], arg })
                .collect();
            let trace = Trace {
                threads: vec![ThreadTrace { label: "w0".into(), events, dropped: 0 }],
            };

            let mut buf = Vec::new();
            write_events_csv(&trace, &mut buf).unwrap();
            let csv_back = read_events_csv(&String::from_utf8(buf).unwrap()).unwrap();
            proptest::prop_assert_eq!(&csv_back.threads[0].events, &trace.threads[0].events);

            let mut buf = Vec::new();
            write_chrome_json(&trace, &mut buf).unwrap();
            let json_back = read_chrome_json(&String::from_utf8(buf).unwrap()).unwrap();
            proptest::prop_assert_eq!(&json_back.threads[0].events, &trace.threads[0].events);
        }
    }

    #[test]
    fn metrics_csv_and_json_flatten_histograms() {
        let h = Histogram::new();
        h.record(100);
        h.record(5_000);
        let mut snap = MetricsSnapshot::default();
        snap.values.insert(
            "core.lookups".into(),
            crate::metrics::MetricValue::Counter(42),
        );
        snap.values.insert(
            "core.merge_ns".into(),
            crate::metrics::MetricValue::Histogram(h.snapshot()),
        );

        let mut buf = Vec::new();
        write_metrics_csv(&snap, &mut buf).unwrap();
        let csv = String::from_utf8(buf).unwrap();
        assert!(csv.contains("core.lookups,42"));
        assert!(csv.contains("core.merge_ns.count,2"));
        assert!(csv.contains("core.merge_ns.sum,5100"));
        assert!(csv.contains("core.merge_ns.bucket_ge_64,1"));
        assert!(csv.contains("core.merge_ns.bucket_ge_4096,1"));

        let mut buf = Vec::new();
        write_metrics_json(&snap, &mut buf).unwrap();
        let json = String::from_utf8(buf).unwrap();
        assert!(json.contains("\"core.lookups\": 42"));
        assert!(json.contains("\"core.merge_ns.count\": 2"));
        assert!(json.trim_start().starts_with('{'));
        assert!(json.trim_end().ends_with('}'));
    }
}
