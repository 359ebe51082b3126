//! The trace exporter and its loader, and the metrics dump.
//!
//! A trace has one on-disk format, Chrome `trace_event` JSON
//! ([`write_chrome_json`]), because Perfetto and `chrome://tracing` load
//! it as is. Paired kinds (job, merge, park, region) become `B`/`E`
//! duration slices; the rest become instants. Every event round-trips
//! losslessly through [`read_chrome_json`], which reads the document
//! with `cilkm-base`'s parser (the writer quotes through its escaper, so
//! any thread label comes back as written) and refuses anything that is
//! not a Chrome trace.
//!
//! A metrics snapshot has one dump, flat JSON ([`write_metrics_json`]);
//! histograms are flattened into `count` / `sum` / `mean` / coarse
//! quantiles plus their non-empty buckets.

use std::io::{self, Write};

use cilkm_base::{parse, quote, Value};

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
                 \"args\":{{\"name\":{}}}}}",
                quote(&t.label)
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

/// Loads a trace written by [`write_chrome_json`]. Timestamps come back
/// quantized to the stored microsecond precision (whole ns). Text that
/// is not one JSON object with a `traceEvents` array — another format,
/// an empty file, a cut-off document — is an error, not an empty trace.
pub fn read_chrome_json(text: &str) -> Result<Trace, String> {
    let doc = parse(text).map_err(|e| format!("not a Chrome trace: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("not a Chrome trace: no \"traceEvents\" array")?;
    // tid -> (label, dropped, events)
    let mut threads: Vec<(String, u64, Vec<Event>)> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let tid = ev
            .get("tid")
            .and_then(Value::as_u64)
            .and_then(|t| usize::try_from(t).ok())
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        while threads.len() <= tid {
            threads.push((format!("tid-{}", threads.len()), 0, Vec::new()));
        }
        let name = ev.get("name").and_then(Value::as_str).unwrap_or("");
        let arg = |key: &str| ev.get("args").and_then(|a| a.get(key));
        match ph {
            "M" => match name {
                "thread_name" => {
                    if let Some(label) = arg("name").and_then(Value::as_str) {
                        threads[tid].0 = label.to_owned();
                    }
                }
                "cilkm_dropped" => {
                    threads[tid].1 = arg("dropped").and_then(Value::as_u64).unwrap_or(0);
                }
                _ => {}
            },
            "B" | "E" | "i" => {
                let kind = if ph == "i" {
                    EventKind::from_name(name)
                } else {
                    kind_from_span(name, ph == "B")
                }
                .ok_or_else(|| format!("event {i}: unknown event name {name:?}"))?;
                let ts_us = ev
                    .get("ts")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("event {i}: missing ts"))?;
                threads[tid].2.push(Event {
                    ts_ns: (ts_us * 1000.0).round() as u64,
                    kind,
                    arg: arg("arg").and_then(Value::as_u64).unwrap_or(0),
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

/// Writes the snapshot as one flat JSON object. A histogram expands into
/// dotted keys: `name.count`, `name.sum`, `name.mean`, coarse quantiles,
/// and one `name.bucket_ge_<lower bound>` per non-empty bucket.
pub fn write_metrics_json<W: Write>(snap: &MetricsSnapshot, w: &mut W) -> io::Result<()> {
    let mut rows: Vec<(String, String)> = Vec::new();
    for (name, value) in &snap.values {
        match value {
            MetricValue::Counter(v) => rows.push((name.clone(), v.to_string())),
            MetricValue::Histogram(h) => {
                rows.push((format!("{name}.count"), h.count.to_string()));
                rows.push((format!("{name}.sum"), h.sum.to_string()));
                rows.push((format!("{name}.mean"), format!("{:.3}", h.mean())));
                for (q, key) in [(0.5, "p50_le"), (0.99, "p99_le")] {
                    rows.push((
                        format!("{name}.{key}"),
                        h.quantile_upper_bound(q).to_string(),
                    ));
                }
                for (i, &b) in h.buckets.iter().enumerate().filter(|(_, &b)| b > 0) {
                    rows.push((
                        format!("{name}.bucket_ge_{}", bucket_lower_bound(i)),
                        b.to_string(),
                    ));
                }
            }
        }
    }
    writeln!(w, "{{")?;
    for (i, (name, v)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        writeln!(w, "  {}: {v}{comma}", quote(name))?;
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
    fn chrome_json_round_trips_kinds_and_args() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_chrome_json(&trace, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.trim_end().ends_with("]}"));

        let back = read_chrome_json(&text).unwrap();
        assert_eq!(back.threads.len(), 2);
        for (a, b) in trace.threads.iter().zip(&back.threads) {
            assert_eq!(a.label, b.label);
            // Timestamps survive at microsecond-file precision.
            assert_eq!(a.events, b.events);
            assert_eq!(a.dropped, b.dropped);
        }
    }

    #[test]
    fn thread_labels_round_trip_whatever_they_hold() {
        let labels = ["a\"b", "a\\b", "lane \"name\":\"x\"", "tab\there"];
        let trace = Trace {
            threads: labels
                .iter()
                .map(|&label| ThreadTrace {
                    label: label.into(),
                    events: sample_trace().threads[0].events.clone(),
                    dropped: 0,
                })
                .collect(),
        };
        let mut buf = Vec::new();
        write_chrome_json(&trace, &mut buf).unwrap();
        let back = read_chrome_json(&String::from_utf8(buf).unwrap()).unwrap();
        let mut want: Vec<&str> = labels.to_vec();
        want.sort();
        let got: Vec<&str> = back.threads.iter().map(|t| t.label.as_str()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn the_committed_trace_reads_back_and_rewrites_byte_for_byte() {
        let committed = include_str!("../../../bench_out/pbfs_trace.json");
        let trace = read_chrome_json(committed).unwrap();
        // Every lane of the committed file has events, so none is
        // filtered out on the way in.
        let lanes = committed.matches("\"name\":\"thread_name\"").count();
        assert_eq!(trace.threads.len(), lanes);
        let mut buf = Vec::new();
        write_chrome_json(&trace, &mut buf).unwrap();
        assert!(
            String::from_utf8(buf).unwrap() == committed,
            "rewrite differs"
        );
    }

    #[test]
    fn text_that_is_not_a_whole_trace_is_refused() {
        let mut buf = Vec::new();
        write_chrome_json(&sample_trace(), &mut buf).unwrap();
        let whole = String::from_utf8(buf).unwrap();
        let cut = &whole[..whole.trim_end().rfind('\n').unwrap()];
        let csv = "worker,ts_ns,kind,arg\ncilkm-worker-0,1500,job_begin,0\n";
        for text in [csv, "", "\n", cut, &whole[whole.find('\n').unwrap()..]] {
            assert!(read_chrome_json(text).is_err(), "{text:?} loaded");
        }
        // An empty trace is still a trace.
        let mut buf = Vec::new();
        write_chrome_json(
            &Trace {
                threads: Vec::new(),
            },
            &mut buf,
        )
        .unwrap();
        let empty = read_chrome_json(&String::from_utf8(buf).unwrap()).unwrap();
        assert!(empty.threads.is_empty());
    }

    proptest::proptest! {
        /// Every event kind with arbitrary args survives the exporter.
        /// Timestamps are kept under 2^50 ns (~13 days) so the f64
        /// microsecond field stays exact: at 2^52 the representation
        /// error of `ts/1000.0` reaches the 0.5 ns rounding boundary.
        #[test]
        fn any_event_stream_round_trips(
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
            write_chrome_json(&trace, &mut buf).unwrap();
            let back = read_chrome_json(&String::from_utf8(buf).unwrap()).unwrap();
            proptest::prop_assert_eq!(&back.threads[0].events, &trace.threads[0].events);
        }
    }

    #[test]
    fn metrics_json_flattens_histograms() {
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
        write_metrics_json(&snap, &mut buf).unwrap();
        let json = String::from_utf8(buf).unwrap();
        for row in [
            "\"core.lookups\": 42",
            "\"core.merge_ns.count\": 2",
            "\"core.merge_ns.sum\": 5100",
            "\"core.merge_ns.bucket_ge_64\": 1",
            "\"core.merge_ns.bucket_ge_4096\": 1",
        ] {
            assert!(json.contains(row), "{row} missing from {json}");
        }
        assert!(json.trim_start().starts_with('{'));
        assert!(json.trim_end().ends_with('}'));
    }
}
