//! Model-checked tracer protocol tests (run with `--features model`).
//!
//! The claim under test (satellite of PR 3): draining a trace ring is
//! race-free *while the owning thread keeps emitting* — `Pool::run` can
//! collect a trace without quiescing workers. The ring's publication
//! atomics go through `crate::msync` and every slot access is reported
//! to the checker's happens-before race detector, so `model` explores
//! every schedule and every allowed stale read of `len`.

use cilkm_checker as checker;

use crate::event::{Event, EventKind};
use crate::ring::TraceRing;

fn ev(ts: u64) -> Event {
    Event {
        ts_ns: ts,
        kind: EventKind::StealSuccess,
        arg: ts,
    }
}

/// Concurrent drain reads a consistent published prefix under every
/// interleaving, with no data race: each drained event is exactly what
/// the writer pushed at that index, and the race detector stays silent.
#[test]
fn ring_drain_races_writer_cleanly() {
    let report = checker::try_model(|| {
        let (mut writer, ring) = TraceRing::new(2, "w");
        let t = checker::thread::spawn(move || {
            writer.push(ev(1));
            writer.push(ev(2));
        });
        // Drain concurrently with the pushes: whatever prefix is
        // published must be internally consistent.
        let snap = ring.snapshot();
        assert!(snap.len() <= 2);
        for (i, e) in snap.iter().enumerate() {
            assert_eq!(e.ts_ns, i as u64 + 1, "published prefix is immutable");
        }
        t.join().unwrap();
        // After the writer is joined, everything is visible.
        let all = ring.snapshot();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].ts_ns, 2);
        assert_eq!(ring.dropped(), 0);
    })
    .expect("concurrent drain must be race-free");
    assert!(
        report.schedules > 1,
        "the drain/push race must actually interleave (explored {} schedules)",
        report.schedules
    );
}

/// Negative control: reading one slot past the published length *is* a
/// data race, and the checker reports it. This proves the clean verdict
/// above comes from the protocol, not from a detector that is not
/// looking at the slots.
#[test]
fn ring_overread_is_detected_as_race() {
    let err = checker::try_model(|| {
        let (mut writer, ring) = TraceRing::new(1, "w");
        let t = checker::thread::spawn(move || {
            writer.push(ev(1));
        });
        let _ = ring.snapshot_overread();
        t.join().unwrap();
    })
    .expect_err("overreading an unpublished slot must race the writer");
    assert!(
        err.message.contains("data race"),
        "unexpected failure: {}",
        err.message
    );
}

/// A full ring drops instead of wrapping, under every schedule — so a
/// drainer can never observe a slot being overwritten.
#[test]
fn full_ring_never_overwrites_published_slots() {
    checker::model(|| {
        let (mut writer, ring) = TraceRing::new(1, "w");
        let t = checker::thread::spawn(move || {
            writer.push(ev(1));
            writer.push(ev(2)); // ring full: must drop, not wrap
        });
        let snap = ring.snapshot();
        for e in &snap {
            assert_eq!(e.ts_ns, 1, "slot 0 only ever holds the first event");
        }
        t.join().unwrap();
        assert_eq!(ring.snapshot().len(), 1);
        assert_eq!(ring.dropped(), 1);
    });
}
