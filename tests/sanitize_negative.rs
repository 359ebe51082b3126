//! Negative control: the SP determinacy-race detector must flag logically
//! parallel unsynchronized writes that ride through the *real* scheduler.
//!
//! The racy-counter and AB/BA lock-inversion controls live in
//! `crates/san/tests/negative.rs`; this binary covers the piece that needs the
//! full runtime: offset-span labels threaded through `join` by the spawn/sync
//! hooks. Both branches of a `join` write the same location with no
//! synchronization. Whether or not the right branch is actually stolen, the
//! two strands carry sibling SP labels, so the determinacy detector fires
//! even on the serial (no-steal) execution where FastTrack alone would not.
//!
//! A second case covers the facade's own hooks: two unsynchronized threads
//! from `msync::thread::spawn_with` report plain accesses through
//! `msync::note_write` and `msync::note_read`, and FastTrack must see both.
//!
//! Findings are process-global, so this lives in its own test binary and the
//! clean-run suite lives in another (`sanitize_clean.rs`).
#![cfg(all(feature = "sanitize", not(feature = "model")))]

use cilkm::obs::msync;
use cilkm::prelude::*;
use cilkm::san;

#[test]
fn join_branches_racing_on_plain_location_are_reported() {
    // Leaked so the address is never reused by another allocation.
    let cell: &'static mut u64 = Box::leak(Box::new(0));
    let addr = cell as *mut u64 as usize;

    let pool = ReducerPool::new(2, Backend::Mmap);
    pool.run(|| {
        join(
            || {
                san::plain_write(addr, "negative.sp-counter");
            },
            || {
                san::plain_write(addr, "negative.sp-counter");
            },
        );
    });
    drop(pool);

    let report = san::snapshot();
    let hit = report.findings.iter().any(|f| {
        f.detector == san::report::Detector::DeterminacyRace && f.site == "negative.sp-counter"
    });
    assert!(
        hit,
        "expected a determinacy-race finding at negative.sp-counter, got: {}",
        report.to_json()
    );
}

/// True when the report holds a FastTrack race at `site`.
fn race_at(site: &str) -> bool {
    san::snapshot()
        .findings
        .iter()
        .any(|f| f.detector == san::report::Detector::Race && f.site == site)
}

#[test]
fn facade_hooks_feed_fasttrack() {
    // Leaked so neither address is reused by another allocation.
    let cells: &'static mut [u64; 2] = Box::leak(Box::new([0; 2]));
    let written = &cells[0] as *const u64 as usize;
    let read = &cells[1] as *const u64 as usize;

    // Both threads are forked before either is joined, and nothing the
    // sanitizer sees orders them, so each pair conflicts in any schedule.
    let writer = msync::thread::spawn_with("facade-a".into(), 1 << 20, move || {
        msync::note_write(written, "negative.facade-write");
        msync::note_write(read, "negative.facade-read");
    });
    let reader = msync::thread::spawn_with("facade-b".into(), 1 << 20, move || {
        msync::note_write(written, "negative.facade-write");
        msync::note_read(read, "negative.facade-read");
    });
    writer.join().unwrap();
    reader.join().unwrap();

    for site in ["negative.facade-write", "negative.facade-read"] {
        assert!(
            race_at(site),
            "expected a FastTrack race at {site}, got: {}",
            san::snapshot().to_json()
        );
    }
}
