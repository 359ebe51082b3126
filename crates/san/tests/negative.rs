//! Negative controls for the sanitizer's own primitives: seeded bugs
//! that MUST be detected, plus properly synchronized twins that must
//! stay clean. (The runtime-level control — determinacy races through
//! real spawn/sync — lives in `tests/sanitize_negative.rs`.)
//!
//! All tests share one process-global sanitizer state, so every
//! scenario uses a unique site label and asserts only on findings
//! carrying its own label.

use cilkm_san::report::Detector;
use cilkm_san::{plain_write, snapshot, sync::Mutex, thread};

/// Findings for one site label in the current snapshot.
fn findings_at(site: &str) -> Vec<(Detector, String)> {
    snapshot()
        .findings
        .into_iter()
        .filter(|f| f.site == site)
        .map(|f| (f.detector, f.message))
        .collect()
}

#[test]
fn unsynchronized_counter_is_reported() {
    // Two threads bump a "plain" counter with no synchronization at
    // all. The address is leaked so no later test can reuse it.
    let addr = Box::leak(Box::new(0u64)) as *mut u64 as usize;
    let t1 = thread::spawn(move || plain_write(addr, "negative.racy-counter"));
    let t2 = thread::spawn(move || plain_write(addr, "negative.racy-counter"));
    t1.join().unwrap();
    t2.join().unwrap();

    let found = findings_at("negative.racy-counter");
    assert!(
        found
            .iter()
            .any(|(d, m)| *d == Detector::Race && m.contains("write-write")),
        "seeded racy counter was not detected: {found:?}"
    );
}

#[test]
fn fork_join_ordered_counter_stays_clean() {
    // Same shape, but the second writer starts only after joining the
    // first: the fork/join edges order the writes.
    let addr = Box::leak(Box::new(0u64)) as *mut u64 as usize;
    thread::spawn(move || plain_write(addr, "negative.joined-counter"))
        .join()
        .unwrap();
    thread::spawn(move || plain_write(addr, "negative.joined-counter"))
        .join()
        .unwrap();

    assert_eq!(
        findings_at("negative.joined-counter"),
        vec![],
        "fork/join-ordered writes must not race"
    );
}

#[test]
fn ab_ba_lock_inversion_is_reported() {
    // One thread takes A then B, another takes B then A — sequentially,
    // so there is no deadlock, but the acquisition-order cycle is real.
    let locks = Box::leak(Box::new((Mutex::new(0u32), Mutex::new(0u32))));
    let (a, b) = (&locks.0, &locks.1);
    thread::spawn(move || {
        let ga = a.lock();
        let gb = b.lock();
        drop(gb);
        drop(ga);
    })
    .join()
    .unwrap();
    thread::spawn(move || {
        let gb = b.lock();
        let ga = a.lock();
        drop(ga);
        drop(gb);
    })
    .join()
    .unwrap();

    let found = findings_at("Mutex");
    assert!(
        found.iter().any(|(d, _)| *d == Detector::LockOrder),
        "seeded AB/BA inversion was not detected: {found:?}"
    );
}

#[test]
fn release_acquire_and_unpark_order_a_handoff() {
    use cilkm_san::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    // The parker publishes its handle, the writer thread writes,
    // releases a flag, and unparks it; the parker re-checks the flag
    // after each wakeup and then writes the same location. The
    // instrumented flag makes the edge deterministic (the unpark edge
    // alone would race with a timeout-before-unpark wakeup).
    let addr = Box::leak(Box::new(0u64)) as *mut u64 as usize;
    let ready: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let slot: &'static Mutex<Option<thread::Thread>> = Box::leak(Box::new(Mutex::new(None)));

    let parker = thread::spawn(move || {
        *slot.lock() = Some(thread::current());
        while !ready.load(Ordering::Acquire) {
            thread::park_timeout(Duration::from_millis(1));
        }
        plain_write(addr, "negative.parked-writer");
    });
    let waker = thread::spawn(move || {
        plain_write(addr, "negative.parked-writer");
        ready.store(true, Ordering::Release);
        loop {
            if let Some(t) = slot.lock().as_ref() {
                t.unpark();
                break;
            }
            thread::yield_now();
        }
    });
    parker.join().unwrap();
    waker.join().unwrap();

    assert_eq!(
        findings_at("negative.parked-writer"),
        vec![],
        "park/unpark handoff must carry a happens-before edge"
    );
}
