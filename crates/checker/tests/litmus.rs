//! Litmus tests for the checker itself: known-good protocols must pass
//! under every explored schedule, and known-bad ones must be caught.

use std::sync::Arc;

use cilkm_checker::cell::TraceCell;
use cilkm_checker::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use cilkm_checker::sync::Mutex;
use cilkm_checker::{model, thread, try_model};

/// Message passing with release/acquire is sound: if the acquire load
/// sees the flag, the data store is visible.
#[test]
fn mp_release_acquire_passes() {
    let report = try_model(|| {
        let flag = Arc::new(AtomicBool::new(false));
        let data = Arc::new(AtomicUsize::new(0));
        let (f2, d2) = (flag.clone(), data.clone());
        let t = thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(true, Ordering::Release);
        });
        if flag.load(Ordering::Acquire) {
            assert_eq!(data.load(Ordering::Relaxed), 42);
        }
        t.join().unwrap();
    })
    .expect("release/acquire message passing must verify");
    assert!(report.schedules > 1, "expected multiple schedules explored");
}

/// The same protocol with a Relaxed flag store is broken, and the model
/// must find the schedule where the data read is stale.
#[test]
fn mp_relaxed_flag_detected() {
    let err = try_model(|| {
        let flag = Arc::new(AtomicBool::new(false));
        let data = Arc::new(AtomicUsize::new(0));
        let (f2, d2) = (flag.clone(), data.clone());
        let t = thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(true, Ordering::Relaxed);
        });
        if flag.load(Ordering::Acquire) {
            assert_eq!(
                data.load(Ordering::Relaxed),
                42,
                "stale data after relaxed flag"
            );
        }
        t.join().unwrap();
    })
    .expect_err("relaxed message passing must be refuted");
    assert!(
        err.message.contains("stale data"),
        "unexpected failure: {err}"
    );
}

/// Store buffering: with SeqCst accesses, at least one thread must see
/// the other's store.
#[test]
fn sb_seqcst_passes() {
    try_model(|| {
        let x = Arc::new(AtomicUsize::new(0));
        let y = Arc::new(AtomicUsize::new(0));
        let (x2, y2) = (x.clone(), y.clone());
        let t = thread::spawn(move || {
            x2.store(1, Ordering::SeqCst);
            y2.load(Ordering::SeqCst)
        });
        y.store(1, Ordering::SeqCst);
        let r1 = x.load(Ordering::SeqCst);
        let r2 = t.join().unwrap();
        assert!(r1 == 1 || r2 == 1, "SeqCst store buffering violated");
    })
    .expect("SeqCst store buffering must verify");
}

/// Store buffering with Relaxed accesses can read both zeros; the model
/// must reach that outcome.
#[test]
fn sb_relaxed_detected() {
    try_model(|| {
        let x = Arc::new(AtomicUsize::new(0));
        let y = Arc::new(AtomicUsize::new(0));
        let (x2, y2) = (x.clone(), y.clone());
        let t = thread::spawn(move || {
            x2.store(1, Ordering::Relaxed);
            y2.load(Ordering::Relaxed)
        });
        y.store(1, Ordering::Relaxed);
        let r1 = x.load(Ordering::Relaxed);
        let r2 = t.join().unwrap();
        assert!(r1 == 1 || r2 == 1, "both-zero outcome reached");
    })
    .expect_err("relaxed store buffering must reach the both-zero outcome");
}

/// SeqCst *fences* between relaxed accesses also forbid the both-zero
/// outcome (this is the pattern the sleeper protocol uses).
#[test]
fn sb_seqcst_fence_passes() {
    try_model(|| {
        let x = Arc::new(AtomicUsize::new(0));
        let y = Arc::new(AtomicUsize::new(0));
        let (x2, y2) = (x.clone(), y.clone());
        let t = thread::spawn(move || {
            x2.store(1, Ordering::Relaxed);
            fence(Ordering::SeqCst);
            y2.load(Ordering::Relaxed)
        });
        y.store(1, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let r1 = x.load(Ordering::Relaxed);
        let r2 = t.join().unwrap();
        assert!(r1 == 1 || r2 == 1, "SeqCst-fenced store buffering violated");
    })
    .expect("SeqCst-fenced store buffering must verify");
}

/// Unsynchronized plain-memory writes are flagged as a data race.
#[test]
fn plain_race_detected() {
    let err = try_model(|| {
        let cell = Arc::new(TraceCell::new(0usize));
        let c2 = cell.clone();
        let t = thread::spawn(move || {
            c2.with_mut(|p| {
                // SAFETY: intentionally racy for the test; the model
                // aborts the schedule before UB can matter (the pointer
                // itself is valid and aligned).
                unsafe { *p += 1 }
            });
        });
        cell.with_mut(|p| {
            // SAFETY: as above — valid pointer, race is the point.
            unsafe { *p += 1 }
        });
        t.join().unwrap();
    })
    .expect_err("unsynchronized writes must race");
    assert!(err.message.contains("data race"), "unexpected: {err}");
}

/// The same writes under a mutex are race-free and lose no increments.
#[test]
fn mutex_serializes_writes() {
    model(|| {
        let counter = Arc::new(Mutex::new(0usize));
        let c2 = counter.clone();
        let t = thread::spawn(move || {
            *c2.lock() += 1;
        });
        *counter.lock() += 1;
        t.join().unwrap();
        assert_eq!(*counter.lock(), 2);
    });
}

/// Classic ABBA lock-order inversion deadlocks in some schedule.
#[test]
fn abba_deadlock_detected() {
    let err = try_model(|| {
        let a = Arc::new(Mutex::new(()));
        let b = Arc::new(Mutex::new(()));
        let (a2, b2) = (a.clone(), b.clone());
        let t = thread::spawn(move || {
            let _ga = a2.lock();
            let _gb = b2.lock();
        });
        let _gb = b.lock();
        let _ga = a.lock();
        drop((_ga, _gb));
        t.join().unwrap();
    })
    .expect_err("ABBA locking must deadlock in some schedule");
    assert!(err.message.contains("deadlock"), "unexpected: {err}");
}

/// A park with no matching unpark is reported as a deadlock rather than
/// hanging the test.
#[test]
fn lost_park_detected() {
    let err = try_model(|| {
        let t = thread::spawn(|| {
            thread::park();
        });
        t.join().unwrap();
    })
    .expect_err("park without unpark must deadlock");
    assert!(err.message.contains("deadlock"), "unexpected: {err}");
}

/// Unpark-before-park leaves a token, so the park returns immediately
/// in every schedule.
#[test]
fn unpark_token_is_kept() {
    model(|| {
        let parked = Arc::new(AtomicBool::new(false));
        let p2 = parked.clone();
        let t = thread::spawn(move || {
            thread::park();
            p2.store(true, Ordering::Release);
        });
        t.thread().unpark();
        t.join().unwrap();
        assert!(parked.load(Ordering::Acquire));
    });
}

/// Spawn/join transfers happens-before: the parent sees the child's
/// plain writes after join without extra synchronization.
#[test]
fn join_transfers_clock() {
    model(|| {
        let cell = Arc::new(TraceCell::new(0usize));
        let c2 = cell.clone();
        let t = thread::spawn(move || {
            c2.with_mut(|p| {
                // SAFETY: single writer; the parent only reads after join.
                unsafe { *p = 7 }
            });
        });
        t.join().unwrap();
        let v = cell.with(|p| {
            // SAFETY: child finished and was joined; no concurrent writer.
            unsafe { *p }
        });
        assert_eq!(v, 7);
    });
}

/// A spin on a flag that nothing sets, with no `yield_now`, never ends;
/// the model cuts it off at its visible-operation bound and says so
/// instead of hanging the test.
#[test]
fn unyielding_spin_is_a_livelock() {
    let err = try_model(|| {
        let flag = AtomicBool::new(false);
        // Cut off at 25 000 loads only so that a checker without its
        // bound fails here instead of logging steps until memory runs out.
        for _ in 0..25_000 {
            if flag.load(Ordering::Relaxed) {
                return;
            }
        }
        panic!("25000 loads ran unchecked");
    })
    .expect_err("an endless spin must trip the step bound");
    assert!(
        err.message
            .starts_with("livelock: execution exceeded 20000 visible operations"),
        "unexpected: {err}"
    );
}

/// The model caps an execution at eight threads, main included: the
/// eighth child is refused with a report, not spawned.
#[test]
fn ninth_thread_is_refused() {
    let err = try_model(|| {
        for _ in 0..8 {
            thread::spawn(|| {});
        }
        // Without the cap the first schedule ends here, not in a search
        // over every order the eight children can finish in.
        panic!("an eighth child was spawned");
    })
    .expect_err("eight children exceed the thread bound");
    assert!(
        err.message.contains("model thread limit exceeded (8)"),
        "unexpected: {err}"
    );
}

/// Makes an atomic on this frame, loads it, stores `v` and lets it die.
/// Returns the atomic's address and the value the load read.
#[inline(never)]
fn short_lived_atomic(v: usize) -> (usize, usize) {
    let a = AtomicUsize::new(0);
    let read = a.load(Ordering::Relaxed);
    a.store(v, Ordering::Relaxed);
    (std::ptr::addr_of!(a) as usize, read)
}

/// An atomic made where a dead one lived starts from its own initial
/// value: the dead atomic's store history goes with it.
#[test]
fn new_atomic_at_a_dead_ones_address_reads_its_own_value() {
    try_model(|| {
        let (first, read_first) = short_lived_atomic(7);
        let (second, read_second) = short_lived_atomic(9);
        // Both calls use one stack slot; otherwise the probe is vacuous.
        assert_eq!(first, second, "the two atomics must share an address");
        assert_eq!(read_first, 0);
        assert_eq!(read_second, 0, "read the dead atomic's store");
    })
    .expect("a new atomic reads its own initial value");
}
