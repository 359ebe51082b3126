//! Model-checked protocol tests (run with `--features model`).
//!
//! Each test hands a small closed protocol instance to
//! `cilkm_checker::model`, which re-runs it under every schedule (bounded
//! by the preemption budget) and every allowed weak-memory read, failing
//! on assertion violations, data races on plain memory, and deadlocks.
//! Timeouts never fire under the model, so a lost wakeup — which the real
//! runtime would paper over with its 10 ms park backstop — surfaces as a
//! hard deadlock report.

use std::sync::Arc;

use cilkm_checker as checker;

use crate::deque::{deque, Steal};
use crate::latch::{Latch, LockLatch, SpinLatch};
use crate::msync::atomic::{AtomicBool, AtomicUsize, Ordering};
use crate::sleep::SleepGate;
use crate::sync::SpinLock;

/// The sleeper/waker handshake (crate::sleep) has no lost wakeups: a
/// producer that publishes work and calls `signal_one` always ends with
/// the consumer observing the work, under every interleaving and every
/// allowed stale read. Since PR 7 this runs under DPOR at *unbounded*
/// preemption depth — the PR 1 soundness anchor, no longer relying on
/// the preemption budget to terminate.
#[test]
fn sleeper_handshake_no_lost_wakeup() {
    let report = checker::try_model_with(checker::Config::dpor(), || {
        let gate = Arc::new(SleepGate::new(1));
        let work = Arc::new(AtomicUsize::new(0));
        let (g2, w2) = (Arc::clone(&gate), Arc::clone(&work));
        let consumer = checker::thread::spawn(move || {
            g2.register_current(0);
            while w2.load(Ordering::Acquire) == 0 {
                g2.sleep(0, || w2.load(Ordering::Acquire) != 0);
            }
        });
        work.store(1, Ordering::Release);
        gate.signal_one();
        consumer.join().unwrap();
    })
    .expect("handshake must be wakeup-safe");
    assert!(report.complete, "DPOR must exhaust the handshake");
    // The interesting interleavings exist (park vs. retract vs. unpark).
    assert!(
        report.schedules > 1,
        "explored {} schedules",
        report.schedules
    );
}

/// The region flag (`Registry::region_open`) only chooses how an idle
/// worker waits, so reading it stale must cost latency at most: a worker
/// that still sees `false` after `inject` set it goes through
/// `SleepGate::sleep`, whose re-check or the injector's `signal_all`
/// covers the job; one that sees `true` sweeps until it finds it.
#[test]
fn stale_region_flag_loses_no_wakeup() {
    let report = checker::try_model_with(checker::Config::dpor(), || {
        let gate = Arc::new(SleepGate::new(1));
        let open = Arc::new(AtomicBool::new(false));
        let injected = Arc::new(AtomicUsize::new(0));
        let (g2, o2, i2) = (Arc::clone(&gate), Arc::clone(&open), Arc::clone(&injected));
        let worker = checker::thread::spawn(move || {
            g2.register_current(0);
            while i2.load(Ordering::Acquire) == 0 {
                if o2.load(Ordering::Acquire) {
                    checker::thread::yield_now(); // the hot wait
                } else {
                    g2.sleep(0, || i2.load(Ordering::Acquire) != 0);
                }
            }
        });
        // `Registry::inject`, in its order.
        open.store(true, Ordering::Release);
        injected.fetch_add(1, Ordering::Release);
        gate.signal_all();
        worker.join().unwrap();
    })
    .expect("a stale region flag must not lose the wakeup");
    assert!(report.complete, "DPOR must exhaust the scenario");
    assert!(
        report.schedules > 1,
        "explored {} schedules",
        report.schedules
    );
}

/// The `signal_one_racy` scenario: waker omits its `SeqCst` fence, so
/// its `Relaxed` sleeper-count load can miss a just-parked consumer
/// whose own re-check missed the published work — a lost wakeup, which
/// the model reports as a deadlock.
fn racy_handshake() {
    let gate = Arc::new(SleepGate::new(1));
    let work = Arc::new(AtomicUsize::new(0));
    let (g2, w2) = (Arc::clone(&gate), Arc::clone(&work));
    let consumer = checker::thread::spawn(move || {
        g2.register_current(0);
        while w2.load(Ordering::Acquire) == 0 {
            g2.sleep(0, || w2.load(Ordering::Acquire) != 0);
        }
    });
    work.store(1, Ordering::Release);
    gate.signal_one_racy();
    consumer.join().unwrap();
}

/// Regression for the pre-PR-1 bug: `signal_one_racy` omits the
/// waker-side `SeqCst` fence, so its `Relaxed` sleeper-count load can
/// miss a just-parked consumer whose own re-check missed the published
/// work. Under the model the lost wakeup is a deadlock, and the checker
/// must find it.
#[test]
fn sleeper_regression_is_detected() {
    let err =
        checker::try_model(racy_handshake).expect_err("the fence-less waker must lose a wakeup");
    assert!(
        err.message.contains("deadlock"),
        "unexpected failure: {}",
        err.message
    );
}

/// The same regression stays red under unbounded-preemption DPOR: the
/// sleep sets and happens-before filter must never prune away the
/// interleaving class holding the lost wakeup (PR 7 soundness gate).
#[test]
fn sleeper_regression_is_detected_by_dpor() {
    let err = checker::try_model_with(checker::Config::dpor(), racy_handshake)
        .expect_err("DPOR must find the fence-less waker's lost wakeup");
    assert!(
        err.message.contains("deadlock"),
        "unexpected failure: {}",
        err.message
    );
}

/// A single deque item is claimed exactly once when the owner's `pop`
/// races a thief's `steal` — the Chase–Lev bottom/top CAS protocol's
/// central guarantee (one of them wins, never both, never neither).
#[test]
fn deque_single_item_claimed_exactly_once() {
    checker::model(|| {
        let (owner, stealer) = deque();
        owner.push(0x8 as *mut ());
        let thief = checker::thread::spawn(move || loop {
            match stealer.steal() {
                Steal::Success(_) => return 1usize,
                Steal::Retry => continue,
                Steal::Empty => return 0,
            }
        });
        let mine = usize::from(owner.pop().is_some());
        let stolen = thief.join().unwrap();
        assert_eq!(mine + stolen, 1, "item claimed {} times", mine + stolen);
    });
}

/// `SpinLatch::set` (Release) publishes everything written before it to a
/// waiter that observed `probe` (Acquire) — the payload handoff every
/// join in the runtime relies on. The payload is a `TraceCell`, so a
/// missing edge would also surface as a data-race report.
#[test]
fn spin_latch_publishes_payload() {
    checker::model(|| {
        let latch = Arc::new(SpinLatch::new());
        let data = Arc::new(checker::cell::TraceCell::new(0u32));
        let (l2, d2) = (Arc::clone(&latch), Arc::clone(&data));
        let setter = checker::thread::spawn(move || {
            // SAFETY: the latch handshake makes this the only access
            // until `set` publishes it.
            d2.with_mut(|p| unsafe { *p = 42 });
            l2.set();
        });
        while !latch.probe() {
            checker::thread::yield_now();
        }
        // SAFETY: `probe()` returned true, so the setter's write
        // happened-before this read and no writer remains.
        let got = data.with(|p| unsafe { *p });
        assert_eq!(got, 42, "latch fired before payload was visible");
        setter.join().unwrap();
    });
}

/// `LockLatch` (a flag and the waiter's park token, the blocking latch
/// under `Pool::run`) never loses its set: the waiter always wakes, even
/// when `set` stores and unparks between the waiter's load of the flag
/// and its park. The model's `park_timeout` never times out, so a lost
/// unpark would show as a deadlock.
#[test]
fn lock_latch_set_always_wakes_waiter() {
    checker::model(|| {
        let latch = Arc::new(LockLatch::new());
        let l2 = Arc::clone(&latch);
        let setter = checker::thread::spawn(move || l2.set());
        latch.wait();
        assert!(latch.probe());
        setter.join().unwrap();
    });
}

/// `SpinLock` is mutually exclusive and its unlock (Release store)
/// publishes the protected writes to the next holder: two increments
/// from two threads always sum.
#[test]
fn spin_lock_serializes_increments() {
    checker::model(|| {
        let lock = Arc::new(SpinLock::new(0u64));
        let l2 = Arc::clone(&lock);
        let t = checker::thread::spawn(move || *l2.lock() += 1);
        *lock.lock() += 1;
        t.join().unwrap();
        assert_eq!(*lock.lock(), 2);
    });
}
