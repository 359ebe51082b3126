//! Model-checked reducer-protocol tests (run with `--features model`).
//!
//! These drive the memory-mapped backend's hooks the way the scheduler
//! does around a steal — detach on the thief, deposit, hypermerge at the
//! join — under `cilkm_checker::model`, which explores every bounded
//! interleaving and every allowed weak-memory read. The SPA-map raw
//! accessors and the detached list (written once by `detach`, read once
//! by whoever merges, attaches or discards it) are trace-instrumented
//! under this feature, so a missing happens-before edge anywhere in the
//! handoff chain would surface as a data-race report — the last test
//! takes the edge out and requires that report — and a protocol bug as
//! an assertion failure in some schedule.
//!
//! Since PR 7 these tests run under the sleep-set DPOR engine with the
//! CHESS preemption bound *removed* (`Config::dpor()`): the reduction,
//! not the bound, keeps the schedule count tractable, so coverage is
//! genuinely exhaustive.

use std::sync::Arc;

use cilkm_checker as checker;
use cilkm_checker::sync::atomic::{AtomicBool, Ordering};
use cilkm_runtime::{DetachedViews, HyperHooks};

use crate::domain::{Backend, DomainInner, Slot};
use crate::mmap::{lookup_or_miss, MmapHooks};
use crate::monoid::{Monoid, MonoidInstance};

/// String concatenation: associative, *not* commutative — the stress
/// case for the hypermerge's serial-order discipline.
struct Concat;

impl Monoid for Concat {
    type View = String;
    fn identity(&self) -> String {
        String::new()
    }
    fn reduce(&self, left: &mut String, right: String) {
        left.push_str(&right);
    }
}

/// Appends `s` to the view of reducer `slot` in the calling thread's
/// current context, creating the view on first touch exactly as a real
/// reducer access would.
fn append(slot: Slot, inst: &MonoidInstance, domain: &DomainInner, s: &str) {
    let view =
        lookup_or_miss(domain.reducer_key(slot), inst).expect("calling thread has no worker state");
    // SAFETY: `lookup_or_miss` returned a live `Concat::View` created by
    // this monoid instance, and this thread owns the current context.
    unsafe { (*(view as *mut String)).push_str(s) };
}

/// Reads the view of reducer `slot` in the current context.
fn read(slot: Slot, inst: &MonoidInstance, domain: &DomainInner) -> String {
    let view =
        lookup_or_miss(domain.reducer_key(slot), inst).expect("calling thread has no worker state");
    // SAFETY: as in `append`.
    unsafe { (*(view as *mut String)).clone() }
}

/// View transferal + hypermerge across a simulated steal: the thief
/// builds the serially-*later* view, detaches, and deposits; the owner
/// builds the serially-earlier view and merges at the join. Under every
/// schedule the merged view must be exactly "LR" — left-to-right monoid
/// order, nothing dropped, nothing reduced twice.
#[test]
fn hypermerge_is_left_to_right_and_exact() {
    checker::model_with(checker::Config::dpor(), || {
        let domain = Arc::new(DomainInner::new(Backend::Mmap));
        let monoid = Arc::new(Concat);
        // One shared instance, as in a real `Reducer`: its address is
        // what SPA pairs store, so it must outlive every in-flight view.
        let inst = Arc::new(MonoidInstance::new(&monoid));
        let deposit: Arc<checker::sync::Mutex<Option<DetachedViews>>> =
            Arc::new(checker::sync::Mutex::new(None));

        let (d2, m2, i2, dep2) = (
            Arc::clone(&domain),
            Arc::clone(&monoid),
            Arc::clone(&inst),
            Arc::clone(&deposit),
        );
        let thief = checker::thread::spawn(move || {
            let _keep_alive = m2;
            let hooks = MmapHooks::new(Arc::clone(&d2));
            let mut state = hooks.make_worker_state(1);
            append(7, &i2, &d2, "R");
            let det = hooks.detach(state.as_mut());
            *dep2.lock() = Some(det);
        });

        let hooks = MmapHooks::new(Arc::clone(&domain));
        let mut state = hooks.make_worker_state(0);
        append(7, &inst, &domain, "L");
        let det = loop {
            if let Some(d) = deposit.lock().take() {
                break d;
            }
            checker::thread::yield_now();
        };
        hooks.merge_right(state.as_mut(), det);
        thief.join().unwrap();
        assert_eq!(read(7, &inst, &domain), "LR");
        // `state` drops here and drains the merged view.
    });
}

/// Transferal into an *empty* owner context (right set bigger than
/// left): the sweep finds every slot empty, so every view must arrive
/// exactly once, at its own slot, unreduced.
#[test]
fn transferal_delivers_each_view_exactly_once() {
    checker::model_with(checker::Config::dpor(), || {
        let domain = Arc::new(DomainInner::new(Backend::Mmap));
        let monoid = Arc::new(Concat);
        let inst = Arc::new(MonoidInstance::new(&monoid));
        let deposit: Arc<checker::sync::Mutex<Option<DetachedViews>>> =
            Arc::new(checker::sync::Mutex::new(None));

        let (d2, m2, i2, dep2) = (
            Arc::clone(&domain),
            Arc::clone(&monoid),
            Arc::clone(&inst),
            Arc::clone(&deposit),
        );
        let thief = checker::thread::spawn(move || {
            let _keep_alive = m2;
            let hooks = MmapHooks::new(Arc::clone(&d2));
            let mut state = hooks.make_worker_state(1);
            append(0, &i2, &d2, "A");
            append(9, &i2, &d2, "B");
            let det = hooks.detach(state.as_mut());
            *dep2.lock() = Some(det);
        });

        let hooks = MmapHooks::new(Arc::clone(&domain));
        let mut state = hooks.make_worker_state(0);
        let det = loop {
            if let Some(d) = deposit.lock().take() {
                break d;
            }
            checker::thread::yield_now();
        };
        hooks.merge_right(state.as_mut(), det);
        thief.join().unwrap();
        // Each view present exactly once: a dropped view would read "",
        // a double merge "AA"/"BB".
        assert_eq!(read(0, &inst, &domain), "A");
        assert_eq!(read(9, &inst, &domain), "B");
    });
}

/// The hand-over of `hypermerge_is_left_to_right_and_exact` with the
/// ordering taken out: the detached set crosses in a slot the checker
/// does not see and is announced by a `Relaxed` flag, so nothing orders
/// the thief's write of the list before the owner's read of it.
fn handover_through_a_relaxed_flag() {
    let domain = Arc::new(DomainInner::new(Backend::Mmap));
    let monoid = Arc::new(Concat);
    let inst = Arc::new(MonoidInstance::new(&monoid));
    #[expect(
        clippy::disallowed_types,
        reason = "the unmodeled slot is the seeded bug: a std mutex moves the box between threads without giving the checker a happens-before edge"
    )]
    let slot: Arc<std::sync::Mutex<Option<DetachedViews>>> = Arc::default();
    let ready = Arc::new(AtomicBool::new(false));

    let (d2, m2, i2, s2, r2) = (
        Arc::clone(&domain),
        Arc::clone(&monoid),
        Arc::clone(&inst),
        Arc::clone(&slot),
        Arc::clone(&ready),
    );
    let thief = checker::thread::spawn(move || {
        let _keep_alive = m2;
        let hooks = MmapHooks::new(Arc::clone(&d2));
        // Leaked, here and below: a worker state's drop drains its SPA
        // pages, which are traced accesses the checker refuses while it
        // unwinds the failing schedule.
        let mut state = std::mem::ManuallyDrop::new(hooks.make_worker_state(1));
        append(7, &i2, &d2, "R");
        *s2.lock().unwrap() = Some(hooks.detach(state.as_mut()));
        r2.store(true, Ordering::Relaxed);
    });

    let hooks = MmapHooks::new(Arc::clone(&domain));
    let mut state = std::mem::ManuallyDrop::new(hooks.make_worker_state(0));
    append(7, &inst, &domain, "L");
    while !ready.load(Ordering::Relaxed) {
        checker::thread::yield_now();
    }
    let det = slot
        .lock()
        .unwrap()
        .take()
        .expect("flag set after the slot");
    hooks.merge_right(state.as_mut(), det);
    thief.join().unwrap();
}

/// The negative control: without the join frame's release/acquire the
/// detached list is shared unsynchronized, and the checker says so.
#[test]
fn handover_through_a_relaxed_flag_is_a_race() {
    let err = checker::try_model_with(checker::Config::dpor(), handover_through_a_relaxed_flag)
        .expect_err("an unordered hand-over of the detached list must be flagged");
    assert!(
        err.message.contains("data race") && err.message.contains("DetachedViews"),
        "unexpected failure: {}",
        err.message
    );
}
