//! The fork-join primitive, with the reducer view protocol threaded
//! through it.
//!
//! `join(a, b)` is the child-stealing rendering of
//! `cilk_spawn a(); b(); cilk_sync;` — see the crate docs for the mapping.
//! The join frame ([`StackJob`]) plays the role of the paper's *full
//! frame*: its deposit slot is the right-sibling placeholder that a
//! terminating thief fills by view transferal, and the owner performs the
//! hypermerge once both sides are done.

use std::panic::{self, AssertUnwindSafe};

use cilkm_obs::{profile, trace, EventKind};

use crate::job::{JobResult, StackJob};
use crate::registry::WorkerThread;

/// Runs `a` and `b`, potentially in parallel, and returns both results.
///
/// Semantics mirror a Cilk spawn/sync pair with `a` serially earlier than
/// `b`:
///
/// * On a pool worker, `a` runs inline and `b` is published for thieves.
///   If nobody steals `b`, the worker pops it back and runs it in the
///   same execution context — the serial fast path with zero reducer
///   overhead (§3 of the paper).
/// * If `b` is stolen, the thief runs it in a fresh context (empty view
///   set); when both sides finish, the views are reduced in serial order
///   (`a`'s ⊗ `b`'s) by the waiting worker.
/// * Outside a pool, `a` and `b` simply run sequentially.
///
/// # Panics
///
/// If either closure panics, the panic is propagated after both sides
/// have quiesced; with both panicking, `a`'s (serially earlier) panic
/// wins. Views accumulated by a panicked join are destroyed, not merged.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    match WorkerThread::current() {
        None => (a(), b()),
        Some(worker) => join_on_worker(worker, a, b),
    }
}

fn join_on_worker<A, B, RA, RB>(worker: &WorkerThread, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let job_b = StackJob::new(b);
    // DAG identity + the spawn point's span pair travel in the header
    // through the deque; both calls are one relaxed load when off.
    let tid = trace::next_task_id();
    job_b.header().prepare(tid, profile::spawn_point());
    // SP labels for the sanitizer's determinacy detector: the current
    // strand forks — `a` continues as the left sibling, `b` (stolen or
    // not) executes as the right. No-ops unless `sanitize` is on.
    let sp_frame = crate::sanhooks::sp_current();
    let (sp_cont, sp_child) = crate::sanhooks::sp_fork(sp_frame);
    job_b.header().set_sp_label(sp_child);
    let _ = crate::sanhooks::sp_enter(sp_cont);
    trace::emit(EventKind::Spawn, tid);
    let job_ref = job_b.as_job_ref();
    worker.push(job_ref);

    // Run the serially-earlier side inline, in the current context.
    let ra = panic::catch_unwind(AssertUnwindSafe(a));

    // The sync point: pause the current strand before the wait loop (any
    // foreign jobs executed while waiting nest their own contexts), and
    // remember the continuation's span pair for the fold below.
    let left = profile::sync_pause();
    trace::emit(EventKind::SyncBegin, tid);

    // Wait for b: pop it back if unstolen, leapfrog otherwise.
    let popped_own = worker.wait_for_latch(&job_b.latch, job_ref);

    let rb: JobResult<RB>;
    let mut deposit = None;
    // The joined strand's final span pair ((0,0) if it never ran).
    let mut child = (0u64, 0u64);
    if popped_own {
        if ra.is_ok() {
            worker.note_inline_join();
            trace::emit(EventKind::StrandBegin, tid);
            // Inline execution continues from the spawn point's pair in
            // the owner's (paused) context slot.
            let strand = profile::strand_begin(job_b.header().spawn_span());
            // Even inline, `b` is logically the right strand of the
            // fork — its label must differ from the continuation's.
            let sp_prev = crate::sanhooks::sp_enter(job_b.header().sp_label());
            // SAFETY: we popped our own push of `job_b` before anyone
            // stole it, so it is unexecuted and this thread is its only
            // owner.
            rb = unsafe { job_b.run_inline() };
            crate::sanhooks::sp_exit(sp_prev);
            child = profile::strand_end(strand);
            trace::emit(EventKind::StrandEnd, tid);
        } else {
            // a panicked and b was never stolen: serial semantics say b
            // never runs. Drop the closure unrun.
            // SAFETY: same exclusive ownership as the branch above; the
            // closure has not run and is dropped exactly once.
            unsafe { job_b.cancel() };
            rb = JobResult::None;
        }
    } else {
        worker.note_stolen_join();
        // SAFETY: the latch is set, so the thief finished executing
        // `job_b` and published the deposit, result, and final span
        // before the release store `wait_for_latch` acquired; each is
        // taken once.
        deposit = unsafe { job_b.take_deposit() };
        // SAFETY: as above.
        child = unsafe { job_b.header().final_span() };
        // SAFETY: as above.
        rb = unsafe { job_b.take_result() };
    }

    // The hypermerge (or, on a panic path, destruction of the orphaned
    // right views).
    let mut merge_ns = 0;
    if let Some(dep) = deposit {
        let hooks = worker.registry().hooks();
        if ra.is_ok() && matches!(rb, JobResult::Ok(_)) {
            let t0 = if profile::profiling() {
                cilkm_obs::clock::now_ns()
            } else {
                0
            };
            trace::emit(EventKind::MergeBegin, 0);
            worker.with_state(|s| hooks.merge_right(s, dep));
            trace::emit(EventKind::MergeEnd, 0);
            if t0 != 0 {
                merge_ns = cilkm_obs::clock::now_ns().saturating_sub(t0);
            }
        } else {
            hooks.discard(dep);
        }
    }

    // Resume the continuation: the post-sync span is the later of the
    // continuation and the joined strand, and the merge burdens it.
    profile::sync_resume(left.0.max(child.0), left.1.max(child.1), merge_ns);
    // The sync point: both forked labels are now serially before the
    // bumped frame this strand continues as.
    crate::sanhooks::sp_join(sp_frame);
    trace::emit(EventKind::SyncEnd, tid);

    match ra {
        Err(p) => panic::resume_unwind(p),
        Ok(ra) => (ra, rb.into_return_value()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Pool;

    #[test]
    fn join_outside_pool_runs_sequentially() {
        let (x, y) = join(|| 1, || 2);
        assert_eq!((x, y), (1, 2));
    }

    #[test]
    fn join_inside_pool_returns_both() {
        let pool = Pool::new(2);
        let (x, y) = pool.run(|| join(|| 40, || 2));
        assert_eq!(x + y, 42);
    }

    fn fib(n: u64) -> u64 {
        if n < 2 {
            n
        } else {
            let (a, b) = join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
    }

    #[test]
    fn nested_joins_compute_fib() {
        let pool = Pool::new(4);
        assert_eq!(pool.run(|| fib(18)), 2584);
    }

    #[test]
    fn join_generates_steals_with_multiple_workers() {
        let pool = Pool::new(4);
        pool.run(|| fib(20));
        let stats = pool.stats();
        assert!(stats.inline_joins + stats.stolen_joins > 0);
        // With 4 workers contending, at least something should be stolen
        // over this many joins (not guaranteed in theory, overwhelmingly
        // likely in practice; fib(20) has thousands of joins).
        assert!(stats.jobs_executed >= 1);
    }

    #[test]
    #[should_panic(expected = "left boom")]
    fn left_panic_propagates() {
        let pool = Pool::new(2);
        pool.run(|| {
            join(|| panic!("left boom"), || 2);
        });
    }

    #[test]
    #[should_panic(expected = "right boom")]
    fn right_panic_propagates() {
        let pool = Pool::new(2);
        pool.run(|| {
            join(|| 1, || panic!("right boom"));
        });
    }

    #[test]
    fn left_panic_wins_over_right() {
        let pool = Pool::new(2);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(|| {
                join::<_, _, (), ()>(|| panic!("left"), || panic!("right"));
            });
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or("?");
        assert_eq!(msg, "left");
    }

    #[test]
    fn deep_panic_inside_fib_tree_does_not_hang() {
        fn poisoned_fib(n: u64) -> u64 {
            if n == 7 {
                panic!("poison at 7");
            }
            if n < 2 {
                n
            } else {
                let (a, b) = join(|| poisoned_fib(n - 1), || poisoned_fib(n - 2));
                a + b
            }
        }
        let pool = Pool::new(4);
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| pool.run(|| poisoned_fib(15))));
        assert!(res.is_err());
        // Pool remains usable.
        assert_eq!(pool.run(|| fib(10)), 55);
    }
}
