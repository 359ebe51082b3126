//! Multi-way fork-join: `scope` + `spawn`.
//!
//! [`join`] is the faithful rendering of `cilk_spawn`/`cilk_sync` (child
//! runs first, continuation stealable), and nested joins express any
//! Cilk program. `scope` adds the *help-first* idiom — fire off many
//! tasks, then wait — which Cilk itself lacks but TBB/Rayon users
//! expect.
//!
//! ## Reducer semantics of a scope
//!
//! Each spawned task runs in its own execution context (empty view set;
//! lazily created identities), and its views are deposited into the
//! scope tagged with the task's **spawn index**. When the scope closes,
//! the owner merges all deposits in spawn order:
//!
//! ```text
//! final views = owner's views ⊗ spawn₀'s views ⊗ spawn₁'s views ⊗ …
//! ```
//!
//! This is deterministic for any associative monoid, but note the
//! difference from `join`: the *owner's* in-scope updates are ordered
//! before all spawned tasks' (a help-first scheduler cannot interleave
//! them the way serial execution would). For commutative reducers this
//! is invisible; for non-commutative reducers, use nested [`join`]s when
//! exact serial order matters, as documented on [`Scope::spawn`].
//!
//! [`join`]: crate::join

use crate::msync::atomic::{AtomicUsize, Ordering};
use crate::msync::Mutex;
use std::any::Any;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};

use cilkm_obs::{profile, trace, EventKind};

use crate::hooks::DetachedViews;
use crate::job::{JobHeader, JobRef};
use crate::latch::{Latch, SpinLatch};
use crate::registry::WorkerThread;

/// A fork scope: spawn any number of tasks; all complete before
/// [`scope`] returns.
pub struct Scope<'scope> {
    /// Tasks spawned but not yet completed (starts at 1 for the scope
    /// body itself, so the count cannot hit zero early).
    pending: AtomicUsize,
    /// Set when `pending` reaches zero.
    done: SpinLatch,
    /// Monotone spawn-order tag.
    next_index: AtomicUsize,
    /// Deposited view sets, tagged by spawn index and carrying the
    /// task's final `(span, bspan)` pair for the close-time fold.
    deposits: Mutex<Vec<Deposit>>,
    /// First panic from any spawned task.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Ties spawned closures' borrows to the scope call.
    _marker: PhantomData<fn(&'scope ()) -> &'scope ()>,
}

/// A spawned task's deposit: spawn index, detached views, and the
/// task's final `(span, bspan)` pair.
type Deposit = (usize, DetachedViews, (u64, u64));

/// A boxed spawned-task closure, receiving the scope to allow sibling
/// spawns.
type SpawnFn<'scope> = Box<dyn FnOnce(&Scope<'scope>) + Send + 'scope>;

/// A heap-allocated spawned task.
#[repr(C)]
struct ScopeJob<'scope> {
    header: JobHeader,
    scope: *const Scope<'scope>,
    index: usize,
    func: Option<SpawnFn<'scope>>,
}

impl<'scope> ScopeJob<'scope> {
    unsafe fn execute(ptr: *const ()) {
        // Reconstitute the box (it was leaked into the deque).
        let mut job = Box::from_raw(ptr as *mut ScopeJob<'scope>);
        let scope = &*job.scope;
        let func = job.func.take().expect("scope job executed twice");
        trace::emit(EventKind::JobBegin, 0);
        let strand = profile::strand_begin(job.header.spawn_span());
        // The task executes as the right strand of its spawn point's
        // fork (sanitizer SP label; view detachment is part of it).
        let sp_prev = crate::sanhooks::sp_enter(job.header.sp_label());
        let result = panic::catch_unwind(AssertUnwindSafe(|| func(scope)));
        // Views accumulated by this task's context, tagged for ordered
        // merging (the executing worker returns to an empty context).
        let views = crate::registry::detach_current_views();
        crate::sanhooks::sp_exit(sp_prev);
        // The final span rides the deposit (the job frame is freed when
        // this function returns, so the header cannot carry it).
        let fin = profile::strand_end(strand);
        scope.deposits.lock().push((job.index, views, fin));
        if let Err(p) = result {
            scope.panic.lock().get_or_insert(p);
        }
        // Before `task_done`: the owner may drain trace rings as soon as
        // the scope's latch fires (see `StackJob::execute_foreign`).
        trace::emit(EventKind::JobEnd, 0);
        scope.task_done();
    }
}

impl<'scope> Scope<'scope> {
    fn new() -> Scope<'scope> {
        Scope {
            pending: AtomicUsize::new(1),
            done: SpinLatch::new(),
            next_index: AtomicUsize::new(0),
            deposits: Mutex::new(Vec::new()),
            panic: Mutex::new(None),
            _marker: PhantomData,
        }
    }

    fn task_done(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.done.set();
        }
    }

    /// Spawns `f` into the scope. The task may run on any worker, begins
    /// with an empty reducer view set, and its views merge back in spawn
    /// order when the scope closes. The closure receives the scope again
    /// so tasks can spawn siblings.
    ///
    /// Must be called from inside the pool (the scope body or another
    /// spawned task). For non-commutative reducers, remember that all
    /// spawned tasks order *after* the owner's own in-scope updates; use
    /// [`crate::join`] where exact serial order matters.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        let worker = WorkerThread::current().expect("Scope::spawn must be called on a pool worker");
        self.pending.fetch_add(1, Ordering::AcqRel);
        let index = self.next_index.fetch_add(1, Ordering::Relaxed);
        let job = Box::new(ScopeJob {
            header: JobHeader::new(ScopeJob::execute),
            scope: self as *const Scope<'scope>,
            index,
            func: Some(Box::new(f)),
        });
        job.header.set_spawn_span(profile::spawn_point());
        // Fork the spawner's SP label: the spawner continues as the left
        // sibling, the task executes as the right. Cascaded spawns chain
        // left labels, which the offset-span algebra keeps mutually
        // parallel until the scope's closing sync.
        let (sp_cont, sp_child) = crate::sanhooks::sp_fork(crate::sanhooks::sp_current());
        job.header.set_sp_label(sp_child);
        let _ = crate::sanhooks::sp_enter(sp_cont);
        // Leak into the deque; ScopeJob::execute reconstitutes it.
        let raw = Box::into_raw(job);
        // SAFETY: the heap job stays alive until `execute` reboxes it,
        // and the scope barrier keeps `'scope` data live past that.
        worker.push(unsafe { JobRef::new(raw) });
    }
}

/// Runs `body` with a [`Scope`], waits for every spawned task, merges
/// their reducer views in spawn order, and returns `body`'s result.
///
/// Panics from spawned tasks are propagated after all tasks have
/// quiesced (first panic wins; its views and the others' are destroyed
/// in that case, never merged).
///
/// Must be called on a pool worker (inside `Pool::run`).
pub fn scope<'scope, F, R>(body: F) -> R
where
    F: FnOnce(&Scope<'scope>) -> R,
{
    let worker = WorkerThread::current().expect("scope() must be called on a pool worker");
    let s = Scope::new();

    // The scope's SP sync frame: every spawn inside the body (or inside
    // nested tasks on this strand) forks off the label chain rooted
    // here, and the close below syncs them all.
    let sp_frame = crate::sanhooks::sp_current();

    let result = panic::catch_unwind(AssertUnwindSafe(|| body(&s)));

    // The body's own token.
    s.task_done();

    // The scope close is a sync over *every* task spawned so far in this
    // strand.
    let left = profile::sync_pause();

    // Keep useful while waiting: execute our own spawned jobs (popped
    // back LIFO) or steal, exactly like waiting at a join. All scope
    // jobs run through the foreign path (detach/attach around them),
    // including on this worker.
    worker.wait_for_scope(&s.done);

    // Merge deposits in spawn order (serial-equivalent for the spawned
    // tasks among themselves).
    let mut deposits = std::mem::take(&mut *s.deposits.lock());
    deposits.sort_by_key(|(idx, _, _)| *idx);
    let hooks = worker.registry().hooks();
    let panicked = s.panic.lock().take();
    let discard = result.is_err() || panicked.is_some();
    let mut span = left;
    let mut merge_ns = 0;
    let merging = !discard && !deposits.is_empty();
    let t0 = if merging && profile::profiling() {
        cilkm_obs::clock::now_ns()
    } else {
        0
    };
    if merging {
        trace::emit(EventKind::MergeBegin, 0);
    }
    for (_, views, fin) in deposits {
        if discard {
            hooks.discard(views);
        } else {
            worker.with_state(|st| hooks.merge_right(st, views));
            span = (span.0.max(fin.0), span.1.max(fin.1));
        }
    }
    if merging {
        trace::emit(EventKind::MergeEnd, 0);
        if t0 != 0 {
            merge_ns = cilkm_obs::clock::now_ns().saturating_sub(t0);
        }
    }
    profile::sync_resume(span.0, span.1, merge_ns);
    // The close is the sync point: every task label forked from this
    // frame is now serially before the continuing strand.
    crate::sanhooks::sp_join(sp_frame);

    match result {
        Err(p) => panic::resume_unwind(p),
        Ok(r) => {
            if let Some(p) = panicked {
                panic::resume_unwind(p);
            }
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msync::atomic::AtomicU64;
    use crate::registry::Pool;

    #[test]
    fn scope_runs_all_spawns() {
        let pool = Pool::new(4);
        let count = AtomicU64::new(0);
        pool.run(|| {
            scope(|s| {
                for _ in 0..100 {
                    s.spawn(|_| {
                        count.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        });
        assert_eq!(count.into_inner(), 100);
    }

    #[test]
    fn nested_spawns_complete_before_scope_ends() {
        let pool = Pool::new(4);
        let count = AtomicU64::new(0);
        pool.run(|| {
            scope(|s| {
                for _ in 0..8 {
                    s.spawn(|s| {
                        count.fetch_add(1, Ordering::Relaxed);
                        // Tasks may spawn siblings onto the same scope.
                        s.spawn(|_| {
                            count.fetch_add(10, Ordering::Relaxed);
                        });
                    });
                }
            });
        });
        assert_eq!(count.into_inner(), 8 + 80);
    }

    #[test]
    fn scope_returns_body_value() {
        let pool = Pool::new(2);
        let v = pool.run(|| {
            scope(|s| {
                s.spawn(|_| {});
                42
            })
        });
        assert_eq!(v, 42);
    }

    #[test]
    #[should_panic(expected = "spawned boom")]
    fn spawned_panic_propagates() {
        let pool = Pool::new(2);
        pool.run(|| {
            scope(|s| {
                s.spawn(|_| panic!("spawned boom"));
            });
        });
    }

    #[test]
    fn scope_panic_still_waits_for_tasks() {
        let pool = Pool::new(2);
        let count = std::sync::Arc::new(AtomicU64::new(0));
        let c2 = std::sync::Arc::clone(&count);
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(|| {
                scope(|s| {
                    for _ in 0..50 {
                        let c = std::sync::Arc::clone(&c2);
                        s.spawn(move |_| {
                            c.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                    panic!("body boom");
                });
            });
        }));
        assert!(res.is_err());
        // All 50 tasks either ran or were safely consumed before unwind.
        assert_eq!(count.load(Ordering::Relaxed), 50);
        assert_eq!(pool.run(|| 7), 7);
    }

    #[test]
    fn scopes_nest() {
        let pool = Pool::new(4);
        let count = AtomicU64::new(0);
        pool.run(|| {
            scope(|outer| {
                for _ in 0..4 {
                    outer.spawn(|_| {
                        scope(|inner| {
                            for _ in 0..4 {
                                inner.spawn(|_| {
                                    count.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        });
                    });
                }
            });
        });
        assert_eq!(count.into_inner(), 16);
    }
}
