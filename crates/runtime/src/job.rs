//! Type-erased jobs: the units that travel through deques.
//!
//! A job is any struct whose first field is a [`JobHeader`] containing its
//! execute function; a [`JobRef`] is a single thin pointer to that header,
//! which is what the Chase–Lev deque stores (one machine word, so slot
//! accesses can be plain atomics). This is the runtime analogue of the
//! Cilk frame: a [`StackJob`] is the spawned-child frame a thief may
//! promote, carrying the result slot, the completion latch, and the
//! *right placeholder* where the thief deposits its detached views.

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::panic::{self, AssertUnwindSafe};

use cilkm_obs::{profile, trace, EventKind};

use crate::hooks::DetachedViews;
use crate::latch::{Latch, SpinLatch};

/// First field of every job type: the type-erased execute function, plus
/// the task's DAG identity and work/span hand-off slots (PR 8).
///
/// `task_id` and `spawn_span` are written by the spawning worker before
/// the deque push and read by whichever worker executes the job — the
/// deque hand-off is the happens-before edge, exactly as for the job's
/// closure. `final_span` flows the other way: the executor writes it
/// before signaling the job's completion latch, and the joining owner
/// reads it after acquiring the latch. All three are zero when tracing /
/// profiling is off, and the spawn path pays nothing beyond the existing
/// enabled checks.
#[repr(C)]
pub struct JobHeader {
    execute_fn: unsafe fn(*const ()),
    /// DAG task id from [`cilkm_obs::trace::next_task_id`] (0 = tracing
    /// off at spawn time).
    task_id: Cell<u64>,
    /// The spawning strand's `(span, bspan)` at the spawn point.
    spawn_span: Cell<(u64, u64)>,
    /// The executed strand's final `(span, bspan)`; published by the
    /// latch handshake.
    final_span: UnsafeCell<(u64, u64)>,
    /// The task's SP (series-parallel) strand label for the sanitizer's
    /// determinacy detector; written by the spawner before the deque
    /// push, like `task_id`. Always present (one word), dead when the
    /// `sanitize` hooks are compiled out — same deal as `task_id` with
    /// tracing off.
    sp_label: Cell<u64>,
}

impl JobHeader {
    /// Builds a header around a job's execute function (for job types
    /// defined outside this module, e.g. scope tasks).
    pub fn new(execute_fn: unsafe fn(*const ())) -> JobHeader {
        JobHeader {
            execute_fn,
            task_id: Cell::new(0),
            spawn_span: Cell::new((0, 0)),
            final_span: UnsafeCell::new((0, 0)),
            sp_label: Cell::new(0),
        }
    }

    /// Stamps the task's SP strand label (sanitizer builds only; the
    /// spawner writes it before the deque push, which publishes it).
    pub fn set_sp_label(&self, label: u64) {
        self.sp_label.set(label);
    }

    /// The task's SP strand label (0 when the sanitizer is off).
    pub fn sp_label(&self) -> u64 {
        self.sp_label.get()
    }

    /// Stamps the task's DAG id and its spawn point's span pair. Called
    /// by the spawning worker before the job is pushed (the deque
    /// publish orders it before any foreign read).
    pub fn prepare(&self, task_id: u64, spawn_span: (u64, u64)) {
        self.task_id.set(task_id);
        self.spawn_span.set(spawn_span);
    }

    /// The task's DAG id (0 when tracing was off at spawn time).
    pub fn task_id(&self) -> u64 {
        self.task_id.get()
    }

    /// The spawning strand's span pair at the spawn point.
    pub fn spawn_span(&self) -> (u64, u64) {
        self.spawn_span.get()
    }

    /// Stores the executed strand's final span pair.
    ///
    /// # Safety
    ///
    /// Caller must be the executing worker, before it signals the job's
    /// completion latch (the latch's release publishes the write).
    pub(crate) unsafe fn set_final_span(&self, v: (u64, u64)) {
        *self.final_span.get() = v;
    }

    /// Reads the executed strand's final span pair.
    ///
    /// # Safety
    ///
    /// Caller must have synchronized with the completion (latch
    /// acquire).
    pub(crate) unsafe fn final_span(&self) -> (u64, u64) {
        *self.final_span.get()
    }
}

/// A thin, type-erased pointer to a job. The pointee must stay alive
/// until the job has been executed (stack jobs guarantee this by having
/// their owner wait on the latch before returning).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct JobRef {
    ptr: *const JobHeader,
}

// SAFETY: a `JobRef` only carries the address of a pinned `JobHeader`;
// whichever thread claims it calls `execute` at most once, and the
// pointee outlives execution (see the struct docs).
unsafe impl Send for JobRef {}

impl JobRef {
    /// Type-erases a job. `job` must be pinned in memory until executed.
    ///
    /// # Safety
    ///
    /// `T`'s first field must be a `JobHeader` and `T` must be `repr(C)`.
    pub unsafe fn new<T>(job: *const T) -> JobRef {
        JobRef {
            ptr: job as *const JobHeader,
        }
    }

    /// Runs the job through its header function.
    ///
    /// # Safety
    ///
    /// Must be called exactly once, and the pointee must still be alive.
    #[inline]
    pub unsafe fn execute(self) {
        ((*self.ptr).execute_fn)(self.ptr as *const ())
    }

    /// The raw pointer, for storage in the deque.
    #[inline]
    pub fn as_raw(self) -> *mut () {
        self.ptr as *mut ()
    }

    /// Reconstitutes a `JobRef` from deque storage.
    ///
    /// # Safety
    ///
    /// `raw` must have come from [`JobRef::as_raw`].
    #[inline]
    pub unsafe fn from_raw(raw: *mut ()) -> JobRef {
        JobRef {
            ptr: raw as *const JobHeader,
        }
    }
}

/// Result slot of a job: distinguishes "not run", success, and panic.
pub enum JobResult<R> {
    /// Not yet executed.
    None,
    /// Completed and produced a value.
    Ok(R),
    /// Panicked; payload to be resumed by the owner.
    Panic(Box<dyn Any + Send>),
}

impl<R> JobResult<R> {
    /// Unwraps into the value, resuming the panic if the job panicked.
    ///
    /// # Panics
    ///
    /// Panics (resumes) if the job panicked; panics if the job never ran.
    pub fn into_return_value(self) -> R {
        match self {
            JobResult::None => unreachable!("job never executed"),
            JobResult::Ok(r) => r,
            JobResult::Panic(p) => panic::resume_unwind(p),
        }
    }
}

/// The spawned-child frame of a [`join`]: lives on the owner's stack.
///
/// The owner pushes a [`JobRef`] to it on its deque. Exactly one of three
/// things then happens, and the owner's wait loop learns which:
///
/// * the owner pops it back and runs it **inline** (serial fast path —
///   same execution context, no view operations at all, §3);
/// * a thief (or the owner acting as a thief while leapfrogging) runs it
///   via [`JobRef::execute`], which gives it a fresh context and ends
///   with **view transferal** into the frame's deposit slot; or
/// * the owner's side panicked, and the job is popped and **cancelled**
///   (closure dropped unrun).
///
/// [`join`]: crate::join
#[repr(C)]
pub struct StackJob<F, R> {
    header: JobHeader,
    /// The completion latch the owner waits on (set only on the foreign
    /// execution path; inline and cancel paths are known to the owner).
    pub latch: SpinLatch,
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<JobResult<R>>,
    deposit: UnsafeCell<Option<DetachedViews>>,
}

impl<F, R> StackJob<F, R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    /// Creates a frame around `func`.
    pub fn new(func: F) -> StackJob<F, R> {
        StackJob {
            header: JobHeader::new(Self::execute_foreign),
            latch: SpinLatch::new(),
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(JobResult::None),
            deposit: UnsafeCell::new(None),
        }
    }

    /// The job's header (for the spawner to stamp the task id and spawn
    /// span, and the owner to read the final span after the latch).
    pub fn header(&self) -> &JobHeader {
        &self.header
    }

    /// The type-erased reference to push on the deque.
    pub fn as_job_ref(&self) -> JobRef {
        // SAFETY: a stack job is pinned by its owner, which waits on the
        // latch before returning (see the struct docs).
        unsafe { JobRef::new(self) }
    }

    /// The foreign execution path: runs the closure in the executing
    /// worker's (empty) current context, then performs view transferal
    /// into the deposit slot, then signals the latch. Never unwinds.
    unsafe fn execute_foreign(ptr: *const ()) {
        let this = &*(ptr as *const Self);
        let func = (*this.func.get()).take().expect("job executed twice");
        // JobBegin is emitted here — adjacent to `strand_begin` — rather
        // than at the registry call site, so the offline DAG's strand
        // boundaries coincide with the online profiler's segment clock
        // (a preemption between the two would otherwise be charged to
        // the strand by one instrument but not the other).
        trace::emit(EventKind::JobBegin, this.header.task_id());
        // The strand starts from the spawn point's span pair; view
        // transferal below is inside the strand so its cost lands on the
        // burdened side (the transferal *charge* debits the unburdened
        // one).
        let saved = profile::strand_begin(this.header.spawn_span());
        // The stolen child executes as the spawn point's right strand;
        // view transferal below is part of it.
        let sp_prev = crate::sanhooks::sp_enter(this.header.sp_label());
        let res = match panic::catch_unwind(AssertUnwindSafe(func)) {
            Ok(r) => JobResult::Ok(r),
            Err(p) => JobResult::Panic(p),
        };
        *this.result.get() = res;
        // View transferal: detach the views this execution accumulated
        // and deposit them in the frame's right placeholder. Done even on
        // panic so the executing worker returns to an empty context.
        let views = crate::registry::detach_current_views();
        *this.deposit.get() = Some(views);
        crate::sanhooks::sp_exit(sp_prev);
        // SAFETY: we are the executing worker and the latch is not yet
        // set; the release below publishes the span with the result.
        this.header.set_final_span(profile::strand_end(saved));
        // The strand's closing event must precede the latch: the owner
        // may drain the trace rings the moment the latch fires, and a
        // registry-side emit after `execute` returns would race that
        // drain and leave a truncated strand in the DAG.
        trace::emit(EventKind::JobEnd, this.header.task_id());
        // Release: result, deposit, and final span are published before
        // the flag.
        this.latch.set();
    }

    /// The inline path: the owner popped its own job back. Runs in the
    /// owner's current context; no latch, no deposit.
    ///
    /// # Safety
    ///
    /// Caller must be the owner, after popping this job from its deque.
    pub unsafe fn run_inline(&self) -> JobResult<R> {
        let func = (*self.func.get()).take().expect("job executed twice");
        match panic::catch_unwind(AssertUnwindSafe(func)) {
            Ok(r) => JobResult::Ok(r),
            Err(p) => JobResult::Panic(p),
        }
    }

    /// The cancel path: the owner's left side panicked before the job was
    /// stolen; drop the closure unrun.
    ///
    /// # Safety
    ///
    /// Caller must be the owner, after popping this job from its deque.
    pub unsafe fn cancel(&self) {
        drop((*self.func.get()).take());
    }

    /// Takes the result after the latch has been observed set (foreign
    /// path) or after `run_inline` stored it.
    ///
    /// # Safety
    ///
    /// Caller must have synchronized with the completion (latch acquire).
    pub unsafe fn take_result(&self) -> JobResult<R> {
        std::mem::replace(&mut *self.result.get(), JobResult::None)
    }

    /// Takes the deposited views (foreign path only).
    ///
    /// # Safety
    ///
    /// Caller must have synchronized with the completion (latch acquire).
    pub unsafe fn take_deposit(&self) -> Option<DetachedViews> {
        (*self.deposit.get()).take()
    }
}

// SAFETY: the frame is shared with at most one other thread (the
// thief), and the protocol (deque + latch) serializes all access to the
// `UnsafeCell` fields.
unsafe impl<F: Send, R: Send> Sync for StackJob<F, R> {}

/// The injected root task of [`Pool::run`]: executes the user's closure as
/// the region's root context and then folds the accumulated views into
/// the reducers' leftmost storage ([`collect_root`]).
///
/// [`Pool::run`]: crate::Pool::run
/// [`collect_root`]: crate::hooks::HyperHooks::collect_root
#[repr(C)]
pub struct RootJob<F, R> {
    header: JobHeader,
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<JobResult<R>>,
    latch: *const crate::latch::LockLatch,
}

impl<F, R> RootJob<F, R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    /// Creates a root job; `latch` must outlive the execution (the caller
    /// of `Pool::run` blocks on it).
    pub fn new(func: F, latch: &crate::latch::LockLatch) -> RootJob<F, R> {
        RootJob {
            header: JobHeader::new(Self::execute_root),
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(JobResult::None),
            latch,
        }
    }

    /// The job's header (for `Pool::run` to stamp the root task id; the
    /// root strand starts from a zero span pair).
    pub fn header(&self) -> &JobHeader {
        &self.header
    }

    /// The type-erased reference to inject.
    pub fn as_job_ref(&self) -> JobRef {
        // SAFETY: `Pool::run` keeps the root job alive on its stack
        // until the latch fires, i.e. until after execution.
        unsafe { JobRef::new(self) }
    }

    unsafe fn execute_root(ptr: *const ()) {
        let this = &*(ptr as *const Self);
        let func = (*this.func.get()).take().expect("root executed twice");
        // Emitted next to `strand_begin`, as in the foreign path.
        trace::emit(EventKind::JobBegin, this.header.task_id());
        // The root strand: the whole region's span accumulates into this
        // context (joins fold their children's pairs back into it), so
        // its final pair *is* the region's span.
        let saved = profile::strand_begin(this.header.spawn_span());
        // Fresh SP region root: successive regions are mutually
        // sequential, strands forked inside this one hang off it.
        let sp_prev = crate::sanhooks::sp_region_enter();
        let mut res = match panic::catch_unwind(AssertUnwindSafe(func)) {
            Ok(r) => JobResult::Ok(r),
            Err(p) => JobResult::Panic(p),
        };
        // Root of the parallel region: views flow to leftmost storage.
        // The fold runs user `reduce` code and can be refused (a serial
        // access overlapping the region's end): its panic goes to the
        // region's caller like the body's, which keeps precedence.
        // Unwinding past the latch below would block that caller forever.
        if let Err(p) = panic::catch_unwind(crate::registry::collect_root_views) {
            if !matches!(res, JobResult::Panic(_)) {
                res = JobResult::Panic(p);
            }
        }
        *this.result.get() = res;
        crate::sanhooks::sp_exit(sp_prev);
        // SAFETY: executing worker, before the latch release publishes
        // the write to the region's caller.
        this.header.set_final_span(profile::strand_end(saved));
        // Before the latch, for the same drain-race reason as the
        // foreign path: the region's caller drains right after waiting.
        trace::emit(EventKind::JobEnd, this.header.task_id());
        crate::registry::close_region();
        (*this.latch).set();
    }

    /// Takes the result after waiting on the latch.
    ///
    /// # Safety
    ///
    /// Caller must have waited on the latch.
    pub unsafe fn take_result(&self) -> JobResult<R> {
        std::mem::replace(&mut *self.result.get(), JobResult::None)
    }

    /// The root strand's final `(span, bspan)` pair.
    ///
    /// # Safety
    ///
    /// Caller must have waited on the latch.
    pub unsafe fn final_span(&self) -> (u64, u64) {
        self.header.final_span()
    }
}

// SAFETY: exactly one worker executes the injected job while the
// injecting thread only waits on the latch; the latch handshake orders
// the result handoff.
unsafe impl<F: Send, R: Send> Sync for RootJob<F, R> {}
// SAFETY: the closure and result are `Send`, and the latch reference is
// only used for signaling.
unsafe impl<F: Send, R: Send> Send for RootJob<F, R> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_result_ok_unwraps() {
        assert_eq!(JobResult::Ok(42).into_return_value(), 42);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn job_result_panic_resumes() {
        let r: JobResult<()> = JobResult::Panic(Box::new("boom"));
        r.into_return_value();
    }

    #[test]
    fn job_ref_round_trips_through_raw() {
        let job: StackJob<_, i32> = StackJob::new(|| 7);
        let r = job.as_job_ref();
        let raw = r.as_raw();
        // SAFETY: `raw` came from `as_raw` on a live job just above.
        let back = unsafe { JobRef::from_raw(raw) };
        assert_eq!(back, r);
        // SAFETY: the job was never executed; cancel drops the closure
        // exactly once.
        unsafe { job.cancel() };
    }

    #[test]
    fn inline_path_stores_nothing_in_latch() {
        let job: StackJob<_, i32> = StackJob::new(|| 40 + 2);
        // SAFETY: the job was never pushed, so this thread is its only
        // owner and it has not run yet.
        let res = unsafe { job.run_inline() };
        assert!(!job.latch.probe());
        assert_eq!(res.into_return_value(), 42);
    }
}
