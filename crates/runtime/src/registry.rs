//! The worker registry: pool construction, worker threads, the steal
//! loop, and the context-suspension discipline around foreign jobs.
//!
//! Idle/wake coordination lives in `crate::sleep::SleepGate`: workers
//! announce themselves before parking and producers fence-then-check
//! after publishing work, so no job is ever left behind with every
//! worker asleep (the protocol and its model-checked proof obligations
//! are documented there).

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::sync::Arc;

use cilkm_base::rng::{XorShift64, GAMMA};
use cilkm_obs::event::{current_cpu, pack_cpu};
use cilkm_obs::{profile, trace, Counter, EventKind};

use crate::msync::atomic::{AtomicBool, AtomicUsize, Ordering};
use crate::msync::{thread, Mutex};

use crate::deque::{deque, DequeOwner, DequeStealer, Steal};
use crate::hooks::{DetachedViews, HyperHooks, NoopHooks};
use crate::job::{JobRef, RootJob};
use crate::latch::{Latch, LockLatch, SpinLatch};
use crate::sleep::SleepGate;

/// Per-worker event counters: `cilkm-obs` monitoring counters, plain
/// `std` atomics under every facade face, so no model run records them.
#[derive(Default)]
pub(crate) struct WorkerStats {
    /// Successful steals committed by this worker (as the thief).
    pub steals: Counter,
    /// Steal attempts that found nothing or lost a race.
    pub failed_steals: Counter,
    /// Foreign jobs executed (stolen + injected + leapfrogged).
    pub jobs_executed: Counter,
    /// Joins whose right branch was popped back and run inline.
    pub inline_joins: Counter,
    /// Joins whose right branch was executed by another context.
    pub stolen_joins: Counter,
    /// Steal sweeps started (whether or not they found work).
    pub steal_attempts: Counter,
    /// Times this worker parked on the sleep gate (announce + re-check;
    /// the re-check may return immediately without blocking).
    pub parks: Counter,
    /// Times this worker came back from the sleep gate.
    pub wakes: Counter,
    /// High-water mark of this worker's deque depth. Owner-maintained
    /// with a plain get/compare/set (no RMW: only the owner writes,
    /// others just read), so the spawn hot path stays cheap.
    pub deque_hwm: Counter,
}

/// A snapshot of pool-wide scheduler statistics.
///
/// The paper's reduce-overhead experiments (Figs. 7–8) normalize against
/// the number of *successful steals*, since view transferal and
/// hypermerge only happen when steals do; this is where that number comes
/// from.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Successful steals across all workers.
    pub steals: u64,
    /// Failed steal attempts across all workers.
    pub failed_steals: u64,
    /// Foreign jobs executed across all workers.
    pub jobs_executed: u64,
    /// Joins resolved on the serial fast path (right branch popped back).
    pub inline_joins: u64,
    /// Joins whose right branch ran in a different context.
    pub stolen_joins: u64,
    /// Steal sweeps started across all workers (successful or not).
    pub steal_attempts: u64,
    /// Park episodes across all workers.
    pub parks: u64,
    /// Wakeups from the sleep gate across all workers.
    pub wakes: u64,
    /// Largest deque depth any worker ever reached.
    pub deque_hwm: u64,
}

struct ThreadInfo {
    stealer: DequeStealer,
    stats: WorkerStats,
}

/// Shared pool state.
pub(crate) struct Registry {
    hooks: Arc<dyn HyperHooks>,
    threads: Vec<ThreadInfo>,
    injector: Mutex<VecDeque<JobRef>>,
    injected: AtomicUsize,
    /// Sleeper announcement slots + wake claiming (protocol in
    /// `crate::sleep`).
    gate: SleepGate,
    /// The pool has more workers than the hardware has threads. There
    /// every cycle an idle worker spends awake is taken from the thread
    /// that holds the work, so it yields instead of pausing and parks
    /// even inside an open region.
    oversubscribed: bool,
    /// A region is running: set by `inject`, cleared by the root job
    /// just before its latch. It chooses how an idle worker waits and
    /// publishes nothing; a stale read either way is covered by the
    /// sleep gate's handshake, which `inject` still goes through.
    region_open: AtomicBool,
    terminate: AtomicBool,
}

impl Registry {
    /// The pool's hooks, borrowed: every caller is a worker that holds
    /// the registry for as long as it runs, so no steal-path event
    /// touches the `Arc`'s shared count.
    #[inline]
    pub(crate) fn hooks(&self) -> &dyn HyperHooks {
        &*self.hooks
    }

    fn inject(&self, job: JobRef) {
        self.region_open.store(true, Ordering::Release);
        self.injector.lock().push_back(job);
        self.injected.fetch_add(1, Ordering::Release);
        // Waker side of the handshake (see `crate::sleep`), waking
        // everyone: an injection is rare and starts a region.
        self.gate.signal_all();
    }

    fn pop_injected(&self) -> Option<JobRef> {
        if self.injected.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut q = self.injector.lock();
        let job = q.pop_front();
        if job.is_some() {
            self.injected.fetch_sub(1, Ordering::Release);
        }
        job
    }

    /// Wakes one sleeping worker if any (called after deque pushes).
    /// The caller has already published the job; the gate's fence +
    /// sleeper load is the waker side of the handshake in `crate::sleep`.
    #[inline]
    pub(crate) fn signal_work(&self) {
        self.gate.signal_one();
    }

    fn stats(&self) -> PoolStats {
        let mut s = PoolStats::default();
        for t in &self.threads {
            s.steals += t.stats.steals.get();
            s.failed_steals += t.stats.failed_steals.get();
            s.jobs_executed += t.stats.jobs_executed.get();
            s.inline_joins += t.stats.inline_joins.get();
            s.stolen_joins += t.stats.stolen_joins.get();
            s.steal_attempts += t.stats.steal_attempts.get();
            s.parks += t.stats.parks.get();
            s.wakes += t.stats.wakes.get();
            s.deque_hwm = s.deque_hwm.max(t.stats.deque_hwm.get());
        }
        s
    }
}

thread_local! {
    static CURRENT_WORKER: Cell<*const WorkerThread> = const { Cell::new(std::ptr::null()) };
}

/// The thread-local owner side of one worker.
pub(crate) struct WorkerThread {
    registry: Arc<Registry>,
    index: usize,
    deque: DequeOwner,
    /// Random victim selection.
    rng: Cell<XorShift64>,
    /// Per-worker hyperobject backend state; only this thread touches it.
    state: UnsafeCell<Box<dyn Any + Send>>,
}

impl WorkerThread {
    /// The worker currently running on this thread, if any.
    #[inline]
    pub(crate) fn current() -> Option<&'static WorkerThread> {
        let ptr = CURRENT_WORKER.with(|c| c.get());
        if ptr.is_null() {
            None
        } else {
            // SAFETY: the pointer is installed for the lifetime of the
            // worker's main loop and cleared before the WorkerThread is
            // dropped, so it is live whenever non-null on this thread.
            Some(unsafe { &*ptr })
        }
    }

    pub(crate) fn index(&self) -> usize {
        self.index
    }

    pub(crate) fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    #[inline]
    fn stats(&self) -> &WorkerStats {
        &self.registry.threads[self.index].stats
    }

    pub(crate) fn note_inline_join(&self) {
        self.stats().inline_joins.inc();
    }

    pub(crate) fn note_stolen_join(&self) {
        self.stats().stolen_joins.inc();
    }

    #[inline]
    pub(crate) fn push(&self, job: JobRef) {
        self.deque.push(job.as_raw());
        // Owner-only high-water mark: plain load/compare/store, no RMW,
        // so the spawn path pays one predictable branch.
        let depth = self.deque.len() as u64;
        let hwm = &self.stats().deque_hwm;
        if depth > hwm.get() {
            hwm.set(depth);
        }
        self.registry.signal_work();
    }

    #[inline]
    pub(crate) fn pop(&self) -> Option<JobRef> {
        // SAFETY: everything in this worker's deque was produced by
        // `JobRef::as_raw`.
        self.deque.pop().map(|raw| unsafe { JobRef::from_raw(raw) })
    }

    /// Calls `f` with the worker's mutable hyperobject state.
    #[inline]
    pub(crate) fn with_state<R>(&self, f: impl FnOnce(&mut dyn Any) -> R) -> R {
        // SAFETY: state is only ever touched from this worker's own
        // thread, and never reentrantly (hooks do not call back into the
        // scheduler).
        let state = unsafe { &mut *self.state.get() };
        f(state.as_mut())
    }

    #[inline]
    fn next_rand(&self) -> u64 {
        let mut rng = self.rng.get();
        let r = rng.next_u64();
        self.rng.set(rng);
        r
    }

    /// One randomized steal sweep over all other workers, then the
    /// injector. The sweep visits victims at `start + i·stride (mod n)`
    /// with a random start *and* a random stride coprime to `n` — a
    /// fresh random permutation each sweep (not just a rotated fixed
    /// order), with no allocation in the steal loop. Distinct
    /// permutations keep simultaneous thieves from convoying over the
    /// victims in the same sequence.
    fn try_steal(&self) -> Option<JobRef> {
        self.stats().steal_attempts.inc();
        let n = self.registry.threads.len();
        if n > 1 {
            let r = self.next_rand();
            let start = (r as usize) % n;
            let mut stride = 1 + (r >> 32) as usize % (n - 1).max(1);
            while gcd(stride, n) != 1 {
                stride -= 1; // reaches 1, which is coprime to everything
            }
            for i in 0..n {
                let victim = (start + i * stride) % n;
                if victim == self.index {
                    continue;
                }
                loop {
                    match self.registry.threads[victim].stealer.steal() {
                        Steal::Success(raw) => {
                            self.stats().steals.inc();
                            // Victim index in the low half, thief's cpu
                            // (for socket-locality analysis) in the high
                            // half. The cpu lookup is gated so the steal
                            // path pays nothing when tracing is off.
                            if trace::enabled() {
                                trace::emit(
                                    EventKind::StealSuccess,
                                    pack_cpu(victim as u64, current_cpu()),
                                );
                            }
                            // SAFETY: deque contents are always raw
                            // `JobRef`s (see `pop`).
                            return Some(unsafe { JobRef::from_raw(raw) });
                        }
                        Steal::Retry => continue,
                        Steal::Empty => break,
                    }
                }
            }
        }
        if let Some(job) = self.registry.pop_injected() {
            return Some(job);
        }
        self.stats().failed_steals.inc();
        None
    }

    /// Executes a foreign job from an *empty* current context (top-level
    /// steal loop). The job itself ends in a detach, restoring emptiness.
    #[inline]
    fn execute_idle(&self, job: JobRef) {
        self.stats().jobs_executed.inc();
        // SAFETY: popping/stealing transferred sole execution rights for
        // this job to us, and its frame outlives execution (job
        // contract). JobBegin/JobEnd are emitted *inside* execute: the
        // begin right next to the profiler's strand clock (so both
        // instruments bound the same interval), the end before the job
        // signals completion (an emit after `execute` returns would race
        // a drain triggered by that signal).
        unsafe { job.execute() };
    }

    /// Executes a foreign job while this worker's current context waits
    /// at a join: the current views are detached before the execution
    /// and attached again after it — the leapfrogging discipline that
    /// keeps views affixed to contexts, not workers, by the same copy
    /// (§7) every other transferal takes.
    fn execute_suspended(&self, job: JobRef) {
        let hooks = self.registry.hooks();
        // Emit *before* the detach runs so the Detach..JobBegin window
        // covers the transferal itself (flag 1 = suspend; cpu id in the
        // high half).
        if trace::enabled() {
            trace::emit(EventKind::Detach, pack_cpu(1, current_cpu()));
        }
        let saved = self.with_state(|s| hooks.detach(s));
        self.stats().jobs_executed.inc();
        // SAFETY: as in `execute_idle` (JobBegin/JobEnd emit inside).
        unsafe { job.execute() };
        self.with_state(|s| hooks.attach(s, saved));
        if trace::enabled() {
            trace::emit(EventKind::Attach, pack_cpu(1, current_cpu()));
        }
    }

    /// The waiting discipline at a join: pops and steals until `latch`
    /// fires (`false`) or our own deque yields `my_job` (`true`; the
    /// caller runs it inline or cancels it), pausing between failed
    /// sweeps. Every other job goes through the foreign path. No parking
    /// here: nothing fires an unpark when the latch opens.
    pub(crate) fn wait_for_latch(&self, latch: &SpinLatch, my_job: JobRef) -> bool {
        loop {
            if latch.probe() {
                return false;
            }
            if let Some(job) = self.pop() {
                if job == my_job {
                    return true;
                }
                self.execute_suspended(job);
                continue;
            }
            if let Some(job) = self.try_steal() {
                self.execute_suspended(job);
                continue;
            }
            self.pause_between_sweeps();
        }
    }

    /// Between two failed sweeps: keep the CPU for a fixed pause, or hand
    /// it over when the pool is oversubscribed.
    #[inline]
    fn pause_between_sweeps(&self) {
        if self.registry.oversubscribed {
            thread::yield_now();
        } else {
            for _ in 0..HOT_WAIT_PAUSE {
                std::hint::spin_loop();
            }
        }
    }

    /// The top-level scheduling loop. A worker that finds no work is in
    /// one of two states. While a region is open the next burst of work
    /// is microseconds away, and a park with its wake costs more than
    /// the burst: the worker keeps sweeping, a fixed pause apart, and
    /// neither yields nor parks. Otherwise (no region, or an
    /// oversubscribed pool) it sweeps once more and parks; nothing can
    /// arrive before the next `inject`, which wakes everyone.
    fn main_loop(&self) {
        // Register the unpark handle before anything can mark us PARKED.
        self.registry.gate.register_current(self.index);
        let mut idle = 0u32;
        loop {
            if self.registry.terminate.load(Ordering::Acquire) {
                return;
            }
            if let Some(job) = self.pop() {
                // Only possible transiently (a panic unwound past pushed
                // jobs); treat like any foreign job.
                self.execute_idle(job);
                idle = 0;
                continue;
            }
            if let Some(job) = self.try_steal() {
                self.execute_idle(job);
                idle = 0;
                continue;
            }
            idle = idle.saturating_add(1);
            if idle == 1 {
                // Once per idle *episode*, not per sweep: per-sweep
                // events would flood the ring while workers spin (the
                // per-sweep total is in `failed_steals`).
                trace::emit(EventKind::StealFail, 0);
            }
            let reg = &*self.registry;
            let hot = !reg.oversubscribed && reg.region_open.load(Ordering::Acquire);
            if hot || idle == 1 {
                self.pause_between_sweeps();
            } else {
                self.sleep();
            }
        }
    }

    /// Parker side of the handshake in `crate::sleep`: announce, fence,
    /// re-check, and only park if the re-check finds nothing.
    #[cold]
    fn sleep(&self) {
        self.stats().parks.inc();
        trace::emit(EventKind::Park, 0);
        let reg = &*self.registry;
        reg.gate.sleep(self.index, || {
            reg.terminate.load(Ordering::Acquire)
                || reg.injected.load(Ordering::Acquire) != 0
                || reg
                    .threads
                    .iter()
                    .enumerate()
                    .any(|(i, t)| i != self.index && !t.stealer.is_empty())
        });
        self.stats().wakes.inc();
        trace::emit(EventKind::Wake, 0);
    }
}

/// Greatest common divisor (for coprime steal strides).
fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// `spin_loop`s between the steal sweeps of a worker that waits inside
/// an open region (EXPERIMENTS.md "PR 24" has its row).
const HOT_WAIT_PAUSE: u32 = 16;

/// View transferal out of the current worker's context (called by job
/// completion paths in `job.rs`).
pub(crate) fn detach_current_views() -> DetachedViews {
    let worker = WorkerThread::current().expect("detach outside worker");
    let hooks = worker.registry.hooks();
    // Emit *before* the detach so the Detach..JobEnd window measures the
    // transferal itself. Flag 0 = detach-at-strand-end; cpu id in the high half.
    if trace::enabled() {
        trace::emit(EventKind::Detach, pack_cpu(0, current_cpu()));
    }
    worker.with_state(|s| hooks.detach(s))
}

/// Marks the current worker's region as over (root task end, just before
/// its latch: once that fires the next region may open).
pub(crate) fn close_region() {
    let worker = WorkerThread::current().expect("close_region outside worker");
    worker.registry.region_open.store(false, Ordering::Release);
}

/// Folds the current worker's views into leftmost storage (root task end).
pub(crate) fn collect_root_views() {
    let worker = WorkerThread::current().expect("collect_root outside worker");
    let hooks = worker.registry.hooks();
    worker.with_state(|s| hooks.collect_root(s));
}

/// Index of the worker running the current thread, if it is a pool worker.
pub fn current_worker_index() -> Option<usize> {
    WorkerThread::current().map(|w| w.index())
}

/// Number of workers in the pool that owns the current thread, if it is a
/// pool worker (drives the adaptive split budget in `parallel_for`).
pub(crate) fn current_num_threads() -> Option<usize> {
    WorkerThread::current().map(|w| w.registry.threads.len())
}

/// Worker stack size in bytes: fork-join recursion can be deep on
/// oversubscribed machines.
const WORKER_STACK_SIZE: usize = 8 << 20;

/// Configures and builds a [`Pool`].
pub struct PoolBuilder {
    num_threads: usize,
    hooks: Arc<dyn HyperHooks>,
}

impl PoolBuilder {
    /// Starts a builder with `num_threads` workers and no-op hooks.
    pub fn new(num_threads: usize) -> PoolBuilder {
        assert!(num_threads >= 1, "a pool needs at least one worker");
        PoolBuilder {
            num_threads,
            hooks: Arc::new(NoopHooks),
        }
    }

    /// Installs hyperobject hooks (the reducer backend).
    pub fn hooks(mut self, hooks: Arc<dyn HyperHooks>) -> PoolBuilder {
        self.hooks = hooks;
        self
    }

    /// Spawns the workers and returns the pool.
    pub fn build(self) -> Pool {
        let mut owners = Vec::with_capacity(self.num_threads);
        let mut infos = Vec::with_capacity(self.num_threads);
        for _ in 0..self.num_threads {
            let (owner, stealer) = deque();
            owners.push(owner);
            infos.push(ThreadInfo {
                stealer,
                stats: WorkerStats::default(),
            });
        }
        let hardware = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let num_threads = self.num_threads;
        let registry = Arc::new(Registry {
            hooks: self.hooks,
            threads: infos,
            injector: Mutex::new(VecDeque::new()),
            injected: AtomicUsize::new(0),
            gate: SleepGate::new(num_threads),
            oversubscribed: num_threads > hardware,
            region_open: AtomicBool::new(false),
            terminate: AtomicBool::new(false),
        });
        cilkm_obs::clock::warm_up();

        let mut handles = Vec::with_capacity(self.num_threads);
        for (index, owner) in owners.into_iter().enumerate() {
            let registry = Arc::clone(&registry);
            let handle = thread::spawn_with(
                format!("cilkm-worker-{index}"),
                WORKER_STACK_SIZE,
                move || {
                    // Worker state is created on the worker's own thread so
                    // backends can set up thread-local fast paths.
                    let state = registry.hooks.make_worker_state(index);
                    let worker = WorkerThread {
                        registry,
                        index,
                        deque: owner,
                        rng: Cell::new(XorShift64::new(GAMMA ^ (index as u64 + 1))),
                        state: UnsafeCell::new(state),
                    };
                    CURRENT_WORKER.with(|c| c.set(&worker));
                    worker.main_loop();
                    CURRENT_WORKER.with(|c| c.set(std::ptr::null()));
                },
            );
            handles.push(handle);
        }

        Pool {
            registry,
            handles: Some(handles),
            region_lock: Mutex::new(()),
        }
    }
}

/// A work-stealing thread pool with hyperobject hooks — the analogue of
/// one Cilk-M (or Cilk Plus) runtime instance.
///
/// Construct with [`Pool::new`] or [`PoolBuilder`]; enter a parallel
/// region with [`Pool::run`]; fork inside it with [`crate::join`].
pub struct Pool {
    registry: Arc<Registry>,
    handles: Option<Vec<thread::JoinHandle<()>>>,
    /// Serializes parallel regions: reducer leftmost storage is folded at
    /// region end, so two regions of one pool must never overlap.
    region_lock: Mutex<()>,
}

impl Pool {
    /// A pool with `num_threads` workers and no hyperobject hooks.
    pub fn new(num_threads: usize) -> Pool {
        PoolBuilder::new(num_threads).build()
    }

    /// Number of workers.
    pub fn num_threads(&self) -> usize {
        self.registry.threads.len()
    }

    /// Runs `f` as the root of a parallel region and returns its result.
    ///
    /// Blocks the calling thread (which must not itself be a pool worker)
    /// until the region completes. On completion, all views accumulated
    /// by the region's root context are folded into their reducers'
    /// leftmost storage, so reducer final values are observable after
    /// `run` returns. Panics inside the region propagate.
    ///
    /// At most one region runs at a time per pool: concurrent `run`
    /// calls serialize (region end folds into shared reducer leftmost
    /// storage, so overlapping regions of one pool would race).
    pub fn run<F, R>(&self, f: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        assert!(
            WorkerThread::current().is_none(),
            "Pool::run called from inside a worker; use join() to fork instead"
        );
        let _region = self.region_lock.lock();
        self.run_region(f).0.into_return_value()
    }

    /// One parallel region, under the region lock: inject the root job,
    /// wait for its latch, and return the (possibly panicked) result
    /// together with the root strand's final `(span, bspan)` pair.
    fn run_region<F, R>(&self, f: F) -> (crate::job::JobResult<R>, (u64, u64))
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        trace::emit(EventKind::RegionBegin, 0);
        let latch = LockLatch::new();
        let job = RootJob::new(f, &latch);
        self.registry.inject(job.as_job_ref());
        latch.wait();
        trace::emit(EventKind::RegionEnd, 0);
        // SAFETY: the latch fired, so the worker finished the root job
        // and published its result and final span; each taken once.
        let span = unsafe { job.final_span() };
        // SAFETY: as above.
        (unsafe { job.take_result() }, span)
    }

    /// Runs `f` as a parallel region with event tracing enabled for the
    /// region's duration, and returns the drained [`cilkm_obs::Trace`]
    /// alongside the result. The trace is windowed to this call (events
    /// from earlier traced regions are excluded).
    ///
    /// Without the `trace` cargo feature the region still runs but the
    /// returned trace is empty (see [`cilkm_obs::trace::compiled`]).
    /// Tracing is process-wide while the region runs, so the trace also
    /// holds the events of any region on any pool that overlaps it.
    pub fn run_traced<F, R>(&self, f: F) -> (R, cilkm_obs::Trace)
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        assert!(
            WorkerThread::current().is_none(),
            "Pool::run_traced called from inside a worker"
        );
        let _region = self.region_lock.lock();
        let t0 = cilkm_obs::clock::now_ns();
        let was_enabled = cilkm_obs::trace::enabled();
        cilkm_obs::trace::set_enabled(true);
        let (result, _) = self.run_region(f);
        // Restore the flag before unwrapping so a panicking region does
        // not leave tracing on for the whole process.
        cilkm_obs::trace::set_enabled(was_enabled);
        let value = result.into_return_value();
        (value, cilkm_obs::trace::drain().since_ns(t0))
    }

    /// Runs `f` as a parallel region with the **online work/span
    /// profiler** on, and returns a [`cilkm_obs::ParallelismReport`]
    /// alongside the result: work, span, parallelism, and the burdened
    /// span with its reducer-overhead breakdown — Cilkview-style, in
    /// constant space per worker, without draining any trace ring.
    ///
    /// The profiling session is process-global (like tracing), so two
    /// overlapping `run_profiled` calls on different pools would pool
    /// their numbers; per-pool regions already serialize. Without the
    /// `trace` cargo feature the region still runs and the report is
    /// all zeros.
    pub fn run_profiled<F, R>(&self, f: F) -> (R, cilkm_obs::ParallelismReport)
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        assert!(
            WorkerThread::current().is_none(),
            "Pool::run_profiled called from inside a worker"
        );
        let _region = self.region_lock.lock();
        profile::begin_session();
        let (result, root_final) = self.run_region(f);
        // End the session before unwrapping so a panicking region does
        // not leave profiling enabled.
        let report = profile::end_session(root_final);
        (result.into_return_value(), report)
    }

    /// Scheduler statistics accumulated since pool construction.
    pub fn stats(&self) -> PoolStats {
        self.registry.stats()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.registry.terminate.store(true, Ordering::SeqCst);
        self.registry.gate.signal_all();
        if let Some(handles) = self.handles.take() {
            for h in handles {
                let _ = h.join();
            }
        }
        // All workers have quiesced: flush the sanitizer report (no-op
        // unless the `sanitize` hooks are compiled in and
        // `CILKM_SAN_REPORT` is set). Flushed here rather than at
        // process exit so test binaries and examples leave a report
        // behind without any atexit machinery.
        crate::sanhooks::flush_report();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// `add-1` moves with the layout of the pool's shared state (ROADMAP
    /// "Known flaky"), so its plain-build sizes are pinned: a change to
    /// either must be a choice, not a side effect.
    #[cfg(not(any(feature = "model", feature = "sanitize")))]
    #[test]
    fn pool_state_sizes_are_pinned() {
        assert_eq!(std::mem::size_of::<ThreadInfo>(), 80);
        assert_eq!(std::mem::size_of::<Registry>(), 136);
    }

    #[test]
    fn pool_runs_a_closure_on_a_worker() {
        let pool = Pool::new(2);
        let idx = pool.run(current_worker_index);
        assert!(idx.is_some());
        assert!(idx.unwrap() < 2);
    }

    #[test]
    fn pool_returns_value_and_stats_start_clean() {
        let pool = Pool::new(1);
        assert_eq!(pool.run(|| 6 * 7), 42);
        assert_eq!(pool.num_threads(), 1);
    }

    /// Back-to-back regions on real threads: the root latch's `set`
    /// lands both before and after the caller parks, and neither loses
    /// the wakeup.
    #[test]
    fn sequential_runs_reuse_workers() {
        let pool = Pool::new(2);
        for i in 0..10_000 {
            assert_eq!(pool.run(move || i * 2), i * 2);
        }
    }

    #[test]
    #[should_panic(expected = "root boom")]
    fn root_panic_propagates() {
        let pool = Pool::new(2);
        pool.run(|| panic!("root boom"));
    }

    #[test]
    fn pool_survives_a_panicked_region() {
        let pool = Pool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|| panic!("first"));
        }));
        assert!(caught.is_err());
        assert_eq!(pool.run(|| 5), 5);
    }

    #[test]
    fn drop_terminates_workers() {
        let pool = Pool::new(4);
        pool.run(|| ());
        drop(pool); // must not hang
    }

    fn fib(n: u64) -> u64 {
        if n < 2 {
            n
        } else {
            let (a, b) = crate::join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
    }

    #[test]
    fn scheduler_counters_move_under_load() {
        let pool = Pool::new(4);
        assert_eq!(pool.run(|| fib(16)), 987);
        let s = pool.stats();
        assert!(s.steal_attempts > 0, "workers must have swept for work");
        assert!(
            s.steal_attempts >= s.steals + s.failed_steals,
            "every steal outcome starts as an attempt"
        );
        assert!(s.deque_hwm >= 1, "joins push jobs, so depth reached >= 1");
        // Workers may be parked right now (the region is over), so only
        // the one-sided invariant holds: every wake had a park.
        assert!(s.wakes <= s.parks);
    }

    /// Each worker's own park count.
    fn parks_by_worker(reg: &Registry) -> Vec<u64> {
        let parks = |t: &ThreadInfo| t.stats.parks.get();
        reg.threads.iter().map(parks).collect()
    }

    /// Whether every worker parks again within 100 ms, counting from
    /// `before`. A worker left in the hot wait never does: the 10 ms
    /// backstop re-parks only workers that are already parked.
    fn all_park_again(reg: &Registry, before: &[u64]) -> bool {
        let deadline = Instant::now() + Duration::from_millis(100);
        loop {
            if parks_by_worker(reg)
                .iter()
                .zip(before)
                .all(|(now, b)| now > b)
            {
                return true;
            }
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn hardware_threads() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    #[test]
    fn bursts_inside_a_region_park_nobody_and_its_end_parks_everyone() {
        if hardware_threads() < 2 {
            return; // one CPU: the pool is oversubscribed and must park
        }
        let pool = Pool::new(2);
        let reg = &*pool.registry;
        let (before, after) = pool.run(|| {
            // The root's worker does not sweep, so two sweeps counted
            // from here are the other worker's, awake and past any park
            // it was in the middle of when the region opened.
            let sweeps = reg.stats().steal_attempts;
            while reg.stats().steal_attempts < sweeps + 2 {
                std::hint::spin_loop();
            }
            let before = parks_by_worker(reg);
            for _ in 0..200 {
                crate::join(|| std::hint::black_box(1), || std::hint::black_box(2));
                let serial = Instant::now();
                while serial.elapsed() < Duration::from_micros(20) {
                    std::hint::spin_loop();
                }
            }
            (before, parks_by_worker(reg))
        });
        assert_eq!(before, after, "a worker parked while the region ran");
        assert!(all_park_again(reg, &after), "a worker stayed awake");
        let s = pool.stats();
        assert!(s.wakes <= s.parks);
    }

    #[test]
    fn an_oversubscribed_pool_parks_inside_an_open_region() {
        let pool = Pool::new(hardware_threads() + 1);
        let reg = &*pool.registry;
        let parked = pool.run(|| {
            let before = reg.stats().parks;
            (0..100).any(|_| {
                std::thread::sleep(Duration::from_millis(20));
                reg.stats().parks > before
            })
        });
        assert!(parked, "idle workers kept their CPUs from the root's");
    }

    #[test]
    fn a_panicked_region_leaves_no_worker_spinning() {
        let pool = Pool::new(2);
        let reg = &*pool.registry;
        let before = std::sync::OnceLock::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|| {
                before.set(parks_by_worker(reg)).unwrap();
                panic!("root boom");
            })
        }));
        assert!(caught.is_err());
        assert!(!reg.region_open.load(Ordering::Acquire));
        assert!(all_park_again(reg, before.get().unwrap()));
    }
}
