//! Instrumentation for the paper's overhead studies.
//!
//! The evaluation (§8) decomposes the **reduce overhead** — overhead
//! incurred only during parallel execution — into four categories
//! (Figure 8):
//!
//! * **view creation** — building identity views lazily on first access
//!   after a steal;
//! * **view insertion** — recording a new view in the context's map
//!   (hash-table insert for hypermaps, one private-SPA-slot write plus a
//!   log append for memory-mapped reducers);
//! * **view transferal** — publishing a terminating context's views
//!   (pointer switch for hypermaps, private→public pointer copy for
//!   memory-mapped reducers);
//! * **hypermerge** — sequencing one view set against another and running
//!   the monoid reduce operations.
//!
//! All four live on steal paths (cold). Their **counts** are kept in
//! every build; their **nanosecond timers** — [`Histogram`]s, one sample
//! per operation in log2 ns buckets, whose sums are the totals
//! [`Instrument::snapshot`] reports — and the per-lookup counter are
//! compiled in only when `ENABLED` is true.
//!
//! Counts go one of two ways:
//!
//! * **Per view, in the worker.** Lookups, view creations, view
//!   insertions and SPA log overflows happen in a worker's own context,
//!   up to once per reducer per steal for the last three. Each is a plain
//!   `Cell` increment in the worker's state (`bump`). Nothing shared is
//!   written, so a first touch writes only the worker's slot space (or
//!   table), the new view and the worker's own state. Each backend's
//!   `flush_counts` adds the cells to these totals (`flush`) at every
//!   hook that ends or merges a context: `detach`, `merge_right`,
//!   `collect_root`, `discard` (the panic path) and the state's `Drop`.
//!   The `merge_right` flush keeps the totals exact inside a long region,
//!   whose owner detaches only to leapfrog: read right after a join
//!   returns, they hold every first touch made before it.
//! * **Per steal, at the operation.** Transferals, transferal views,
//!   merges and merge pairs are one relaxed add per operation, by the
//!   worker that performs it. They are few, and readers check them in
//!   the middle of a region, so they are published as they happen.

use std::cell::Cell;

use cilkm_obs::metrics::{
    Counter, FineHistogram, FineHistogramSnapshot, Histogram, HistogramSnapshot,
};
use cilkm_obs::profile::{self, Burden};

/// The one instrumentation switch: true in debug builds and whenever the
/// `instrument` feature is on (the figure harness, the benchmark's traced
/// pass and the root package's tests turn it on), false in a plain
/// release build. It governs everything that costs time where the paper
/// measures time: the per-lookup increment inside the two-load fast path
/// of Figure 1, and every clock read and histogram record on the steal
/// path of both backends (the thread-CPU clock is a system call, and a
/// view's creation and insertion are each shorter than the clock reads
/// that bracket them). The steal-path *counts* stay unconditional: cell
/// increments flushed at the hooks, or one relaxed add per steal (see
/// the module docs), and the benchmark's gated pass checks them against
/// its traced pass round by round.
pub(crate) const ENABLED: bool = cfg!(any(debug_assertions, feature = "instrument"));

/// Shared (per-domain) instrumentation totals, on the unified
/// `cilkm-obs` metric primitives: counts are [`Counter`]s, the four §8
/// overhead categories are [`Histogram`]s of per-operation latencies.
#[derive(Default)]
pub struct Instrument {
    /// Reducer lookups (hot-path counter, flushed from workers; an
    /// update off the pool adds its one here directly).
    pub lookups: Counter,
    /// Identity views created (flushed from workers).
    pub view_creations: Counter,
    /// Per-creation latency; `.sum` is the Figure 8 view-creation total.
    pub view_creation_ns: Histogram,
    /// Views inserted into a context map (flushed from workers).
    pub view_insertions: Counter,
    /// Per-insertion latency; `.sum` is the Figure 8 insertion total.
    pub view_insertion_ns: Histogram,
    /// View transferal operations (detaches of a non-empty view set).
    pub transferals: Counter,
    /// Views copied out of private maps by view transferal (§7).
    pub transferal_views: Counter,
    /// Per-transferal latency (detach and attach each contribute one
    /// sample); `.sum` is the Figure 8 transferal total.
    pub transferal_ns: Histogram,
    /// Per-transferal **wall-clock** latency at sub-log2 resolution.
    /// Deliberately a different clock from [`Instrument::transferal_ns`]:
    /// the coarse histogram keeps thread CPU time (its sum must stay the
    /// Figure 8 total, and CPU time is robust to preemption), but CPU
    /// time cannot see the time a transferal spends *waiting* — which is
    /// exactly where the contended tail lives — so the tail-analysis
    /// histogram records elapsed wall time instead.
    pub transferal_fine_ns: FineHistogram,
    /// Hypermerge operations.
    pub merges: Counter,
    /// View pairs reduced by hypermerges.
    pub merge_pairs: Counter,
    /// Per-hypermerge latency (including monoid operations); `.sum` is
    /// the Figure 8 hypermerge total.
    pub merge_ns: Histogram,
    /// SPA-map log overflows observed (memory-mapped backend only;
    /// flushed from workers).
    pub log_overflows: Counter,
}

impl Instrument {
    /// Fresh zeroed instrumentation.
    pub fn new() -> Instrument {
        Instrument::default()
    }

    /// Atomically reads all counters (histogram fields read as their
    /// sample sums, preserving the pre-histogram totals format).
    pub fn snapshot(&self) -> InstrumentSnapshot {
        InstrumentSnapshot {
            lookups: self.lookups.get(),
            view_creations: self.view_creations.get(),
            view_creation_ns: self.view_creation_ns.snapshot().sum,
            view_insertions: self.view_insertions.get(),
            view_insertion_ns: self.view_insertion_ns.snapshot().sum,
            transferals: self.transferals.get(),
            transferal_views: self.transferal_views.get(),
            transferal_copied_views: self.transferal_views.get(),
            transferal_exchanged_pages: 0,
            transferal_ns: self.transferal_ns.snapshot().sum,
            merges: self.merges.get(),
            merge_pairs: self.merge_pairs.get(),
            merge_ns: self.merge_ns.snapshot().sum,
            log_overflows: self.log_overflows.get(),
        }
    }

    /// The four overhead categories as full latency distributions.
    pub fn histograms(&self) -> ReduceHistograms {
        ReduceHistograms {
            view_creation: self.view_creation_ns.snapshot(),
            view_insertion: self.view_insertion_ns.snapshot(),
            transferal: self.transferal_ns.snapshot(),
            transferal_fine: self.transferal_fine_ns.snapshot(),
            hypermerge: self.merge_ns.snapshot(),
        }
    }

    /// Starts a hypermerge timing window (thread CPU time); `None` with
    /// the switch off.
    #[inline]
    pub(crate) fn merge_timer() -> Option<u64> {
        ENABLED.then(thread_time_ns)
    }

    /// Records one hypermerge sample (thread CPU time elapsed since
    /// `start`) and charges it to the online profiler. Hypermerges run
    /// while the owner's strand context is paused at the sync, so the
    /// charge lands only in the session's burden breakdown — the merge
    /// time itself reaches the burdened span through the runtime's sync
    /// fold, never double-counted.
    #[inline]
    pub(crate) fn add_merge_ns(hist: &Histogram, start: Option<u64>) {
        if let Some(start_ns) = start {
            let ns = thread_time_ns().saturating_sub(start_ns);
            hist.record(ns);
            profile::charge(Burden::Hypermerge, ns);
        }
    }

    /// Starts a transferal timing window (both clocks); `None` with the
    /// switch off.
    #[inline]
    pub(crate) fn transferal_timer() -> Option<TransferalTimer> {
        ENABLED.then(|| TransferalTimer {
            cpu0: thread_time_ns(),
            wall0: std::time::Instant::now(),
        })
    }

    /// Ends a transferal window: one CPU-time sample into the coarse
    /// Figure-8 histogram, one wall-clock sample into the fine
    /// tail-analysis histogram, and one wall-clock charge to the online
    /// profiler (transferal happens inside the terminating strand, so
    /// the charge debits that strand's unburdened span — the span the
    /// program would have with free reducers).
    #[inline]
    pub(crate) fn finish_transferal(&self, t: Option<TransferalTimer>) {
        if let Some(t) = t {
            self.transferal_ns
                .record(thread_time_ns().saturating_sub(t.cpu0));
            let wall_ns = t.wall0.elapsed().as_nanos() as u64;
            self.transferal_fine_ns.record(wall_ns);
            profile::charge(Burden::Transferal, wall_ns);
        }
    }

    /// Starts one of the *short* per-view windows (creation, insertion);
    /// `None` with the switch off.
    #[inline]
    pub(crate) fn short_timer() -> Option<std::time::Instant> {
        ENABLED.then(std::time::Instant::now)
    }

    /// Ends a short window: monotonic wall time (vDSO, ~20 ns — a
    /// thread-CPU-time syscall would cost more than the operation being
    /// measured), with each sample capped so that a preemption landing
    /// inside the window on an oversubscribed host cannot charge a whole
    /// scheduling quantum to a sub-microsecond operation. The same capped
    /// sample is charged to the online profiler under `kind`.
    #[inline]
    pub(crate) fn add_short_ns(hist: &Histogram, since: Option<std::time::Instant>, kind: Burden) {
        const CAP_NS: u64 = 10_000;
        if let Some(since) = since {
            let ns = (since.elapsed().as_nanos() as u64).min(CAP_NS);
            hist.record(ns);
            profile::charge(kind, ns);
        }
    }
}

/// Counts one event in a worker's own cell.
#[inline]
pub(crate) fn bump(count: &Cell<u64>) {
    count.set(count.get() + 1);
}

/// Moves a worker's cell count into the shared `total`: one add, and
/// none when nothing was counted.
#[inline]
pub(crate) fn flush(count: &Cell<u64>, total: &Counter) {
    let n = count.take();
    if n != 0 {
        total.add(n);
    }
}

/// In-flight transferal timing window: captures both clocks at the
/// start so [`Instrument::finish_transferal`] can feed the coarse
/// (CPU-time) and fine (wall-clock) histograms from one window.
pub(crate) struct TransferalTimer {
    cpu0: u64,
    wall0: std::time::Instant,
}

/// Per-thread CPU time in nanoseconds.
///
/// The Figure 7/8 timers use *thread CPU time*, not wall time: the
/// "16-processor" experiments run oversubscribed on small hosts, and a
/// wall-clock window spanning a preemption would charge a whole
/// scheduling quantum (milliseconds) to a microsecond-scale operation.
/// The paper's testbed had 16 real cores, where the two are equivalent.
#[cfg(all(unix, not(miri)))]
pub fn thread_time_ns() -> u64 {
    let mut ts = libc::timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // Safety: plain syscall writing the timespec out-parameter.
    unsafe { libc::clock_gettime(libc::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Per-thread CPU time (non-unix and Miri fallback: monotonic wall
/// time — Miri has no thread-CPU-time clock shim).
#[cfg(any(not(unix), miri))]
pub fn thread_time_ns() -> u64 {
    use std::time::Instant;
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A point-in-time copy of the instrumentation counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct InstrumentSnapshot {
    /// Reducer lookups performed.
    pub lookups: u64,
    /// Identity views created.
    pub view_creations: u64,
    /// Nanoseconds creating views.
    pub view_creation_ns: u64,
    /// Views inserted into context maps.
    pub view_insertions: u64,
    /// Nanoseconds inserting views.
    pub view_insertion_ns: u64,
    /// View transferal operations.
    pub transferals: u64,
    /// Views copied out of private maps by view transferal.
    pub transferal_views: u64,
    /// Equal to `transferal_views`. Kept for `benchmark/src/pass.rs`; goes when a `benchmark` PR drops `core.transferal_copied_views`.
    pub transferal_copied_views: u64,
    /// Always 0. Kept for `benchmark/src/pass.rs`; goes when a `benchmark` PR drops `core.transferal_exchanged_pages`.
    pub transferal_exchanged_pages: u64,
    /// Nanoseconds in view transferal.
    pub transferal_ns: u64,
    /// Hypermerge operations.
    pub merges: u64,
    /// View pairs reduced.
    pub merge_pairs: u64,
    /// Nanoseconds in hypermerges.
    pub merge_ns: u64,
    /// SPA-map log overflows.
    pub log_overflows: u64,
}

impl InstrumentSnapshot {
    /// Counter-wise difference `self - earlier`.
    pub fn since(&self, earlier: &InstrumentSnapshot) -> InstrumentSnapshot {
        InstrumentSnapshot {
            lookups: self.lookups - earlier.lookups,
            view_creations: self.view_creations - earlier.view_creations,
            view_creation_ns: self.view_creation_ns - earlier.view_creation_ns,
            view_insertions: self.view_insertions - earlier.view_insertions,
            view_insertion_ns: self.view_insertion_ns - earlier.view_insertion_ns,
            transferals: self.transferals - earlier.transferals,
            transferal_views: self.transferal_views - earlier.transferal_views,
            transferal_copied_views: self.transferal_copied_views - earlier.transferal_copied_views,
            transferal_exchanged_pages: 0,
            transferal_ns: self.transferal_ns - earlier.transferal_ns,
            merges: self.merges - earlier.merges,
            merge_pairs: self.merge_pairs - earlier.merge_pairs,
            merge_ns: self.merge_ns - earlier.merge_ns,
            log_overflows: self.log_overflows - earlier.log_overflows,
        }
    }

    /// The Figure 7/8 quantity: total reduce overhead in nanoseconds
    /// (view creation + insertion + transferal + hypermerge).
    pub fn reduce_overhead_ns(&self) -> u64 {
        self.view_creation_ns + self.view_insertion_ns + self.transferal_ns + self.merge_ns
    }

    /// The Figure 8 per-category breakdown.
    pub fn breakdown(&self) -> ReduceBreakdown {
        ReduceBreakdown {
            view_creation_ns: self.view_creation_ns,
            view_insertion_ns: self.view_insertion_ns,
            transferal_ns: self.transferal_ns,
            hypermerge_ns: self.merge_ns,
        }
    }
}

/// The four Figure 8 categories, in nanoseconds.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ReduceBreakdown {
    /// Creating identity views.
    pub view_creation_ns: u64,
    /// Inserting views into context maps.
    pub view_insertion_ns: u64,
    /// View transferal.
    pub transferal_ns: u64,
    /// Hypermerge (including monoid reduce operations).
    pub hypermerge_ns: u64,
}

/// The four Figure 8 categories as per-operation latency distributions
/// (each snapshot's `.sum` equals the matching [`ReduceBreakdown`]
/// total; `.count` is the operation count).
#[derive(Copy, Clone, Debug, Default)]
pub struct ReduceHistograms {
    /// Identity-view creation latencies.
    pub view_creation: HistogramSnapshot,
    /// Context-map insertion latencies.
    pub view_insertion: HistogramSnapshot,
    /// View-transferal (detach/attach) latencies.
    pub transferal: HistogramSnapshot,
    /// View-transferal latencies again, but wall-clock and at sub-log2
    /// resolution (see [`Instrument::transferal_fine_ns`] for why the
    /// clocks differ): the histogram the contended-transferal gate and
    /// the bimodality analysis read.
    pub transferal_fine: FineHistogramSnapshot,
    /// Hypermerge latencies (including monoid operations).
    pub hypermerge: HistogramSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_time_is_monotonic_and_advances_under_work() {
        let a = thread_time_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(i).rotate_left(3);
        }
        std::hint::black_box(x);
        let b = thread_time_ns();
        assert!(b >= a);
        assert!(b - a > 10_000, "2M ops should cost >10us of CPU time");
    }

    #[test]
    fn snapshot_since_and_totals() {
        let ins = Instrument::new();
        ins.lookups.add(100);
        ins.view_creation_ns.record(10);
        ins.view_insertion_ns.record(20);
        ins.transferal_ns.record(30);
        ins.merge_ns.record(40);
        let a = ins.snapshot();
        assert_eq!(a.reduce_overhead_ns(), 100);
        ins.lookups.add(50);
        let b = ins.snapshot();
        assert_eq!(b.since(&a).lookups, 50);
        let bd = a.breakdown();
        assert_eq!(bd.view_creation_ns, 10);
        assert_eq!(bd.hypermerge_ns, 40);
    }

    #[test]
    fn histogram_sums_are_the_breakdown_totals() {
        let ins = Instrument::new();
        ins.view_creation_ns.record(100);
        ins.view_creation_ns.record(900);
        ins.merge_ns.record(5_000);
        let h = ins.histograms();
        assert_eq!(h.view_creation.count, 2);
        assert_eq!(h.view_creation.sum, 1_000);
        assert_eq!(h.hypermerge.count, 1);
        let snap = ins.snapshot();
        assert_eq!(snap.view_creation_ns, h.view_creation.sum);
        assert_eq!(snap.merge_ns, h.hypermerge.sum);
        assert_eq!(snap.reduce_overhead_ns(), 6_000);
    }

    use crate::library::SumMonoid;
    use crate::msync::atomic::{AtomicU64, Ordering};
    use crate::{Backend, Reducer, ReducerPool};

    /// Leaves, hence forced steals, of one [`spine`].
    const K: u64 = 8;
    /// Reducers every leaf and the base case update.
    const N: u64 = 3;

    /// One forced-steal spine (`f(k) = join(f(k-1), leaf_k)`, the base
    /// case waiting until the other worker has started all `K` leaves):
    /// `K` steals of `N` first touches each, on top of whatever the
    /// owner's base case touches first. `started` must read 0.
    fn spine(k: u64, started: &AtomicU64, sums: &[Reducer<SumMonoid<u64>>]) {
        if k == 0 {
            sums.iter().for_each(|s| s.add(1));
            // Yield, not spin: on a one-CPU host the thief needs the
            // processor to take the leaves.
            while started.load(Ordering::Acquire) < K {
                std::thread::yield_now();
            }
            return;
        }
        cilkm_runtime::join(
            || spine(k - 1, started, sums),
            || {
                started.fetch_add(1, Ordering::Release);
                sums.iter().for_each(|s| s.add(1));
            },
        );
    }

    /// The stopwatch is off when the switch is off and exact when it is
    /// on; the steal-path counters do not depend on it. One [`spine`]:
    /// `K` steals of `N` views each on top of the owner's `N`.
    #[test]
    #[cfg_attr(miri, ignore = "spawns OS worker threads")]
    fn stopwatch_follows_the_switch_and_counters_do_not() {
        for backend in [Backend::Hypermap, Backend::Mmap] {
            let pool = ReducerPool::new(2, backend);
            let sums: Vec<Reducer<SumMonoid<u64>>> = (0..N)
                .map(|_| Reducer::new(&pool, SumMonoid::new(), 0))
                .collect();
            let started = AtomicU64::new(0);
            pool.run(|| spine(K, &started, &sums));
            sums.iter().for_each(|s| assert_eq!(s.get_cloned(), K + 1));
            // Off the pool: the serial path, one lookup of the leftmost
            // view, counted only with the switch on.
            sums[0].add(1);

            let snap = pool.instrument();
            let counters = [
                snap.view_creations,
                snap.view_insertions,
                snap.transferals,
                snap.transferal_views,
                snap.merges,
                snap.merge_pairs,
                snap.log_overflows,
            ];
            let views = (K + 1) * N;
            assert_eq!(
                counters,
                [views, views, K, K * N, K, K * N, 0],
                "{backend:?}: the same counts with the switch {ENABLED}"
            );

            let h = pool.overhead_histograms();
            if ENABLED {
                assert_eq!(snap.lookups, views + 1, "{backend:?}: every update once");
                assert_eq!(h.view_creation.count, snap.view_creations, "{backend:?}");
                assert_eq!(h.view_insertion.count, snap.view_insertions, "{backend:?}");
                assert_eq!(h.hypermerge.count, snap.merges, "{backend:?}");
                assert!(h.transferal.count >= snap.transferals, "{backend:?}");
                assert_eq!(h.transferal_fine.count, h.transferal.count, "{backend:?}");
            } else {
                let samples = [
                    h.view_creation.count,
                    h.view_insertion.count,
                    h.transferal.count,
                    h.transferal_fine.count,
                    h.hypermerge.count,
                ];
                assert_eq!(samples, [0; 5], "{backend:?}: a clock was read");
                assert_eq!(snap.reduce_overhead_ns(), 0, "{backend:?}");
                assert_eq!(snap.lookups, 0, "{backend:?}: a lookup was counted");
            }
        }
    }

    /// The per-view counts live in worker cells, and every hook that ends
    /// or merges a context flushes them. So the totals the owner reads
    /// inside its region, right after a spine's joins return, are exact:
    /// every thief's first touches (flushed at its `detach`) and every
    /// one of the owner's (flushed at the spine's `merge_right`s — this
    /// owner never detaches). Two spines in one region, with
    /// a `take` between them that makes the owner touch one reducer
    /// first again; then the region-end totals read the same.
    #[test]
    #[cfg_attr(miri, ignore = "spawns OS worker threads")]
    fn counts_are_exact_at_every_hook_boundary() {
        for backend in [Backend::Hypermap, Backend::Mmap] {
            let pool = ReducerPool::new(2, backend);
            let sums: Vec<Reducer<SumMonoid<u64>>> = (0..N)
                .map(|_| Reducer::new(&pool, SumMonoid::new(), 0))
                .collect();
            let started = AtomicU64::new(0);
            let touches = |snap: InstrumentSnapshot| (snap.view_creations, snap.view_insertions);

            let (first, second) = pool.run(|| {
                spine(K, &started, &sums);
                let first = touches(pool.instrument());
                assert_eq!(sums[0].take(), K + 1);
                started.store(0, Ordering::Release);
                spine(K, &started, &sums);
                (first, touches(pool.instrument()))
            });
            // The owner's `N` and the thieves' `K · N`; then the thieves'
            // again and the owner's one reducer that `take` emptied.
            let round1 = (K + 1) * N;
            let round2 = round1 + K * N + 1;
            assert_eq!(first, (round1, round1), "{backend:?}: after spine 1");
            assert_eq!(second, (round2, round2), "{backend:?}: after spine 2");
            assert_eq!(
                touches(pool.instrument()),
                second,
                "{backend:?}: at region end"
            );

            let snap = pool.instrument();
            assert_eq!(
                (snap.transferals, snap.merges),
                (2 * K, 2 * K),
                "{backend:?}"
            );
            assert_eq!(sums[0].get_cloned(), K + 1, "{backend:?}");
            sums[1..]
                .iter()
                .for_each(|s| assert_eq!(s.get_cloned(), 2 * (K + 1), "{backend:?}"));
        }
    }
}
