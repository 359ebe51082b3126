//! Online work/span profiling: the workspace's one work/span instrument.
//!
//! This module computes three headline numbers — **work**, **span**, and
//! **burdened span** — *online*, in constant space per worker, without
//! recording or draining any event. The algorithm is the classic
//! Cilkview strand folding:
//!
//! * every worker keeps one running strand context `(span, burdened
//!   span)` for the strand it is currently executing, advanced by the
//!   wall-clock length of each instrumented segment;
//! * at a **spawn** the current `(span, bspan)` pair is stored in the
//!   spawned task's job header (the deque publish synchronizes it to
//!   whoever executes the task);
//! * a task's executor starts its context from that stored pair and, at
//!   **strand end**, writes its final pair back through the job (latch
//!   publication synchronizes it to the joining owner);
//! * at a **sync** the continuation resumes from the *elementwise max*
//!   of its own pair and every joined task's final pair, with the
//!   hypermerge time added to the burdened side only.
//!
//! Work is the sum of all segment lengths, accumulated into one global
//! counter at every pause point. **Burden** — the reducer overheads the
//! paper decomposes (view creation / insertion / transferal /
//! hypermerge) — is charged by `cilkm-core` through [`charge`]: each
//! charge lands in a global breakdown *and* is debited from the current
//! strand's unburdened span, so `span` approximates the critical path of
//! an ideal zero-overhead runtime while `burdened_span` is the real one.
//! Their difference is the reducer overhead that sits on the critical
//! path — the one number that checks the paper's claim that the
//! overhead lands at steals and joins. The report gives that total, not
//! which merge or transferal contributed it.
//!
//! Everything here is compiled out without the `trace` cargo feature
//! and costs one `Relaxed` load per call site when compiled but not
//! profiling. Profiling is independent of event *tracing*: either can
//! be on without the other ([`crate::trace::set_enabled`] vs
//! [`begin_session`]).

#![cfg_attr(
    feature = "trace",
    expect(
        clippy::disallowed_types,
        reason = "the profiler's enabled flag and work/burden accumulators are process-global Relaxed-only monitoring data shared with non-pool threads; cross-thread span hand-off rides the runtime's existing deque/latch publication and is not synchronized here"
    )
)]

#[cfg(feature = "trace")]
mod imp {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    use crate::clock;

    pub(super) static PROFILING: AtomicBool = AtomicBool::new(false);

    /// Total instrumented segment time (ns) across all workers.
    pub(super) static WORK_NS: AtomicU64 = AtomicU64::new(0);
    /// Spawns folded online this session.
    pub(super) static SPAWNS: AtomicU64 = AtomicU64::new(0);
    /// Syncs folded online this session.
    pub(super) static SYNCS: AtomicU64 = AtomicU64::new(0);

    /// Burden breakdown (indexed by `Burden as usize`).
    pub(super) static BURDEN_NS: [AtomicU64; 4] = [const { AtomicU64::new(0) }; 4];

    /// The per-thread running strand context.
    #[derive(Copy, Clone, Default)]
    pub(super) struct Ctx {
        /// Strand is currently accumulating (between begin/resume and
        /// pause/end).
        pub active: bool,
        /// Unburdened span up to the start of the current segment.
        pub span_ns: u64,
        /// Burdened span up to the start of the current segment.
        pub bspan_ns: u64,
        /// Burden charged during the current segment (subtracted from
        /// the unburdened side when the segment is flushed).
        pub debit_ns: u64,
        /// Clock reading at the start of the current segment.
        pub seg_start: u64,
    }

    thread_local! {
        pub(super) static CTX: std::cell::Cell<Ctx> = const { std::cell::Cell::new(Ctx {
            active: false,
            span_ns: 0,
            bspan_ns: 0,
            debit_ns: 0,
            seg_start: 0,
        }) };
    }

    /// Closes the current segment: adds its wall length to work and to
    /// both span sides (minus the charged burden on the unburdened
    /// side), and restarts the segment clock.
    #[inline]
    pub(super) fn flush(ctx: &mut Ctx) {
        if !ctx.active {
            return;
        }
        let now = clock::now_ns();
        let dt = now.saturating_sub(ctx.seg_start);
        WORK_NS.fetch_add(dt, Ordering::Relaxed);
        ctx.span_ns += dt.saturating_sub(ctx.debit_ns);
        ctx.bspan_ns += dt;
        ctx.debit_ns = 0;
        ctx.seg_start = now;
    }
}

/// The reducer-overhead categories charged to strands via [`charge`] —
/// the paper's §8 decomposition, attributed to the strand that paid it
/// instead of to a flat histogram.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Burden {
    /// First lookup of a reducer on a strand: allocating + initializing
    /// a fresh identity view.
    ViewCreation = 0,
    /// Inserting that view into the worker's SPA map.
    ViewInsertion = 1,
    /// Copying views out of / into TLMM regions at a steal or
    /// suspension (the memory-mapped mechanism's per-steal cost).
    Transferal = 2,
    /// Folding spawned views at a join.
    Hypermerge = 3,
}

/// Total burden charged during a profiling session, by category.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BurdenBreakdown {
    /// View-creation ns ([`Burden::ViewCreation`]).
    pub view_creation_ns: u64,
    /// View-insertion ns ([`Burden::ViewInsertion`]).
    pub view_insertion_ns: u64,
    /// View-transferal ns ([`Burden::Transferal`]).
    pub transferal_ns: u64,
    /// Hypermerge ns ([`Burden::Hypermerge`]).
    pub hypermerge_ns: u64,
    /// Always 0. Kept for `benchmark/src/pass.rs`; goes when a `benchmark` PR drops `obs.burden_exchange_ns`.
    pub transferal_exchange_ns: u64,
}

impl BurdenBreakdown {
    /// Total charged ns across the four timed categories.
    pub fn total_ns(&self) -> u64 {
        self.view_creation_ns + self.view_insertion_ns + self.transferal_ns + self.hypermerge_ns
    }
}

/// What [`end_session`] returns: the online work/span numbers for one
/// profiled region, in the vocabulary of Cilkview.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct ParallelismReport {
    /// Total instrumented computation time across all workers (ns).
    pub work_ns: u64,
    /// Critical-path length with reducer burden subtracted out (ns) —
    /// the span an ideal zero-overhead runtime would see.
    pub span_ns: u64,
    /// Critical-path length as executed, burden included (ns).
    pub burdened_span_ns: u64,
    /// Spawns folded during the session.
    pub spawns: u64,
    /// Syncs folded during the session.
    pub syncs: u64,
    /// Reducer burden charged during the session, by category.
    pub burden: BurdenBreakdown,
}

impl ParallelismReport {
    /// Ideal parallelism: work / span. Returns 0.0 for a degenerate
    /// (zero-span) report.
    pub fn parallelism(&self) -> f64 {
        ratio(self.work_ns, self.span_ns)
    }

    /// Burdened parallelism: work / burdened span — the number that
    /// bounds real speedup once reducer overhead is on the path.
    pub fn burdened_parallelism(&self) -> f64 {
        ratio(self.work_ns, self.burdened_span_ns)
    }

    /// A compact human-readable rendering.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("parallelism report (online)\n");
        s.push_str(&format!("  work:            {:>12} ns\n", self.work_ns));
        s.push_str(&format!("  span:            {:>12} ns\n", self.span_ns));
        s.push_str(&format!(
            "  burdened span:   {:>12} ns\n",
            self.burdened_span_ns
        ));
        s.push_str(&format!(
            "  parallelism:     {:>12.2}\n",
            self.parallelism()
        ));
        s.push_str(&format!(
            "  burdened par.:   {:>12.2}\n",
            self.burdened_parallelism()
        ));
        s.push_str(&format!(
            "  spawns/syncs:    {:>12}\n",
            format!("{}/{}", self.spawns, self.syncs)
        ));
        let b = &self.burden;
        s.push_str(&format!(
            "  burden: creation {} ns, insertion {} ns, transferal {} ns, hypermerge {} ns\n",
            b.view_creation_ns, b.view_insertion_ns, b.transferal_ns, b.hypermerge_ns
        ));
        s
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A strand context saved by [`strand_begin`] and restored by
/// [`strand_end`] — opaque so callers cannot forge span values.
#[derive(Default)]
pub struct SavedCtx(#[cfg(feature = "trace")] imp::Ctx);

/// Whether a profiling session is running (one `Relaxed` load; `false`
/// without the `trace` feature).
#[deny(clippy::indexing_slicing)]
#[inline]
pub fn profiling() -> bool {
    #[cfg(feature = "trace")]
    {
        imp::PROFILING.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "trace"))]
    {
        false
    }
}

/// Starts a profiling session: zeroes the accumulators and turns the
/// per-strand folding on. Sessions are process-global — one profiled
/// region at a time; concurrent regions would pool their work into one
/// report. No-op without the `trace` feature.
pub fn begin_session() {
    #[cfg(feature = "trace")]
    {
        use std::sync::atomic::Ordering;
        crate::clock::warm_up();
        imp::WORK_NS.store(0, Ordering::Relaxed);
        imp::SPAWNS.store(0, Ordering::Relaxed);
        imp::SYNCS.store(0, Ordering::Relaxed);
        for b in &imp::BURDEN_NS {
            b.store(0, Ordering::Relaxed);
        }
        imp::PROFILING.store(true, Ordering::Relaxed);
    }
}

/// Ends the session and builds the report. `root_final` is the root
/// strand's final `(span, burdened span)` pair, which the runtime reads
/// from the root job after its latch fires. Returns a zero report
/// without the `trace` feature.
pub fn end_session(root_final: (u64, u64)) -> ParallelismReport {
    #[cfg(feature = "trace")]
    {
        use std::sync::atomic::Ordering;
        imp::PROFILING.store(false, Ordering::Relaxed);
        let burden = BurdenBreakdown {
            view_creation_ns: imp::BURDEN_NS[Burden::ViewCreation as usize].load(Ordering::Relaxed),
            view_insertion_ns: imp::BURDEN_NS[Burden::ViewInsertion as usize]
                .load(Ordering::Relaxed),
            transferal_ns: imp::BURDEN_NS[Burden::Transferal as usize].load(Ordering::Relaxed),
            hypermerge_ns: imp::BURDEN_NS[Burden::Hypermerge as usize].load(Ordering::Relaxed),
            transferal_exchange_ns: 0,
        };
        ParallelismReport {
            work_ns: imp::WORK_NS.load(Ordering::Relaxed),
            span_ns: root_final.0,
            burdened_span_ns: root_final.1,
            spawns: imp::SPAWNS.load(Ordering::Relaxed),
            syncs: imp::SYNCS.load(Ordering::Relaxed),
            burden,
        }
    }
    #[cfg(not(feature = "trace"))]
    {
        let _ = root_final;
        ParallelismReport::default()
    }
}

/// Snapshot of the current strand's `(span, bspan)` at a spawn point,
/// to be stored in the spawned task's job header. Counts one spawn.
/// Returns zeros when not profiling.
#[deny(clippy::indexing_slicing)]
#[inline]
pub fn spawn_point() -> (u64, u64) {
    #[cfg(feature = "trace")]
    {
        if !profiling() {
            return (0, 0);
        }
        imp::SPAWNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        imp::CTX.with(|cell| {
            let mut ctx = cell.get();
            imp::flush(&mut ctx);
            cell.set(ctx);
            (ctx.span_ns, ctx.bspan_ns)
        })
    }
    #[cfg(not(feature = "trace"))]
    {
        (0, 0)
    }
}

/// Starts a strand whose spawn point carried `spawn` — used by task
/// executors (inline, stolen, scope, root). Saves and replaces the
/// calling thread's context; pass the returned [`SavedCtx`] to
/// [`strand_end`].
#[inline]
pub fn strand_begin(spawn: (u64, u64)) -> SavedCtx {
    #[cfg(feature = "trace")]
    {
        if !profiling() {
            return SavedCtx::default();
        }
        imp::CTX.with(|cell| {
            let saved = cell.get();
            cell.set(imp::Ctx {
                active: true,
                span_ns: spawn.0,
                bspan_ns: spawn.1,
                debit_ns: 0,
                seg_start: crate::clock::now_ns(),
            });
            SavedCtx(saved)
        })
    }
    #[cfg(not(feature = "trace"))]
    {
        let _ = spawn;
        SavedCtx::default()
    }
}

/// Ends the current strand, restores the saved context, and returns the
/// strand's final `(span, bspan)` — to be published through the job's
/// latch for the joining owner. Returns zeros when not profiling.
#[inline]
pub fn strand_end(saved: SavedCtx) -> (u64, u64) {
    #[cfg(feature = "trace")]
    {
        if !profiling() {
            return (0, 0);
        }
        imp::CTX.with(|cell| {
            let mut ctx = cell.get();
            imp::flush(&mut ctx);
            let out = (ctx.span_ns, ctx.bspan_ns);
            cell.set(saved.0);
            out
        })
    }
    #[cfg(not(feature = "trace"))]
    {
        let _ = saved;
        (0, 0)
    }
}

/// Pauses the current strand at a sync point (the continuation is about
/// to wait for its spawned tasks), returning its `(span, bspan)` so
/// far. Counts one sync. The context stays installed but inactive; any
/// foreign jobs executed while waiting nest their own contexts over it.
#[inline]
pub fn sync_pause() -> (u64, u64) {
    #[cfg(feature = "trace")]
    {
        if !profiling() {
            return (0, 0);
        }
        imp::SYNCS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        imp::CTX.with(|cell| {
            let mut ctx = cell.get();
            imp::flush(&mut ctx);
            ctx.active = false;
            cell.set(ctx);
            (ctx.span_ns, ctx.bspan_ns)
        })
    }
    #[cfg(not(feature = "trace"))]
    {
        (0, 0)
    }
}

/// Resumes the continuation after a sync: the new span pair is the
/// caller-computed elementwise max of the continuation's pair and every
/// joined task's final pair, and `merge_ns` (the hypermerge the owner
/// just ran) is added to the burdened side only.
#[inline]
pub fn sync_resume(span_ns: u64, bspan_ns: u64, merge_ns: u64) {
    #[cfg(feature = "trace")]
    {
        if !profiling() {
            return;
        }
        imp::CTX.with(|cell| {
            cell.set(imp::Ctx {
                active: true,
                span_ns,
                bspan_ns: bspan_ns + merge_ns,
                debit_ns: 0,
                seg_start: crate::clock::now_ns(),
            });
        });
    }
    #[cfg(not(feature = "trace"))]
    {
        let _ = (span_ns, bspan_ns, merge_ns);
    }
}

/// Charges `ns` of reducer burden to the session and debits it from the
/// current strand's unburdened span. Called by `cilkm-core` at its
/// instrumented view-creation / insertion / transferal / merge sites.
/// One `Relaxed` load when not profiling.
#[deny(clippy::indexing_slicing)]
#[inline]
pub fn charge(kind: Burden, ns: u64) {
    #[cfg(feature = "trace")]
    {
        if !profiling() || ns == 0 {
            return;
        }
        // SAFETY: `Burden` discriminants are 0..=3 and BURDEN_NS has 4
        // slots, so the index is always in bounds.
        unsafe { imp::BURDEN_NS.get_unchecked(kind as usize) }
            .fetch_add(ns, std::sync::atomic::Ordering::Relaxed);
        imp::CTX.with(|cell| {
            let mut ctx = cell.get();
            if ctx.active {
                ctx.debit_ns += ns;
                cell.set(ctx);
            }
        });
    }
    #[cfg(not(feature = "trace"))]
    {
        let _ = (kind, ns);
    }
}

#[cfg(all(test, feature = "trace"))]
mod tests {
    use super::*;

    // The profiling flag and accumulators are process-wide; tests that
    // run sessions serialize on one lock.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn spin_ns(ns: u64) {
        let t0 = crate::clock::now_ns();
        while crate::clock::now_ns() - t0 < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn disabled_calls_are_inert() {
        let _g = serial();
        assert!(!profiling());
        assert_eq!(spawn_point(), (0, 0));
        let saved = strand_begin((5, 5));
        charge(Burden::Hypermerge, 100);
        assert_eq!(strand_end(saved), (0, 0));
        assert_eq!(sync_pause(), (0, 0));
        sync_resume(1, 2, 3);
    }

    #[test]
    fn serial_session_span_equals_work() {
        let _g = serial();
        begin_session();
        let saved = strand_begin((0, 0));
        spin_ns(200_000);
        let root = strand_end(saved);
        let report = end_session(root);
        assert!(report.work_ns >= 200_000, "work {}", report.work_ns);
        // A single strand: span == bspan == its own segment, and work
        // only differs by other threads' noise (none here).
        assert_eq!(report.span_ns, root.0);
        assert_eq!(report.burdened_span_ns, root.1);
        assert!(report.span_ns >= 200_000);
        assert!((report.parallelism() - 1.0).abs() < 0.2);
    }

    #[test]
    fn fold_takes_max_and_burden_extends_bspan_only() {
        let _g = serial();
        begin_session();
        let saved = strand_begin((0, 0));
        spin_ns(50_000);
        let spawn = spawn_point(); // task inherits this pair
        spin_ns(30_000);
        let left = sync_pause();

        // Simulate the spawned task on this same thread (the fold logic
        // is pure arithmetic; placement doesn't matter).
        let inner = strand_begin(spawn);
        spin_ns(120_000);
        charge(Burden::Transferal, 40_000);
        let child = strand_end(inner);

        // Child ran longer: it carries the span. Its burden charge grew
        // bspan relative to span by ~40 µs.
        assert!(child.0 > left.0);
        assert!(child.1 >= child.0 + 40_000 - 1_000);

        sync_resume(left.0.max(child.0), left.1.max(child.1), 10_000);
        spin_ns(20_000);
        let root = strand_end(saved);
        let report = end_session(root);

        assert_eq!(report.spawns, 1);
        assert_eq!(report.syncs, 1);
        assert_eq!(report.burden.transferal_ns, 40_000);
        assert_eq!(report.burden.hypermerge_ns, 0, "merge_ns is caller-side");
        // Work counts both branches; span only the longer one.
        assert!(report.work_ns >= 220_000 - 2_000);
        assert!(report.span_ns < report.work_ns);
        // Burden sits on the burdened side: bspan >= span + charges.
        assert!(
            report.burdened_span_ns >= report.span_ns + 45_000,
            "bspan {} span {}",
            report.burdened_span_ns,
            report.span_ns
        );
    }

    #[test]
    fn charge_is_debited_from_unburdened_span() {
        let _g = serial();
        begin_session();
        let saved = strand_begin((0, 0));
        spin_ns(10_000);
        charge(Burden::Hypermerge, 1_000_000_000); // absurd: bigger than the segment
        spin_ns(10_000);
        let root = strand_end(saved);
        let report = end_session(root);
        // The debit saturates at the segment length: span never goes
        // negative, bspan keeps the real wall time.
        assert!(report.span_ns < report.burdened_span_ns);
        assert!(report.burdened_span_ns >= 20_000);
        assert_eq!(report.burden.hypermerge_ns, 1_000_000_000);
    }

    #[test]
    fn report_renders_and_ratios() {
        let r = ParallelismReport {
            work_ns: 1_000,
            span_ns: 250,
            burdened_span_ns: 500,
            spawns: 3,
            syncs: 2,
            burden: BurdenBreakdown {
                transferal_ns: 100,
                ..Default::default()
            },
        };
        assert!((r.parallelism() - 4.0).abs() < 1e-9);
        assert!((r.burdened_parallelism() - 2.0).abs() < 1e-9);
        let text = r.render();
        assert!(text.contains("parallelism"));
        assert!(text.contains("transferal 100 ns"));
        assert_eq!(ParallelismReport::default().parallelism(), 0.0);
    }
}
