//! The process-wide tracing front end.
//!
//! Instrumentation sites in the runtime call [`emit`], which is the only
//! function on any remotely warm path. Its cost structure:
//!
//! * **`trace` feature off** (the default): the body is compiled out and
//!   the call folds to nothing — the acceptance bar is *zero* lookup
//!   regression with the feature disabled.
//! * **Feature on, tracing disabled at runtime**: one `Relaxed` load of
//!   a process-wide flag.
//! * **Feature on and enabled**: a clock read plus a ring push (two
//!   plain stores and a `Release` store; see [`crate::ring`]).
//!
//! Each thread lazily creates its own ring on first emit and registers
//! the shared handle in a process-wide list; [`drain`] snapshots every
//! registered ring into a [`Trace`]. Draining is race-free even while
//! workers keep emitting (verified under the model checker), so callers
//! such as `Pool::run` can collect a trace without quiescing the pool.

#![cfg_attr(
    feature = "trace",
    expect(
        clippy::disallowed_types,
        reason = "the tracer's enabled flag and ring registry are process-global control plane shared with non-pool threads; the recorded msync primitives are scoped to a model run and cannot back process-wide statics — ring hand-off itself is verified separately in crates/checker's drain model"
    )
)]

use crate::event::{Event, EventKind};

#[cfg(feature = "trace")]
mod imp {
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};

    use crate::clock;
    use crate::event::{Event, EventKind};
    use crate::ring::{TraceRing, TraceWriter};

    pub(super) static ENABLED: AtomicBool = AtomicBool::new(false);

    fn registry() -> &'static Mutex<Vec<Arc<TraceRing>>> {
        static RINGS: OnceLock<Mutex<Vec<Arc<TraceRing>>>> = OnceLock::new();
        RINGS.get_or_init(|| Mutex::new(Vec::new()))
    }

    thread_local! {
        static WRITER: RefCell<Option<TraceWriter>> = const { RefCell::new(None) };
    }

    /// One-time per-thread ring setup: names and allocates the ring and
    /// registers its shared handle. Outlined from [`emit`] so the warm
    /// path stays allocation- and formatting-free.
    #[cold]
    fn new_writer() -> TraceWriter {
        let label = std::thread::current()
            .name()
            .map(str::to_owned)
            .unwrap_or_else(|| format!("thread-{:?}", std::thread::current().id()));
        let (writer, ring) = TraceRing::new(super::RING_CAPACITY, label);
        registry().lock().unwrap().push(ring);
        writer
    }

    #[deny(clippy::indexing_slicing)]
    pub(super) fn emit(kind: EventKind, arg: u64) {
        if !ENABLED.load(Ordering::Relaxed) {
            return;
        }
        let ev = Event {
            ts_ns: clock::now_ns(),
            kind,
            arg,
        };
        WRITER.with(|cell| {
            // Re-entrancy (an emit during ring setup) or emit during TLS
            // teardown would fail the borrow / access; such events are
            // silently skipped rather than aborting the process.
            let Ok(mut slot) = cell.try_borrow_mut() else {
                return;
            };
            let writer = slot.get_or_insert_with(new_writer);
            writer.push(ev);
        });
    }

    pub(super) fn drain() -> super::Trace {
        let rings = registry().lock().unwrap();
        let mut threads: Vec<super::ThreadTrace> = rings
            .iter()
            .map(|ring| super::ThreadTrace {
                label: ring.label().to_owned(),
                events: ring.snapshot(),
                dropped: ring.dropped(),
            })
            .collect();
        // Stable order for exports and tests regardless of which thread
        // happened to register first.
        threads.sort_by(|a, b| a.label.cmp(&b.label));
        super::Trace { threads }
    }
}

/// Per-thread ring capacity in events (24 bytes each, so 1.5 MiB per
/// thread).
pub const RING_CAPACITY: usize = 65_536;

/// True if the crate was built with the `trace` feature; when false,
/// [`emit`] compiles to nothing and [`set_enabled`] cannot turn tracing
/// on.
#[inline]
pub fn compiled() -> bool {
    cfg!(feature = "trace")
}

/// Turns runtime event collection on or off (no-op without the `trace`
/// feature). Returns whether tracing is actually on afterwards.
pub fn set_enabled(on: bool) -> bool {
    #[cfg(feature = "trace")]
    {
        if on {
            crate::clock::warm_up();
        }
        imp::ENABLED.store(on, std::sync::atomic::Ordering::Relaxed);
        on
    }
    #[cfg(not(feature = "trace"))]
    {
        let _ = on;
        false
    }
}

/// Whether events are currently being collected.
#[inline]
pub fn enabled() -> bool {
    #[cfg(feature = "trace")]
    {
        imp::ENABLED.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "trace"))]
    {
        false
    }
}

/// Records one event on the calling thread's ring. The meaning of `arg`
/// depends on `kind` (see [`EventKind`]).
#[deny(clippy::indexing_slicing)]
#[inline]
pub fn emit(kind: EventKind, arg: u64) {
    #[cfg(feature = "trace")]
    imp::emit(kind, arg);
    #[cfg(not(feature = "trace"))]
    {
        let _ = (kind, arg);
    }
}

/// Snapshots every thread's ring into a [`Trace`]. Safe to call while
/// other threads keep emitting; each ring contributes its published
/// prefix. Returns an empty trace without the `trace` feature.
pub fn drain() -> Trace {
    #[cfg(feature = "trace")]
    {
        imp::drain()
    }
    #[cfg(not(feature = "trace"))]
    {
        Trace {
            threads: Vec::new(),
        }
    }
}

/// The events one thread recorded, in emission order.
#[derive(Clone, Debug)]
pub struct ThreadTrace {
    /// The thread's name at first emit (workers are named
    /// `cilkm-worker-N` by the pool).
    pub label: String,
    /// Published events, oldest first.
    pub events: Vec<Event>,
    /// Events lost because the ring filled up. Nonzero `dropped` means
    /// durations derived from this trace undercount.
    pub dropped: u64,
}

/// A drained trace: one [`ThreadTrace`] per thread that ever emitted,
/// sorted by label.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Per-thread event sequences.
    pub threads: Vec<ThreadTrace>,
}

impl Trace {
    /// Total events across all threads.
    pub fn len(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// True if no thread recorded any event.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events lost to full rings, across all threads.
    pub fn dropped(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }

    /// Windows the trace to events at or after `t0` (a [`crate::clock`]
    /// timestamp), dropping threads left with nothing to report. Rings
    /// are never cleared, so this is how a caller isolates one traced
    /// region from earlier ones.
    pub fn since_ns(mut self, t0: u64) -> Trace {
        for t in &mut self.threads {
            t.events.retain(|e| e.ts_ns >= t0);
        }
        self.threads
            .retain(|t| !t.events.is_empty() || t.dropped > 0);
        self
    }

    /// Events of one kind across all threads (analysis helper).
    pub fn count(&self, kind: EventKind) -> u64 {
        self.threads
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| e.kind == kind)
            .count() as u64
    }
}

#[cfg(all(test, feature = "trace"))]
mod tests {
    use super::*;

    // The enabled flag and ring registry are process-wide, so the tests
    // that toggle them run under one lock to avoid cross-talk.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_emit_records_nothing() {
        let _g = serial();
        set_enabled(false);
        let before = drain().len();
        emit(EventKind::Park, 0);
        assert_eq!(drain().len(), before);
    }

    #[test]
    fn enabled_emit_is_drained_with_thread_label() {
        let _g = serial();
        set_enabled(true);
        std::thread::Builder::new()
            .name("obs-test-thread".into())
            .spawn(|| {
                emit(EventKind::StealSuccess, 7);
                emit(EventKind::Park, 3);
            })
            .unwrap()
            .join()
            .unwrap();
        set_enabled(false);
        let trace = drain();
        let t = trace
            .threads
            .iter()
            .find(|t| t.label == "obs-test-thread")
            .expect("ring registered under the thread name");
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.events[0].kind, EventKind::StealSuccess);
        assert_eq!(t.events[0].arg, 7);
        assert_eq!(t.events[1].kind, EventKind::Park);
        assert!(t.events[0].ts_ns <= t.events[1].ts_ns);
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn compiled_reflects_feature() {
        assert!(compiled());
    }
}
