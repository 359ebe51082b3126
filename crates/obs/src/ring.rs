//! The per-thread trace ring buffer.
//!
//! Design constraints, in order:
//!
//! 1. **The writer is the hot side.** A worker records an event with two
//!    plain stores and one `Release` store — no locks, no RMW, no
//!    allocation, no branches beyond the capacity check.
//! 2. **Draining must be race-free while workers keep running.** Idle
//!    workers emit park/steal events at any time, so the drain cannot
//!    assume quiescence. The ring is therefore *write-once*: slots
//!    `[0, len)` are immutable once `len` is published with `Release`,
//!    and a drainer reading `len` with `Acquire` only ever touches that
//!    immutable prefix. When the ring is full, new events are counted as
//!    dropped rather than wrapping (wrapping would overwrite slots a
//!    concurrent drainer may be reading).
//! 3. **Model-checkable.** The publication atomics go through
//!    [`crate::msync`], and slot accesses are reported to the checker's
//!    race detector, so the protocol in (2) is verified — not just
//!    argued — under `--features model` (see `model_tests`).
//!
//! Exactly one [`TraceWriter`] exists per ring; it is `!Sync` and its
//! `push` takes `&mut self`, so the single-writer contract is enforced
//! by the type system rather than by documentation.

use std::cell::UnsafeCell;
use std::sync::Arc;

use crate::event::Event;
use crate::msync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::msync::{note_read, note_write};

/// The shared side of one thread's trace ring: readable by any thread.
pub struct TraceRing {
    label: String,
    slots: Box<[UnsafeCell<Event>]>,
    /// Number of published slots. Stored with `Release` after the slot
    /// write; loaded with `Acquire` by drainers.
    len: AtomicUsize,
    /// Events discarded because the ring was full.
    dropped: AtomicU64,
}

// SAFETY: concurrent access is confined to the write-once protocol in
// the module docs — the unique `TraceWriter` writes slot `len` before
// publishing `len + 1` with `Release`, and readers only dereference
// slots below an `Acquire`-loaded `len`, which are never written again.
unsafe impl Send for TraceRing {}
// SAFETY: as for `Send`.
unsafe impl Sync for TraceRing {}

/// The unique writing handle of a [`TraceRing`].
///
/// Not `Clone`, and `push` takes `&mut self`: at most one thread can be
/// recording into a given ring at a time, which is what makes the plain
/// slot store in `push` sound.
pub struct TraceWriter {
    ring: Arc<TraceRing>,
}

impl TraceRing {
    /// Creates a ring of `capacity` events and returns the unique writer
    /// plus the shared (drainable) handle.
    pub fn new(capacity: usize, label: impl Into<String>) -> (TraceWriter, Arc<TraceRing>) {
        assert!(capacity > 0, "trace ring needs at least one slot");
        let ring = Arc::new(TraceRing {
            label: label.into(),
            slots: (0..capacity)
                .map(|_| UnsafeCell::new(Event::ZERO))
                .collect(),
            len: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        });
        (
            TraceWriter {
                ring: Arc::clone(&ring),
            },
            ring,
        )
    }

    /// The label this ring was registered under (thread/worker name).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events discarded because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copies out the published events. Safe to call at any time, even
    /// while the owning thread keeps recording: only the immutable
    /// prefix below the `Acquire`-loaded length is read.
    pub fn snapshot(&self) -> Vec<Event> {
        let n = self.len.load(Ordering::Acquire);
        let mut out = Vec::with_capacity(n);
        for slot in &self.slots[..n] {
            note_read(slot.get() as usize, "TraceRingSlot");
            // SAFETY: `slot` is below the published length, so it was
            // fully written before the writer's `Release` store that our
            // `Acquire` load observed, and write-once slots are never
            // touched again.
            out.push(unsafe { *slot.get() });
        }
        out
    }

    /// Model-only negative control: reads one slot *past* the published
    /// length, deliberately violating the write-once protocol. The model
    /// checker must report this as a data race (see `model_tests`) —
    /// proving the race detector is actually watching the slots, so the
    /// clean verdict on [`TraceRing::snapshot`] means something.
    #[cfg(feature = "model")]
    pub fn snapshot_overread(&self) -> Vec<Event> {
        let n = (self.len.load(Ordering::Acquire) + 1).min(self.slots.len());
        let mut out = Vec::with_capacity(n);
        for slot in &self.slots[..n] {
            note_read(slot.get() as usize, "TraceRingSlot");
            // SAFETY: deliberately unsound-by-protocol (that is the
            // point of the test); the read itself stays in-bounds and
            // `Event` is `Copy` with no invalid bit patterns, so the
            // torn value is still a valid `Event`.
            out.push(unsafe { *slot.get() });
        }
        out
    }
}

impl TraceWriter {
    /// Records one event; counts it as dropped if the ring is full.
    #[inline]
    pub fn push(&mut self, ev: Event) {
        let ring = &*self.ring;
        // Only this writer ever stores `len`, so a Relaxed load reads
        // our own last store.
        let n = ring.len.load(Ordering::Relaxed);
        if n == ring.slots.len() {
            ring.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let slot = ring.slots[n].get();
        note_write(slot as usize, "TraceRingSlot");
        // SAFETY: slot `n` is above the published length, so no reader
        // touches it yet, and `&mut self` excludes other writers.
        unsafe { *slot = ev };
        // Publish: the slot write happens-before any reader that
        // observes the new length.
        ring.len.store(n + 1, Ordering::Release);
    }

    /// The shared handle of the ring this writer feeds.
    pub fn ring(&self) -> &Arc<TraceRing> {
        &self.ring
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(ts: u64) -> Event {
        Event {
            ts_ns: ts,
            kind: EventKind::Park,
            arg: ts * 10,
        }
    }

    #[test]
    fn push_then_snapshot_round_trips() {
        let (mut w, ring) = TraceRing::new(8, "t");
        for i in 0..5 {
            w.push(ev(i));
        }
        let got = ring.snapshot();
        assert_eq!(got.len(), 5);
        for (i, e) in got.iter().enumerate() {
            assert_eq!(e.ts_ns, i as u64);
            assert_eq!(e.arg, i as u64 * 10);
        }
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.label(), "t");
    }

    #[test]
    fn full_ring_counts_drops_and_keeps_prefix() {
        let (mut w, ring) = TraceRing::new(3, "t");
        for i in 0..10 {
            w.push(ev(i));
        }
        let got = ring.snapshot();
        assert_eq!(got.len(), 3);
        assert_eq!(got[2].ts_ns, 2, "earliest events are kept, not wrapped");
        assert_eq!(ring.dropped(), 7);
    }

    #[test]
    fn snapshot_is_a_stable_prefix_under_concurrent_writes() {
        let (mut w, ring) = TraceRing::new(4096, "t");
        let reader = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut last = 0usize;
                for _ in 0..1000 {
                    let snap = ring.snapshot();
                    assert!(snap.len() >= last, "published prefix never shrinks");
                    for (i, e) in snap.iter().enumerate() {
                        assert_eq!(e.ts_ns, i as u64, "prefix contents are immutable");
                    }
                    last = snap.len();
                }
            })
        };
        for i in 0..4096 {
            w.push(ev(i));
        }
        reader.join().unwrap();
        assert_eq!(ring.snapshot().len(), 4096);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_is_rejected() {
        let _ = TraceRing::new(0, "t");
    }
}
