//! Compact binary trace events.
//!
//! One event is 24 bytes: a nanosecond timestamp ([`crate::clock`]), a
//! kind byte, and one argument word whose meaning depends on the kind
//! (victim index for steals, detach or suspension for transferals, and
//! so on). Events are written into per-thread ring buffers
//! ([`crate::ring`]) and only decoded at export/analysis time.

/// What happened. The discriminants are stable (they appear in exported
/// CSV files) and dense, so new kinds must be appended and retired ones
/// removed from the end, never inserted or removed in the middle.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A `Pool::run` region started (emitted on the calling thread).
    RegionBegin = 0,
    /// A `Pool::run` region completed.
    RegionEnd = 1,
    /// A steal committed; `arg` = victim worker index.
    StealSuccess = 2,
    /// A full steal sweep found nothing. Emitted once per *idle episode*
    /// (the first failed sweep after useful work), not per sweep — the
    /// per-sweep total lives in the pool's `failed_steals` counter, and
    /// per-sweep events would flood the ring while workers spin.
    StealFail = 3,
    /// A foreign job (stolen, injected, or leapfrogged) started; `arg` =
    /// 0.
    JobBegin = 4,
    /// The foreign job finished (after its view transferal); `arg` = 0.
    /// Emitted before the job's completion latch, so a drain that runs
    /// the moment the latch fires sees every begun job end.
    JobEnd = 5,
    /// View transferal out of the current context. `arg` = 0 for a
    /// detach (views published to a join frame), 1 for a suspension
    /// (views set aside for leapfrogging).
    Detach = 6,
    /// A view set was re-installed as the current context. `arg` as for
    /// [`EventKind::Detach`].
    Attach = 7,
    /// A hypermerge started at a join.
    MergeBegin = 8,
    /// The hypermerge finished.
    MergeEnd = 9,
    /// The worker is about to park (all steal attempts failed).
    Park = 10,
    /// The worker returned from parking.
    Wake = 11,
}

impl EventKind {
    /// All kinds, in discriminant order.
    pub const ALL: [EventKind; 12] = [
        EventKind::RegionBegin,
        EventKind::RegionEnd,
        EventKind::StealSuccess,
        EventKind::StealFail,
        EventKind::JobBegin,
        EventKind::JobEnd,
        EventKind::Detach,
        EventKind::Attach,
        EventKind::MergeBegin,
        EventKind::MergeEnd,
        EventKind::Park,
        EventKind::Wake,
    ];

    /// Stable lower-case name (used in CSV and Chrome trace output).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::RegionBegin => "region_begin",
            EventKind::RegionEnd => "region_end",
            EventKind::StealSuccess => "steal_success",
            EventKind::StealFail => "steal_fail",
            EventKind::JobBegin => "job_begin",
            EventKind::JobEnd => "job_end",
            EventKind::Detach => "detach",
            EventKind::Attach => "attach",
            EventKind::MergeBegin => "merge_begin",
            EventKind::MergeEnd => "merge_end",
            EventKind::Park => "park",
            EventKind::Wake => "wake",
        }
    }

    /// Parses a stable name back into a kind (for trace-file loading).
    pub fn from_name(name: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Reconstructs a kind from its discriminant.
    pub fn from_u8(v: u8) -> Option<EventKind> {
        EventKind::ALL.get(v as usize).copied()
    }
}

/// One trace event: timestamp, kind, argument.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the process clock anchor ([`crate::clock`]).
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific argument (see [`EventKind`] variants).
    pub arg: u64,
}

impl Event {
    /// A placeholder event (ring buffers are initialized with these; a
    /// reader never observes one because only the written prefix of a
    /// ring is published).
    pub const ZERO: Event = Event {
        ts_ns: 0,
        kind: EventKind::RegionBegin,
        arg: 0,
    };
}

/// Packs a cpu id into the high 32 bits of an event argument, keeping
/// the kind-specific payload in the low 32. The stored value is
/// `cpu + 1` so that 0 keeps meaning "cpu unknown" (portable fallback,
/// or tracing enabled on a platform without `sched_getcpu`); the
/// payload survives unchanged for decoders that only read the low word
/// via [`arg_low`].
#[inline]
pub fn pack_cpu(low: u64, cpu: Option<u32>) -> u64 {
    debug_assert!(low <= u32::MAX as u64, "payload must fit in 32 bits");
    let hi = match cpu {
        Some(c) => (c as u64).wrapping_add(1) << 32,
        None => 0,
    };
    hi | (low & 0xffff_ffff)
}

/// The kind-specific payload of a cpu-packed argument (low 32 bits).
#[inline]
pub fn arg_low(arg: u64) -> u64 {
    arg & 0xffff_ffff
}

/// The cpu id packed into `arg` by [`pack_cpu`], if one was recorded.
#[inline]
pub fn arg_cpu(arg: u64) -> Option<u32> {
    let hi = (arg >> 32) as u32;
    hi.checked_sub(1)
}

/// The CPU the calling thread is running on, via `sched_getcpu`.
/// Returns `None` on platforms without the call (and under Miri, whose
/// FFI layer does not model it) — the portable fallback the trace
/// format encodes as "cpu unknown".
#[inline]
pub fn current_cpu() -> Option<u32> {
    #[cfg(all(target_os = "linux", not(miri)))]
    {
        extern "C" {
            fn sched_getcpu() -> i32;
        }
        // SAFETY: `sched_getcpu` takes no arguments, has no
        // preconditions, and returns -1 on error; it is async-signal
        // safe on glibc (a vDSO/rseq read).
        let cpu = unsafe { sched_getcpu() };
        u32::try_from(cpu).ok()
    }
    #[cfg(not(all(target_os = "linux", not(miri))))]
    {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for k in EventKind::ALL {
            assert_eq!(EventKind::from_name(k.name()), Some(k));
            assert_eq!(EventKind::from_u8(k as u8), Some(k));
        }
        assert_eq!(EventKind::from_name("nonsense"), None);
        assert_eq!(EventKind::from_u8(200), None);
    }

    #[test]
    fn discriminants_are_dense_and_stable() {
        for (i, k) in EventKind::ALL.into_iter().enumerate() {
            assert_eq!(k as u8 as usize, i, "discriminants must stay dense");
        }
    }

    #[test]
    fn cpu_packing_round_trips() {
        assert_eq!(pack_cpu(7, None), 7);
        assert_eq!(arg_cpu(7), None);
        assert_eq!(arg_low(7), 7);
        let packed = pack_cpu(3, Some(0));
        assert_eq!(arg_low(packed), 3);
        assert_eq!(arg_cpu(packed), Some(0));
        let packed = pack_cpu(u32::MAX as u64, Some(u32::MAX - 1));
        assert_eq!(arg_low(packed), u32::MAX as u64);
        assert_eq!(arg_cpu(packed), Some(u32::MAX - 1));
    }

    #[test]
    fn current_cpu_is_stable_enough_to_call() {
        // Smoke: must not crash; on Linux outside Miri it reports a cpu.
        let c = current_cpu();
        if cfg!(all(target_os = "linux", not(miri))) {
            assert!(c.is_some());
        }
    }
}
