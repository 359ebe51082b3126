//! The metric primitives every layer counts with.
//!
//! Before this crate, each layer kept its own grab-bag of `AtomicU64`s:
//! `cilkm-core::instrument` for the §8 reduce-overhead totals,
//! `cilkm-tlmm::stats` for kernel-crossing counts, the runtime's
//! `WorkerStats` for steals. This module gives them one vocabulary:
//!
//! * [`Counter`] — a monotonic `u64`.
//! * [`Histogram`] — log2-bucketed latency distribution (bucket `i > 0`
//!   covers `[2^(i-1), 2^i)` ns; bucket 0 is exactly zero), so the §8
//!   overhead categories come out as distributions, not just totals.
//! * [`FineHistogram`] — the same with four linear buckets per octave,
//!   for the transferal tail.
//! * [`MetricsSnapshot`] — one flat, named reading, dumped by
//!   [`crate::export::write_metrics_json`]. A pool builds its own
//!   (`ReducerPool::metrics` in `cilkm-core`) and holds only itself.
//!
//! Counters and histograms deliberately use `std` atomics, not the
//! model checker's recorded atomics: they are monitoring data with no
//! ordering obligations (all `Relaxed`), and routing them through the
//! checker would explode model state spaces for no verification value.

#![expect(
    clippy::disallowed_types,
    reason = "counters and histograms are Relaxed-only monitoring data with no ordering obligations; recorded msync primitives are scoped to one model run and would explode checker state for zero verification value — see the module docs above"
)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets in a [`Histogram`]; covers the full `u64`
/// range (bucket 63 absorbs everything at and above `2^62`).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonic counter. All operations are `Relaxed`: values are
/// monitoring data, never synchronization.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zero counter (const, usable in statics).
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrites the value (used for gauges like high-water marks that
    /// are maintained single-writer and only read cross-thread).
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
}

/// Returns the bucket index a value falls into: 0 for 0, otherwise
/// `floor(log2(v)) + 1`, capped at the last bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive lower bound of bucket `i` (0, 1, 2, 4, 8, ...).
#[inline]
pub fn bucket_lower_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

/// A log2-bucketed histogram of `u64` samples (latencies in ns, sizes in
/// pages, ...). Thread-safe; recording is two `Relaxed` RMWs plus one on
/// the bucket.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// A fresh empty histogram (const, usable in statics).
    pub const fn new() -> Histogram {
        // `AtomicU64` is not `Copy`; build the array from an inline const.
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Copies the current state out.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (b, a) in buckets.iter_mut().zip(&self.buckets) {
            *b = a.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_lower_bound`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Mean sample value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the smallest bucket prefix holding at least
    /// `q` (in `0.0..=1.0`) of the samples — a coarse quantile, exact to
    /// the log2 bucket. Returns 0 for an empty histogram.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return if i + 1 < HISTOGRAM_BUCKETS {
                    bucket_lower_bound(i + 1)
                } else {
                    u64::MAX
                };
            }
        }
        u64::MAX
    }
}

/// Sub-log2 resolution: each power-of-two octave of a [`FineHistogram`]
/// is split into `2^FINE_SUB_BITS` linearly spaced minor buckets, giving
/// 4× the resolution of [`Histogram`] where the transferal bimodality
/// lives (the 1–128 µs band) at ~12% relative bucket width.
pub const FINE_SUB_BITS: u32 = 2;

/// First octave that gets sub-bucketed (values below `2^(FINE_SUB_BITS)`
/// are bucketed exactly, one value per bucket).
const FINE_FIRST_OCTAVE: u32 = FINE_SUB_BITS;

/// Highest octave a [`FineHistogram`] resolves; `2^20` ns ≈ 1.05 ms, so
/// the fine range covers the whole transferal latency band with room
/// above the 128 µs bucket the motivation names. Larger samples clamp
/// into the last bucket.
pub const FINE_MAX_OCTAVE: u32 = 20;

/// Number of buckets in a [`FineHistogram`]: the exact region
/// (`0..2^FINE_SUB_BITS`) plus four minor buckets per octave from
/// [`FINE_SUB_BITS`] through [`FINE_MAX_OCTAVE`] inclusive.
pub const FINE_BUCKETS: usize =
    (1 << FINE_SUB_BITS) + ((FINE_MAX_OCTAVE - FINE_FIRST_OCTAVE + 1) << FINE_SUB_BITS) as usize;

/// The fine bucket index a value falls into. Values in `0..4` map to
/// themselves; larger values go to octave `floor(log2 v)` and minor
/// bucket `(v >> (octave - FINE_SUB_BITS)) & 3`; values above the fine
/// range clamp into the last bucket.
#[inline]
pub fn fine_bucket_index(v: u64) -> usize {
    if v < (1 << FINE_SUB_BITS) {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros();
    if octave > FINE_MAX_OCTAVE {
        return FINE_BUCKETS - 1;
    }
    let minor = ((v >> (octave - FINE_SUB_BITS)) & ((1 << FINE_SUB_BITS) - 1)) as usize;
    (1 << FINE_SUB_BITS) + (((octave - FINE_FIRST_OCTAVE) << FINE_SUB_BITS) as usize) + minor
}

/// Inclusive lower bound of fine bucket `i` (the inverse of
/// [`fine_bucket_index`] on bucket boundaries).
#[inline]
pub fn fine_bucket_lower_bound(i: usize) -> u64 {
    let exact = 1usize << FINE_SUB_BITS;
    if i < exact {
        return i as u64;
    }
    let k = i - exact;
    let octave = FINE_FIRST_OCTAVE + (k >> FINE_SUB_BITS) as u32;
    let minor = (k & ((1 << FINE_SUB_BITS) - 1)) as u64;
    ((1 << FINE_SUB_BITS) as u64 + minor) << (octave - FINE_SUB_BITS)
}

/// A high-resolution histogram: log2 octaves split into linear minor
/// buckets (HdrHistogram-style), so quantiles in the 1–128 µs band are
/// exact to ~12% instead of the 2× of [`Histogram`]. Recording costs the
/// same three `Relaxed` RMWs.
#[derive(Debug)]
pub struct FineHistogram {
    buckets: [AtomicU64; FINE_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for FineHistogram {
    fn default() -> FineHistogram {
        FineHistogram::new()
    }
}

impl FineHistogram {
    /// A fresh empty histogram (const, usable in statics).
    pub const fn new() -> FineHistogram {
        FineHistogram {
            buckets: [const { AtomicU64::new(0) }; FINE_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[fine_bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Copies the current state out.
    pub fn snapshot(&self) -> FineHistogramSnapshot {
        let mut buckets = [0u64; FINE_BUCKETS];
        for (b, a) in buckets.iter_mut().zip(&self.buckets) {
            *b = a.load(Ordering::Relaxed);
        }
        FineHistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`FineHistogram`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FineHistogramSnapshot {
    /// Per-bucket sample counts (see [`fine_bucket_lower_bound`]).
    pub buckets: [u64; FINE_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
}

impl Default for FineHistogramSnapshot {
    fn default() -> FineHistogramSnapshot {
        FineHistogramSnapshot {
            buckets: [0; FINE_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl FineHistogramSnapshot {
    /// The samples recorded since `earlier` (per-bucket saturating
    /// difference, so a mismatched pair degrades rather than panics).
    pub fn since(&self, earlier: &FineHistogramSnapshot) -> FineHistogramSnapshot {
        let mut buckets = [0u64; FINE_BUCKETS];
        for (out, (now, then)) in buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(&earlier.buckets))
        {
            *out = now.saturating_sub(*then);
        }
        FineHistogramSnapshot {
            buckets,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }

    /// Mean sample value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the smallest bucket prefix holding at least `q`
    /// of the samples — a quantile exact to the fine bucket (~12%
    /// relative width in the sub-bucketed octaves). Returns 0 when empty.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return if i + 1 < FINE_BUCKETS {
                    fine_bucket_lower_bound(i + 1)
                } else {
                    u64::MAX
                };
            }
        }
        u64::MAX
    }
}

/// One exported metric value.
///
/// The histogram variant is ~0.5 KiB (64 buckets), far larger than the
/// counter variant, but values live briefly inside snapshot maps, and
/// staying `Copy` keeps the export code simple; boxing would buy nothing.
#[allow(clippy::large_enum_variant, reason = "kept `Copy`; see above")]
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// A plain counter/gauge reading.
    Counter(u64),
    /// A histogram reading.
    Histogram(HistogramSnapshot),
}

/// A point-in-time reading of one pool's metrics, keyed by
/// `prefix.name`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Metric values in deterministic (sorted) name order.
    pub values: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// Looks up a counter by full name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.values.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Looks up a histogram by full name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.values.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_ops() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.set(7);
        assert_eq!(c.get(), 7);
    }

    #[test]
    fn bucket_boundaries_sit_at_powers_of_two() {
        // Satellite requirement: the boundary cases are exact.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        for p in 1..62 {
            let v = 1u64 << p;
            // 2^p opens bucket p+1; 2^p - 1 closes bucket p.
            assert_eq!(bucket_index(v), p + 1, "2^{p} must open a new bucket");
            assert_eq!(bucket_index(v - 1), p, "2^{p}-1 must stay below");
            assert_eq!(bucket_lower_bound(p + 1), v);
        }
        // The top buckets saturate instead of overflowing the array.
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(1u64 << 63), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn fine_bucket_layout_round_trips() {
        // Satellite requirement: every fine bucket's lower bound maps
        // back to the bucket it bounds, bounds are strictly increasing,
        // and the value just below each boundary lands one bucket lower.
        for i in 0..FINE_BUCKETS {
            let lb = fine_bucket_lower_bound(i);
            assert_eq!(fine_bucket_index(lb), i, "lower bound of bucket {i}");
            if i > 0 {
                assert!(
                    fine_bucket_lower_bound(i - 1) < lb,
                    "bounds must be strictly increasing at {i}"
                );
                assert_eq!(
                    fine_bucket_index(lb - 1),
                    i - 1,
                    "value below bucket {i}'s bound must land in bucket {}",
                    i - 1
                );
            }
        }
        // Exact region: one value per bucket below 2^FINE_SUB_BITS.
        for v in 0..(1u64 << FINE_SUB_BITS) {
            assert_eq!(fine_bucket_index(v), v as usize);
        }
        // Above the fine range everything clamps into the last bucket.
        assert_eq!(fine_bucket_index(u64::MAX), FINE_BUCKETS - 1);
        assert_eq!(
            fine_bucket_index(1 << (FINE_MAX_OCTAVE + 1)),
            FINE_BUCKETS - 1
        );
    }

    #[test]
    fn fine_histogram_resolves_the_microsecond_band() {
        let h = FineHistogram::new();
        // 1.1 µs and 1.6 µs share a log2 bucket but not a fine bucket.
        assert_eq!(bucket_index(1_100), bucket_index(1_600));
        assert_ne!(fine_bucket_index(1_100), fine_bucket_index(1_600));
        for _ in 0..99 {
            h.record(1_000);
        }
        h.record(100_000);
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        let p50 = s.quantile_upper_bound(0.5);
        // Fine p50 sits within ~12% of the true 1 µs mode, not at 2 µs.
        assert!(p50 <= 1_280, "fine p50 {p50} must stay near the 1 µs mode");
        assert!(s.quantile_upper_bound(1.0) > 100_000);
        let before = s;
        h.record(1_000);
        let d = h.snapshot().since(&before);
        assert_eq!(d.count, 1);
        assert_eq!(d.buckets[fine_bucket_index(1_000)], 1);
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1010);
        assert_eq!(s.buckets[bucket_index(0)], 1);
        assert_eq!(s.buckets[bucket_index(2)], 2); // 2 and 3 share a bucket
        assert_eq!(s.buckets[bucket_index(1000)], 1);
        assert!((s.mean() - 1010.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_upper_bound_is_bucket_exact() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(10); // bucket [8, 16)
        }
        h.record(1 << 20);
        let s = h.snapshot();
        assert_eq!(s.quantile_upper_bound(0.5), 16);
        assert_eq!(s.quantile_upper_bound(0.99), 16);
        assert_eq!(s.quantile_upper_bound(1.0), 1 << 21);
        assert_eq!(HistogramSnapshot::default().quantile_upper_bound(0.5), 0);
    }
}
