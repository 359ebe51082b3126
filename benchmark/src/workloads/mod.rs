//! The seven workloads. Each is a closed loop of *reps* on a P=2 pool;
//! the pass driver ([`crate::pass`]) owns timing, blocks and statistics,
//! a workload only says what one rep is, what its serial elision is, and
//! how its output is checked.

pub mod add;
pub mod pbfs;
pub mod steal;
pub mod wordstats;

use std::sync::Arc;
use std::time::Instant;

use cilkm::core::{Backend, InstrumentSnapshot, ReducerPool};
use cilkm::obs::{FineHistogramSnapshot, ParallelismReport};
use cilkm::runtime::PoolStats;
use cilkm::tlmm::stats::CrossingSnapshot;

/// Names in the order `run.sh` runs and prints them.
pub const NAMES: [&str; 7] = [
    "add-1",
    "add-1024",
    "steal-dense",
    "steal-sparse",
    "pbfs-rmat",
    "pbfs-grid",
    "wordstats",
];

/// One workload. `new` makes every reducer, `rep` is the timed unit.
pub trait Workload: Send + Sized {
    /// Generated from the seed, outside every timed section. The program
    /// under test sees the input, never the seed.
    type Input: Send + Sync + 'static;
    const NAME: &'static str;
    /// What `throughput` counts.
    const ITEM: &'static str;
    /// Reps are rounds inside one long parallel region (the steal
    /// workloads): the driver enters the region once and calls `rep`,
    /// `serial_rep` and `verify` from the worker that owns it.
    const IN_REGION: bool = false;
    /// Untimed reps at the end of set-up.
    const WARMUP_REPS: usize = 3;
    /// The probe that prices one reducer access of this workload in the
    /// layer table: a different reducer every time misses the one-entry
    /// last-lookup cache, the same one every time hits it.
    const LOOKUP_PROBE: &'static str = "core.lookup_alt_ns";
    /// The steal-path counts are whole multiples of the rep count, the
    /// same in every pass and run (see `metrics::EXACT_ON_STEAL`).
    const EXACT_COUNTS: bool = false;

    fn generate(seed: u64) -> Self::Input;
    fn new(input: Arc<Self::Input>, pool: &ReducerPool) -> Self;
    fn items_per_rep(&self) -> u64;
    /// The serial elision of one rep: the same computation on one thread
    /// with plain variables, no pool and no reducers.
    fn serial_rep(&mut self);
    /// One rep. The driver times it from the call, or from the returned
    /// instant if the rep says its timed part started later.
    fn rep(&mut self, pool: &ReducerPool, prof: &mut Profile) -> Option<Instant>;
    /// Checks the last rep's output against the serial oracle.
    fn verify(&mut self) -> Result<(), String>;
    /// One more check after the last rep, outside any region, for what
    /// cannot be read between reps without disturbing them.
    fn verify_final(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Reducer updates the harness itself has issued since `new`, where
    /// it issues them (PBFS issues its own, inside the program).
    fn lookups_issued(&self) -> Option<u64>;
    /// `(layers of the last BFS, lookups PBFS reported so far)`.
    fn pbfs_totals(&self) -> (u64, u64) {
        (0, 0)
    }
    /// Shape preconditions over the timed reps, from counter deltas. A
    /// violation makes the whole run invalid: no numbers are printed.
    fn check_shape(&self, _reps: u64, _delta: &Counters) -> Result<(), String> {
        Ok(())
    }
}

/// Runs `f` as one parallel region; the traced build measures it with the
/// online work/span profiler on the way.
pub fn region<R: Send>(pool: &ReducerPool, prof: &mut Profile, f: impl FnOnce() -> R + Send) -> R {
    if cfg!(feature = "traced") {
        let (r, report) = pool.run_profiled(f);
        prof.add(&report);
        r
    } else {
        pool.run(f)
    }
}

/// Sums of the online profiler's per-region reports over a pass.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    pub regions: u64,
    pub work_ns: u64,
    pub span_ns: u64,
    pub burdened_span_ns: u64,
    pub creation_ns: u64,
    pub insertion_ns: u64,
    pub transferal_ns: u64,
    pub exchange_ns: u64,
    pub hypermerge_ns: u64,
}

impl Profile {
    pub fn add(&mut self, r: &ParallelismReport) {
        self.regions += 1;
        self.work_ns += r.work_ns;
        self.span_ns += r.span_ns;
        self.burdened_span_ns += r.burdened_span_ns;
        self.creation_ns += r.burden.view_creation_ns;
        self.insertion_ns += r.burden.view_insertion_ns;
        self.transferal_ns += r.burden.transferal_ns;
        self.exchange_ns += r.burden.transferal_exchange_ns;
        self.hypermerge_ns += r.burden.hypermerge_ns;
    }
}

/// Everything the program's public counters say at one instant. The
/// steal-path counters are live in every build; only `ins.lookups` needs
/// the `instrument` feature.
#[derive(Clone, Debug)]
pub struct Counters {
    pub sched: PoolStats,
    pub ins: InstrumentSnapshot,
    pub transferal_wall: FineHistogramSnapshot,
    pub cross: CrossingSnapshot,
}

impl Counters {
    pub fn read(pool: &ReducerPool) -> Counters {
        Counters {
            sched: pool.stats(),
            ins: pool.instrument(),
            transferal_wall: pool.overhead_histograms().transferal_fine,
            cross: pool.domain().arena_handle().crossings().snapshot(),
        }
    }

    /// Counter-wise `self - earlier` (`deque_hwm` is a high-water mark
    /// and is kept as is).
    pub fn since(&self, earlier: &Counters) -> Counters {
        let (a, b) = (&self.sched, &earlier.sched);
        Counters {
            sched: PoolStats {
                steals: a.steals - b.steals,
                failed_steals: a.failed_steals - b.failed_steals,
                jobs_executed: a.jobs_executed - b.jobs_executed,
                inline_joins: a.inline_joins - b.inline_joins,
                stolen_joins: a.stolen_joins - b.stolen_joins,
                steal_attempts: a.steal_attempts - b.steal_attempts,
                parks: a.parks - b.parks,
                wakes: a.wakes - b.wakes,
                deque_hwm: a.deque_hwm,
            },
            ins: self.ins.since(&earlier.ins),
            transferal_wall: self.transferal_wall.since(&earlier.transferal_wall),
            cross: self.cross.since(&earlier.cross),
        }
    }
}

pub fn backend_name(b: Backend) -> &'static str {
    match b {
        Backend::Mmap => "mmap",
        Backend::Hypermap => "hypermap",
    }
}

/// splitmix64: the harness's only random source, for generated inputs.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
