//! PBFS — the work-efficient parallel breadth-first search of Leiserson &
//! Schardl (SPAA 2010), the application benchmark of the reducer paper's
//! §8.
//!
//! The algorithm explores the graph layer by layer, alternating between
//! two bag structures: as it traverses the vertices of the current layer
//! (in parallel, by halving the bag's list of blocks fork-join style), it
//! inserts newly discovered vertices into the *next-layer bag, declared
//! as a reducer*, so logically parallel branches insert without
//! determinacy races.
//!
//! Two implementation details mirror the original and matter to the
//! evaluation:
//!
//! * **Block-sized insertion** — each grain of traversal work buffers
//!   the vertices it discovers in a vector of capacity [`BLOCK`], the
//!   size of a bag block, and hands it to [`Bag::append`] on the view of
//!   the worker running the grain: when it fills, and once more at grain
//!   end. A full buffer given to an empty tail becomes a block without
//!   being copied; otherwise it tops up the view's tail and the rest of
//!   it becomes the new tail. Because the flush size *is* the block size
//!   there is one constant, not two, and the number of reducer *lookups*
//!   is proportional to the number of blocks, not |V| (which is why
//!   Figure 10(b)'s lookup counts are thousands, not millions). The walk
//!   of the current layer hands out whole blocks, so a `grain` below
//!   [`BLOCK`] means one block per grain.
//! * **Atomic discovery** — each vertex's distance is claimed with a
//!   compare-and-swap, tried only after a relaxed load has seen the
//!   vertex unreached. (The original exploits a benign race instead;
//!   CAS is the Rust-sound equivalent and does not change the lookup or
//!   reduce behaviour being measured.) The load is sound because a
//!   distance changes once, from [`UNREACHED`] to its final value: a load
//!   that sees a claimed vertex skips only a CAS that would have failed,
//!   and a stale `UNREACHED` falls through to the CAS, which still
//!   decides every claim. Most arcs of a layer lead to claimed vertices,
//!   and they now cost what they cost [`bfs_serial`](crate::bfs_serial):
//!   a plain load, not a locked read-for-ownership.
//! * **Layers walked in discovery order** — the reducer folds its views
//!   in serial order and bag union concatenates, so layer d + 1 lists
//!   its vertices in the order of the layer-d grains that discovered
//!   them (module doc of [`crate::bag`]). The walk halves that list: the
//!   worker that forks walks the first half and a thief the second. So
//!   on a graph numbered with locality the distance array and the
//!   adjacency lists are read in the direction the serial search reads
//!   them, and each worker walks again, at layer d + 1, the part of the
//!   graph it discovered at layer d, whose `dist` lines its own claims
//!   brought into its cache. Both matter where layers are small: on a
//!   73³ grid a layer is about 1 800 vertices, 14 blocks, some 50 µs of
//!   work, and there are 217 of them inside one region. That is also why
//!   the scheduler keeps an idle worker awake for as long as a region is
//!   open (DESIGN.md §9.2): the gap between two layers is shorter than a
//!   park and its wake.

#![expect(
    clippy::disallowed_types,
    reason = "the per-vertex distance load and CAS are data-plane application state — one atomic per graph vertex, millions per run; it is benchmark payload standing in for the paper's benign race, not a runtime protocol, and cannot feasibly be recorded by the checker"
)]

use std::sync::atomic::{AtomicU32, Ordering};

use cilkm_core::{Reducer, ReducerPool};

use crate::bag::{Bag, BagMonoid, BLOCK};
use crate::csr::Graph;
use crate::UNREACHED;

/// What a PBFS run reports, beyond the distances themselves.
pub struct PbfsReport {
    /// BFS distances from the source ([`UNREACHED`] where unreachable).
    pub distances: Vec<u32>,
    /// Number of BFS layers processed (the eccentricity of the source
    /// plus one) — each layer is one reducer `take` epoch.
    pub layers: u32,
    /// Reducer lookups performed during the run (the Figure 10(b)
    /// "# lookups" column), from the domain's instrumentation.
    pub lookups: u64,
}

/// Per-run state shared by [`pbfs`] and [`pbfs_profiled`]: the distance
/// array, the next-layer bag reducer, and the lookup counter baseline.
struct PbfsRun {
    dist: Vec<AtomicU32>,
    next: Reducer<BagMonoid<u32>>,
    lookups_before: u64,
}

impl PbfsRun {
    fn new(pool: &ReducerPool, g: &Graph, source: u32) -> PbfsRun {
        let n = g.num_vertices();
        assert!((source as usize) < n);
        let dist: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNREACHED)).collect();
        dist[source as usize].store(0, Ordering::Relaxed);
        PbfsRun {
            dist,
            next: Reducer::new(pool, BagMonoid::<u32>::new(), Bag::new()),
            lookups_before: pool.instrument().lookups,
        }
    }

    /// The parallel region's body: explore layer by layer until the
    /// frontier empties, returning the layer count.
    fn explore(&self, g: &Graph, source: u32, grain: usize) -> u32 {
        let mut current = Bag::new();
        current.insert(source);
        let mut d = 0u32;
        while !current.is_empty() {
            process_layer(g, &current, d, &self.dist, &self.next, grain);
            // Serial point in the region's spine: swap the layer bags —
            // take the reducer's accumulated bag and reset it to empty.
            current = self.next.take();
            d += 1;
        }
        d
    }

    fn finish(self, pool: &ReducerPool, layers: u32) -> PbfsReport {
        let lookups = pool.instrument().lookups - self.lookups_before;
        let distances = self.dist.into_iter().map(|a| a.into_inner()).collect();
        PbfsReport {
            distances,
            layers,
            lookups,
        }
    }
}

/// Runs PBFS over `pool`'s reducer backend and returns distances plus the
/// run report.
pub fn pbfs(pool: &ReducerPool, g: &Graph, source: u32, grain: usize) -> PbfsReport {
    let run = PbfsRun::new(pool, g, source);
    let layers = pool.run(|| run.explore(g, source, grain));
    run.finish(pool, layers)
}

/// As [`pbfs`], but runs the region under the online work/span profiler
/// ([`cilkm_core::ReducerPool::run_profiled`]) and returns the
/// [`cilkm_obs::ParallelismReport`] alongside the run report. The report
/// is all zeros unless the `trace` cargo feature is compiled in.
pub fn pbfs_profiled(
    pool: &ReducerPool,
    g: &Graph,
    source: u32,
    grain: usize,
) -> (PbfsReport, cilkm_obs::ParallelismReport) {
    let run = PbfsRun::new(pool, g, source);
    let (layers, profile) = pool.run_profiled(|| run.explore(g, source, grain));
    (run.finish(pool, layers), profile)
}

/// Traverses one layer's bag in parallel, claiming neighbors and
/// inserting the discovered ones into the next-layer bag reducer.
fn process_layer(
    g: &Graph,
    current: &Bag<u32>,
    d: u32,
    dist: &[AtomicU32],
    next: &Reducer<BagMonoid<u32>>,
    grain: usize,
) {
    // Per-grain buffered insertion: one block-sized buffer per serial
    // grain of the bag traversal, handed to the reducer's bag whole when
    // it fills and once more at grain end.
    let flush_into_reducer = |buf: Vec<u32>| {
        if !buf.is_empty() {
            next.update(|bag| bag.append(buf));
        }
    };
    current.for_each_parallel_grains(
        grain,
        &|| Vec::with_capacity(BLOCK),
        &|buf: &mut Vec<u32>, &u: &u32| {
            for &v in g.neighbors(u) {
                let slot = &dist[v as usize];
                if slot.load(Ordering::Relaxed) == UNREACHED
                    && slot
                        .compare_exchange(UNREACHED, d + 1, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                {
                    buf.push(v);
                    if buf.len() == BLOCK {
                        flush_into_reducer(std::mem::replace(buf, Vec::with_capacity(BLOCK)));
                    }
                }
            }
        },
        &flush_into_reducer,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs_serial;
    use crate::gen;
    use cilkm_core::Backend;

    fn check_graph(g: &Graph, source: u32) {
        check_runs(g, source, 1);
    }

    /// `runs` searches on two workers and each backend: distances equal
    /// the serial ones and the layer count is exact every time.
    fn check_runs(g: &Graph, source: u32, runs: usize) {
        let expect = bfs_serial(g, source);
        let ecc = expect
            .iter()
            .filter(|&&x| x != UNREACHED)
            .max()
            .copied()
            .unwrap();
        for backend in [Backend::Hypermap, Backend::Mmap] {
            let pool = ReducerPool::new(2, backend);
            for run in 0..runs {
                let report = pbfs(&pool, g, source, 64);
                assert_eq!(report.distances, expect, "backend {backend:?} run {run}");
                assert_eq!(report.layers, ecc + 1, "backend {backend:?} run {run}");
                assert!(report.lookups > 0);
            }
        }
    }

    #[test]
    fn pbfs_matches_serial_on_line() {
        let g =
            Graph::from_undirected_edges(64, &(0..63u32).map(|i| (i, i + 1)).collect::<Vec<_>>());
        check_graph(&g, 0);
    }

    #[test]
    fn pbfs_matches_serial_on_grid() {
        let g = gen::grid3d(8);
        check_graph(&g, 0);
    }

    #[test]
    fn pbfs_matches_serial_on_rmat() {
        let g = gen::rmat(10, 8000, 0.57, 0.19, 0.19, 3);
        check_graph(&g, 0);
    }

    #[test]
    fn pbfs_matches_serial_on_random() {
        let g = gen::path_threaded_random(3000, 20_000, 30, 5);
        check_graph(&g, 0);
    }

    #[test]
    fn pbfs_handles_disconnected_graphs() {
        let g = Graph::from_undirected_edges(10, &[(0, 1), (1, 2), (5, 6)]);
        check_graph(&g, 0);
    }

    /// Every pair `(a, b)` with `a` in `from` and `b` in `to`.
    fn all_pairs(
        from: std::ops::Range<u32>,
        to: std::ops::Range<u32>,
    ) -> impl Iterator<Item = (u32, u32)> {
        from.flat_map(move |a| to.clone().map(move |b| (a, b)))
    }

    #[test]
    fn pbfs_claims_a_vertex_once_however_often_it_is_offered() {
        // K₃₀₀: every vertex is offered 299 times and claimed once, by
        // the source's grain; the second layer's 299 × 299 arcs all take
        // the load that sees a claimed vertex.
        let complete: Vec<(u32, u32)> = all_pairs(0..300, 0..300).filter(|(a, b)| a < b).collect();
        check_runs(&Graph::from_undirected_edges(300, &complete), 0, 50);

        // Source — 299 — 300, each level completely joined to the next:
        // the last 300 vertices are offered by every grain of the middle
        // layer at once, so stale `UNREACHED` loads race into the CAS.
        let levels: Vec<(u32, u32)> = all_pairs(0..1, 1..300)
            .chain(all_pairs(1..300, 300..600))
            .collect();
        check_runs(&Graph::from_undirected_edges(600, &levels), 0, 50);
    }

    #[test]
    fn pbfs_hands_over_buffers_at_the_block_boundary() {
        // A star from its centre: one grain discovers the whole second
        // layer, so its buffer ends one short of a block, exactly full
        // (handed over with nothing left for the grain-end flush), and
        // one past.
        for width in [BLOCK - 1, BLOCK, BLOCK + 1] {
            let width = width as u32;
            let star: Vec<(u32, u32)> = all_pairs(0..1, 1..width + 1).collect();
            check_runs(&Graph::from_undirected_edges(star.len() + 1, &star), 0, 50);
        }
    }

    #[test]
    fn pbfs_lookup_count_is_chunk_scale_not_vertex_scale() {
        // The Figure 10(b) property: lookups ≪ |V| thanks to chunking.
        let g = gen::path_threaded_random(20_000, 120_000, 25, 9);
        let pool = ReducerPool::new(2, Backend::Mmap);
        let report = pbfs(&pool, &g, 0, 64);
        assert!(
            report.lookups < (g.num_vertices() / 4) as u64,
            "lookups={} |V|={}",
            report.lookups,
            g.num_vertices()
        );
    }
}
