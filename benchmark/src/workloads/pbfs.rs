//! `pbfs-rmat` and `pbfs-grid`: the paper's application, one full
//! parallel BFS per rep, in two regimes. R-MAT: five huge layers, user
//! work and the bag dominate, reducers do almost nothing — the control on
//! which reducer-mechanism changes predict no movement. Grid: 217 layers
//! of tiny bursts inside one region, so steal/park/wake, `Reducer::take`
//! and `BagMonoid` merges at every layer sync carry the time.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cilkm::graph::{gen, pbfs_profiled, UNREACHED};
use cilkm::prelude::*;

use super::{Profile, Workload};

const SOURCE: u32 = 0;
const GRAIN: usize = 128;

pub struct PbfsInput {
    graph: Graph,
    /// `bfs_serial` distances, the oracle.
    distances: Vec<u32>,
    /// Arcs out of reached vertices: what one BFS traverses.
    traversed_edges: u64,
}

pub struct Pbfs<const GRID: bool> {
    input: Arc<PbfsInput>,
    last: Option<Vec<u32>>,
    layers: u64,
    lookups: u64,
}

impl<const GRID: bool> Workload for Pbfs<GRID> {
    type Input = PbfsInput;
    const NAME: &'static str = if GRID { "pbfs-grid" } else { "pbfs-rmat" };
    const ITEM: &'static str = "edge";

    fn generate(seed: u64) -> PbfsInput {
        let graph = if GRID {
            gen::grid3d(73)
        } else {
            gen::rmat(17, 3_895_000, 0.57, 0.19, 0.19, seed)
        };
        let distances = bfs_serial(&graph, SOURCE);
        let traversed_edges = (0..graph.num_vertices() as u32)
            .filter(|&v| distances[v as usize] != UNREACHED)
            .map(|v| graph.degree(v) as u64)
            .sum();
        PbfsInput {
            graph,
            distances,
            traversed_edges,
        }
    }

    fn new(input: Arc<PbfsInput>, _pool: &ReducerPool) -> Self {
        // PBFS makes its own bag reducer, once per search.
        Pbfs {
            input,
            last: None,
            layers: 0,
            lookups: 0,
        }
    }

    fn items_per_rep(&self) -> u64 {
        self.input.traversed_edges
    }

    fn serial_rep(&mut self) {
        black_box(bfs_serial(black_box(&self.input.graph), SOURCE));
    }

    fn rep(&mut self, pool: &ReducerPool, prof: &mut Profile) -> Option<Instant> {
        let g = &self.input.graph;
        let report = if cfg!(feature = "traced") {
            let (report, profile) = pbfs_profiled(pool, g, SOURCE, GRAIN);
            prof.add(&profile);
            report
        } else {
            pbfs(pool, g, SOURCE, GRAIN)
        };
        self.layers = u64::from(report.layers);
        self.lookups += report.lookups;
        self.last = Some(report.distances);
        None
    }

    fn verify(&mut self) -> Result<(), String> {
        let got = self.last.take().ok_or("no BFS result to check")?;
        match got
            .iter()
            .zip(&self.input.distances)
            .position(|(a, b)| a != b)
        {
            None if got.len() == self.input.distances.len() => Ok(()),
            None => Err(format!(
                "{} distances, serial BFS has {}",
                got.len(),
                self.input.distances.len()
            )),
            Some(v) => Err(format!(
                "vertex {v}: distance {} but serial BFS says {}",
                got[v], self.input.distances[v]
            )),
        }
    }

    fn lookups_issued(&self) -> Option<u64> {
        None
    }

    fn pbfs_totals(&self) -> (u64, u64) {
        (self.layers, self.lookups)
    }
}
