//! Synthetic graph generators standing in for the paper's eight input
//! matrices (Figure 10(b)).
//!
//! The original inputs (kkt_power, freescale1, cage14, wikipedia,
//! grid3d200, rmat23, cage15, nlpkkt160) are large published sparse
//! matrices we do not ship. PBFS behaviour in the evaluation is governed
//! by three knobs — vertex count |V|, edge count |E|, and diameter D
//! (which sets the number of BFS layers and hence reducer epochs) — so
//! each stand-in generator targets those three, scaled by a configurable
//! factor so full runs fit on small machines:
//!
//! * `grid3d200` → a 3-D mesh (naturally high diameter);
//! * `rmat23` → an RMAT recursive-matrix graph with the Graph500
//!   skew (A=.57, B=.19, C=.19), naturally tiny diameter;
//! * `wikipedia` → a scale-free preferential-attachment-style graph with
//!   a moderate-diameter tail;
//! * the matrix-market matrices (kkt_power, freescale1, cage14/15,
//!   nlpkkt160) → degree-bounded random graphs threaded along a path to
//!   shape the diameter near the published value.

use cilkm_base::rng::Xoshiro256;

use crate::csr::Graph;

/// A named synthetic input mirroring one row of Figure 10(b).
pub struct NamedGraph {
    /// The original matrix name.
    pub name: &'static str,
    /// The generated graph.
    pub graph: Graph,
    /// The BFS source used by experiments (vertex 0, as generated to be
    /// connected from there).
    pub source: u32,
    /// The paper's published |V| (unscaled), for reporting.
    pub paper_vertices: f64,
    /// The paper's published |E| (unscaled), for reporting.
    pub paper_edges: f64,
    /// The paper's published diameter, for reporting.
    pub paper_diameter: u32,
}

/// An Erdős–Rényi-flavoured generator with a Hamiltonian-path backbone:
/// the path bounds the diameter from below being ~n/step and guarantees
/// connectivity; random chords bring the average degree up to
/// `edges/n` and the diameter down toward `target_diameter`.
///
/// Chord span is limited to ±`span`, where `span ≈ 2n/target_diameter`,
/// so BFS needs about `target_diameter` layers to cross the path.
pub fn path_threaded_random(n: usize, edges: usize, target_diameter: u32, seed: u64) -> Graph {
    assert!(n >= 2);
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let span = ((2 * n) as u64 / target_diameter.max(1) as u64).max(2) as usize;
    let mut list = Vec::with_capacity(edges.max(n));
    for i in 0..n - 1 {
        list.push((i as u32, (i + 1) as u32));
    }
    while list.len() < edges / 2 {
        let u = rng.below(n as u64) as usize;
        let lo = u.saturating_sub(span);
        let hi = (u + span).min(n - 1);
        let v = lo + rng.below((hi - lo + 1) as u64) as usize;
        list.push((u as u32, v as u32));
    }
    Graph::from_undirected_edges(n, &list)
}

/// A 3-D mesh of `dim`³ vertices with 6-neighbor connectivity — the
/// grid3d analogue. Diameter is 3·(dim−1).
pub fn grid3d(dim: usize) -> Graph {
    let n = dim * dim * dim;
    let id = |x: usize, y: usize, z: usize| (x * dim * dim + y * dim + z) as u32;
    let mut edges = Vec::with_capacity(3 * n);
    for x in 0..dim {
        for y in 0..dim {
            for z in 0..dim {
                if x + 1 < dim {
                    edges.push((id(x, y, z), id(x + 1, y, z)));
                }
                if y + 1 < dim {
                    edges.push((id(x, y, z), id(x, y + 1, z)));
                }
                if z + 1 < dim {
                    edges.push((id(x, y, z), id(x, y, z + 1)));
                }
            }
        }
    }
    Graph::from_undirected_edges(n, &edges)
}

/// An RMAT recursive-matrix graph (Chakrabarti–Zhan–Faloutsos) with the
/// standard skewed quadrant probabilities; `scale` gives 2^scale
/// vertices. Produces the low-diameter, heavy-tailed degree structure of
/// the paper's `rmat23` input. A star from vertex 0 over a small sample
/// keeps the BFS source connected to the main component.
pub fn rmat(scale: u32, edges: usize, a: f64, b: f64, c: f64, seed: u64) -> Graph {
    let n = 1usize << scale;
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut list = Vec::with_capacity(edges / 2 + 64);
    for _ in 0..edges / 2 {
        let (mut u, mut v) = (0usize, 0usize);
        for _ in 0..scale {
            let r = rng.f64();
            let (du, dv) = if r < a {
                (0, 0)
            } else if r < a + b {
                (0, 1)
            } else if r < a + b + c {
                (1, 0)
            } else {
                (1, 1)
            };
            u = (u << 1) | du;
            v = (v << 1) | dv;
        }
        list.push((u as u32, v as u32));
    }
    // Keep the source attached: a few spokes from 0 into the id space.
    for _ in 0..64.min(n as u32 - 1) {
        let v = 1 + rng.below(n as u64 - 1) as u32;
        list.push((0, v));
    }
    Graph::from_undirected_edges(n, &list)
}

/// A scale-free graph by cheap preferential attachment: each new vertex
/// attaches to `m` targets chosen among endpoints of previous edges
/// (which biases toward high degree) — the wikipedia-like analogue.
pub fn scale_free(n: usize, m: usize, seed: u64) -> Graph {
    assert!(n > m && m >= 1);
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut list: Vec<(u32, u32)> = Vec::with_capacity(n * m);
    let mut endpoints: Vec<u32> = vec![0];
    for v in 1..n as u32 {
        for _ in 0..m {
            let t = endpoints[rng.below(endpoints.len() as u64) as usize];
            list.push((v, t));
            endpoints.push(t);
            endpoints.push(v);
        }
    }
    Graph::from_undirected_edges(n, &list)
}

/// The published Figure 10(b) characteristics (|V|, |E| in millions, D).
pub const PAPER_INPUTS: [(&str, f64, f64, u32); 8] = [
    ("kkt_power", 2.05e6, 12.76e6, 31),
    ("freescale1", 3.43e6, 17.1e6, 128),
    ("cage14", 1.51e6, 27.1e6, 43),
    ("wikipedia", 2.4e6, 41.9e6, 460),
    ("grid3d200", 8e6, 55.8e6, 598),
    ("rmat23", 2.3e6, 77.9e6, 8),
    ("cage15", 5.15e6, 99.2e6, 50),
    ("nlpkkt160", 8.35e6, 225.4e6, 163),
];

/// Generates the eight stand-in inputs, scaled down by `scale` (e.g.
/// `scale = 100.0` divides |V| and |E| by 100 while keeping the diameter
/// regime; diameters are scaled by ∛scale for mesh-like graphs so layer
/// counts stay in a realistic band).
pub fn paper_inputs(scale: f64, seed: u64) -> Vec<NamedGraph> {
    assert!(scale >= 1.0);
    let mut out = Vec::new();
    for (i, &(name, pv, pe, pd)) in PAPER_INPUTS.iter().enumerate() {
        let n = ((pv / scale) as usize).max(64);
        let e = ((pe / scale) as usize).max(4 * n);
        let seed = seed.wrapping_add(i as u64 * 0x9E37);
        let graph = match name {
            "grid3d200" => {
                // dim ≈ 200/∛scale keeps the mesh shape.
                let dim = ((200.0 / scale.cbrt()) as usize).max(4);
                grid3d(dim)
            }
            "rmat23" => {
                let sc = (n.next_power_of_two().trailing_zeros()).max(6);
                rmat(sc, e, 0.57, 0.19, 0.19, seed)
            }
            "wikipedia" => scale_free(n, (e / n / 2).max(2), seed),
            _ => {
                // Matrix-market style: diameter shaped via chord span.
                let d = ((pd as f64 / scale.cbrt()) as u32).max(4);
                path_threaded_random(n, e, d, seed)
            }
        };
        out.push(NamedGraph {
            name,
            graph,
            source: 0,
            paper_vertices: pv,
            paper_edges: pe,
            paper_diameter: pd,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs_serial;
    use crate::UNREACHED;

    #[test]
    fn grid3d_has_mesh_shape() {
        let g = grid3d(5);
        assert_eq!(g.num_vertices(), 125);
        // Interior vertex has degree 6.
        let interior = (2 * 25 + 2 * 5 + 2) as u32;
        assert_eq!(g.degree(interior), 6);
        // Diameter along BFS from a corner is 3*(dim-1).
        let d = bfs_serial(&g, 0);
        let max = d.iter().filter(|&&x| x != UNREACHED).max().unwrap();
        assert_eq!(*max, 12);
    }

    #[test]
    fn path_threaded_is_connected_with_bounded_diameter() {
        let g = path_threaded_random(2000, 12_000, 40, 1);
        let d = bfs_serial(&g, 0);
        assert!(d.iter().all(|&x| x != UNREACHED), "connected");
        let max = *d.iter().max().unwrap();
        assert!(
            (10..=160).contains(&max),
            "diameter in the target regime, got {max}"
        );
    }

    #[test]
    fn rmat_has_low_diameter_and_skew() {
        let g = rmat(12, 60_000, 0.57, 0.19, 0.19, 7);
        let d = bfs_serial(&g, 0);
        let reached = d.iter().filter(|&&x| x != UNREACHED).count();
        assert!(reached > g.num_vertices() / 4, "giant component reached");
        let max = d
            .iter()
            .filter(|&&x| x != UNREACHED)
            .max()
            .copied()
            .unwrap();
        assert!(max <= 16, "rmat diameter tiny, got {max}");
        // Degree skew: max degree far above average.
        let avg = g.num_edges() / g.num_vertices();
        let dmax = (0..g.num_vertices() as u32)
            .map(|u| g.degree(u))
            .max()
            .unwrap();
        assert!(dmax > 8 * avg, "dmax={dmax} avg={avg}");
    }

    #[test]
    fn scale_free_is_skewed() {
        let g = scale_free(3000, 3, 11);
        let avg = g.num_edges() / g.num_vertices();
        let dmax = (0..g.num_vertices() as u32)
            .map(|u| g.degree(u))
            .max()
            .unwrap();
        assert!(dmax > 10 * avg, "dmax={dmax} avg={avg}");
    }

    #[test]
    fn paper_inputs_generate_all_eight() {
        let inputs = paper_inputs(4000.0, 42);
        assert_eq!(inputs.len(), 8);
        for g in &inputs {
            assert!(g.graph.num_vertices() >= 64, "{}", g.name);
            assert!(g.graph.num_edges() > 0, "{}", g.name);
        }
    }
}
