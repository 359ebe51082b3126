//! Property tests for the graph substrate: bags keep their elements, in
//! order, under arbitrary operation sequences, and PBFS agrees with
//! serial BFS on arbitrary random graphs.

use cilkm_base::rng::{cases, Xoshiro256};
use cilkm_core::{Backend, ReducerPool};
use cilkm_graph::{bfs_serial, check_bag_invariant, pbfs, Bag, Graph, BLOCK};

#[derive(Debug, Clone)]
enum BagOp {
    Insert(u16),
    UnionFresh(Vec<u16>),
    Append(Vec<u16>),
}

/// `n` draws of `u16`.
fn gen_u16s(rng: &mut Xoshiro256, n: usize) -> Vec<u16> {
    (0..n).map(|_| rng.next_u64() as u16).collect()
}

fn gen_bag_ops(rng: &mut Xoshiro256) -> Vec<BagOp> {
    let len = 1 + rng.below(59) as usize;
    (0..len)
        .map(|_| match rng.below(6) {
            0..=2 => BagOp::Insert(rng.next_u64() as u16),
            // Up to 400 so a sequence crosses several block boundaries.
            3 => {
                let n = rng.below(400) as usize;
                BagOp::UnionFresh(gen_u16s(rng, n))
            }
            // Lengths 0..=BLOCK + 1: shorter than a block, exactly one, and
            // longer — `append`'s three arms. The exact-block arm is one
            // length in 130, so it gets a draw of its own.
            4 => {
                let n = rng.below(BLOCK as u64 + 2) as usize;
                BagOp::Append(gen_u16s(rng, n))
            }
            _ => BagOp::Append(gen_u16s(rng, BLOCK)),
        })
        .collect()
}

/// A bag walks exactly the concatenation of its inserts, unions and
/// appends, in the order they were made.
#[test]
fn bag_conserves_multiset() {
    cases(1, 64, |rng| {
        let ops = gen_bag_ops(rng);
        let mut bag: Bag<u16> = Bag::new();
        let mut model: Vec<u16> = Vec::new();
        for op in ops {
            match op {
                BagOp::Insert(x) => {
                    bag.insert(x);
                    model.push(x);
                }
                BagOp::UnionFresh(xs) => {
                    let mut other = Bag::new();
                    xs.iter().for_each(|&x| other.insert(x));
                    bag.union(other);
                    model.extend(xs);
                }
                BagOp::Append(xs) => {
                    model.extend(&xs);
                    bag.append(xs);
                }
            }
            assert!(check_bag_invariant(&bag));
        }
        assert_eq!(bag.len(), model.len());
        let mut got = Vec::with_capacity(model.len());
        bag.for_each(|&x| got.push(x));
        assert_eq!(got, model);
    });
}

/// PBFS computes exactly the serial BFS distances on random graphs,
/// on both backends.
#[test]
fn pbfs_equals_serial_on_random_graphs() {
    cases(2, 64, |rng| {
        let n = 2 + rng.below(118) as usize;
        let vertex = |rng: &mut Xoshiro256| (rng.next_u64() as u16 as usize % n) as u32;
        let list: Vec<(u32, u32)> = (0..rng.below(400))
            .map(|_| (vertex(rng), vertex(rng)))
            .collect();
        let undirected = rng.next_u64() & 1 == 1;
        let g = if undirected {
            Graph::from_undirected_edges(n, &list)
        } else {
            Graph::from_edges(n, &list)
        };
        let expect = bfs_serial(&g, 0);
        for backend in [Backend::Hypermap, Backend::Mmap] {
            let pool = ReducerPool::new(2, backend);
            let got = pbfs(&pool, &g, 0, 8).distances;
            assert_eq!(&got, &expect, "backend {backend:?}");
        }
    });
}
