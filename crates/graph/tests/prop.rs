//! Property tests for the graph substrate: bags keep their elements, in
//! order, under arbitrary operation sequences, and PBFS agrees with
//! serial BFS on arbitrary random graphs.

use cilkm_core::{Backend, ReducerPool};
use cilkm_graph::{bfs_serial, check_bag_invariant, pbfs, Bag, Graph, BLOCK};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum BagOp {
    Insert(u16),
    UnionFresh(Vec<u16>),
    Append(Vec<u16>),
}

fn bag_ops() -> impl Strategy<Value = Vec<BagOp>> {
    proptest::collection::vec(
        prop_oneof![
            3 => any::<u16>().prop_map(BagOp::Insert),
            // Up to 400 so a sequence crosses several block boundaries.
            1 => proptest::collection::vec(any::<u16>(), 0..400).prop_map(BagOp::UnionFresh),
            // Lengths 0..=BLOCK + 1: shorter than a block, exactly one, and
            // longer — `append`'s three arms. The exact-block arm is one
            // length in 130, so it gets a draw of its own.
            1 => proptest::collection::vec(any::<u16>(), 0..BLOCK + 2).prop_map(BagOp::Append),
            1 => proptest::collection::vec(any::<u16>(), BLOCK).prop_map(BagOp::Append),
        ],
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A bag walks exactly the concatenation of its inserts, unions and
    /// appends, in the order they were made.
    #[test]
    fn bag_conserves_multiset(ops in bag_ops()) {
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
            prop_assert!(check_bag_invariant(&bag));
        }
        prop_assert_eq!(bag.len(), model.len());
        let mut got = Vec::with_capacity(model.len());
        bag.for_each(|&x| got.push(x));
        prop_assert_eq!(got, model);
    }

    /// PBFS computes exactly the serial BFS distances on random graphs,
    /// on both backends.
    #[test]
    fn pbfs_equals_serial_on_random_graphs(
        n in 2usize..120,
        edges in proptest::collection::vec((any::<u16>(), any::<u16>()), 0..400),
        undirected in any::<bool>(),
    ) {
        let list: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|(a, b)| ((a as usize % n) as u32, (b as usize % n) as u32))
            .collect();
        let g = if undirected {
            Graph::from_undirected_edges(n, &list)
        } else {
            Graph::from_edges(n, &list)
        };
        let expect = bfs_serial(&g, 0);
        for backend in [Backend::Hypermap, Backend::Mmap] {
            let pool = ReducerPool::new(2, backend);
            let got = pbfs(&pool, &g, 0, 8).distances;
            prop_assert_eq!(&got, &expect, "backend {:?}", backend);
        }
    }
}
