//! Known-answer tests of every seeded random stream the workspace
//! generates inputs from: the xoshiro256** generator behind the graph
//! generators, the property-test generator, and the graphs themselves.
//!
//! Each constant was read once and is pinned here, so a change to a
//! generator, to its seeding or to the way a draw is bounded shows up as
//! a failure instead of as a silently different benchmark input.

use cilkm::graph::{gen, Graph};
use cilkm_base::rng::Xoshiro256;
use proptest::test_runner::TestRng;

/// FNV-1a over a graph's CSR arrays: every degree, then every target.
fn csr_checksum(g: &Graph) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    let n = g.num_vertices() as u32;
    for u in 0..n {
        eat(g.degree(u) as u64);
    }
    for u in 0..n {
        for &v in g.neighbors(u) {
            eat(v as u64);
        }
    }
    h
}

#[test]
fn xoshiro_stream_is_pinned() {
    let mut r = Xoshiro256::seed_from_u64(7);
    let words: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
    assert_eq!(
        words,
        [
            0xb358_faf7_4ef9_765a,
            0x475c_3d96_4f48_2cd2,
            0xd6f1_d349_952c_7996,
            0xfb29_3873_1e80_7240
        ]
    );
    let half: Vec<usize> = (0..8).map(|_| r.below(1000) as usize).collect();
    assert_eq!(half, [990, 872, 60, 104, 403, 151, 541, 731]);
    let incl: Vec<usize> = (0..8).map(|_| 5 + r.below(5) as usize).collect();
    assert_eq!(incl, [9, 9, 7, 7, 6, 7, 5, 5]);
    let f: Vec<u64> = (0..3).map(|_| r.f64().to_bits()).collect();
    assert_eq!(
        f,
        [
            0x3fc5_f14d_24bd_5874,
            0x3fe4_d7e9_2381_7b7e,
            0x3fe5_5bc6_d3a9_e9bd
        ]
    );
}

#[test]
fn test_rng_stream_is_pinned() {
    let mut r = TestRng::deterministic(7);
    let words: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
    assert_eq!(
        words,
        [
            0xb358_faf7_4ef9_765a,
            0x475c_3d96_4f48_2cd2,
            0xd6f1_d349_952c_7996,
            0xfb29_3873_1e80_7240
        ]
    );
    let below: Vec<u64> = (0..8).map(|_| r.below(1000)).collect();
    assert_eq!(below, [990, 872, 60, 104, 403, 151, 541, 731]);
}

#[test]
fn generated_graphs_are_pinned() {
    let g = gen::rmat(10, 20_000, 0.57, 0.19, 0.19, 1);
    assert_eq!(
        (g.num_edges(), csr_checksum(&g)),
        (20_128, 0x6b6f_fe62_0678_412d)
    );
    let g = gen::path_threaded_random(2000, 12_000, 40, 1);
    assert_eq!(
        (g.num_edges(), csr_checksum(&g)),
        (12_000, 0xb608_6706_97b5_f66c)
    );
    let g = gen::scale_free(3000, 3, 11);
    assert_eq!(
        (g.num_edges(), csr_checksum(&g)),
        (17_994, 0x93d8_936d_1c59_5f93)
    );
}
