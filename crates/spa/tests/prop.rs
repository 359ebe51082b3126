//! Property tests: the raw-page `SpaMapRef` must behave exactly like the
//! safe generic `Spa` used as an executable model, and both must conserve
//! their occupancy invariants under arbitrary operation sequences.

// Property suites are orders of magnitude too slow under the Miri
// interpreter; the crates' inline unit tests cover the same paths there.
#![cfg(not(miri))]

use cilkm_spa::{Spa, SpaMapBox, ViewPair, LOG_CAPACITY, VIEWS_PER_MAP};

use cilkm_base::rng::{cases, Xoshiro256};
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Insert { idx: u8, tag: u16 },
    Remove { idx: u8 },
    Drain,
}

fn gen_op(rng: &mut Xoshiro256) -> Op {
    let idx = |rng: &mut Xoshiro256| rng.below(VIEWS_PER_MAP as u64) as u8;
    match rng.below(7) {
        0..=3 => Op::Insert {
            idx: idx(rng),
            tag: 1 + rng.below(u16::MAX as u64 - 1) as u16,
        },
        4 | 5 => Op::Remove { idx: idx(rng) },
        _ => Op::Drain,
    }
}

fn tag_pair(tag: u16) -> ViewPair {
    ViewPair {
        view: (0x10_0000usize + (tag as usize) * 16) as *mut u8,
        monoid: 0x8000 as *const u8,
    }
}

/// SpaMap agrees with a BTreeMap model under inserts/removes/drains,
/// including across the log-overflow boundary.
#[test]
fn spa_map_matches_model() {
    cases(1, 128, |rng| {
        let ops: Vec<Op> = (0..1 + rng.below(399)).map(|_| gen_op(rng)).collect();
        let b = SpaMapBox::new();
        let m = b.as_ref();
        let mut model: BTreeMap<usize, u16> = BTreeMap::new();

        for op in ops {
            match op {
                Op::Insert { idx, tag } => {
                    let idx = idx as usize;
                    if model.contains_key(&idx) {
                        // Occupied: the map API requires remove-first.
                        continue;
                    }
                    m.insert(idx, tag_pair(tag));
                    model.insert(idx, tag);
                }
                Op::Remove { idx } => {
                    let idx = idx as usize;
                    if model.remove(&idx).is_some() {
                        let got = m.remove(idx);
                        assert!(!got.is_null());
                    }
                }
                Op::Drain => {
                    let mut drained = BTreeMap::new();
                    m.drain(|idx, p| {
                        drained.insert(idx, p);
                    });
                    assert_eq!(drained.len(), model.len());
                    for (idx, tag) in &model {
                        assert_eq!(drained.get(idx).copied(), Some(tag_pair(*tag)));
                    }
                    model.clear();
                    assert!(m.is_empty());
                }
            }
            assert_eq!(m.nvalid(), model.len());
        }

        // Final consistency sweep via non-destructive sequencing: every
        // live element visited exactly once, nothing else.
        let mut seen = BTreeMap::new();
        let mut dup = false;
        m.for_each_valid(|idx, p| {
            dup |= seen.insert(idx, p).is_some();
        });
        assert!(!dup, "for_each_valid visited a slot twice");
        assert_eq!(seen.len(), model.len());
        for (idx, tag) in &model {
            assert_eq!(seen.get(idx).copied(), Some(tag_pair(*tag)));
        }
        m.clear_all();
    });
}

/// Generic Spa: drain == the set of live (index, value) pairs, exactly
/// once each, regardless of stale log entries.
#[test]
fn generic_spa_drain_is_exact() {
    cases(2, 128, |rng| {
        let ops: Vec<Op> = (0..1 + rng.below(199)).map(|_| gen_op(rng)).collect();
        let mut spa: Spa<u16> = Spa::new(VIEWS_PER_MAP);
        let mut model: BTreeMap<usize, u16> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert { idx, tag } => {
                    spa.set(idx as usize, tag);
                    model.insert(idx as usize, tag);
                }
                Op::Remove { idx } => {
                    assert_eq!(spa.clear(idx as usize), model.remove(&(idx as usize)));
                }
                Op::Drain => {
                    let mut got = spa.drain();
                    got.sort();
                    let expect: Vec<_> = std::mem::take(&mut model).into_iter().collect();
                    assert_eq!(got, expect);
                }
            }
            assert_eq!(spa.len(), model.len());
        }
    });
}

/// Filling past the log capacity always flips the map into overflow
/// mode and sequencing still visits every element.
#[test]
fn overflow_boundary() {
    cases(3, 128, |rng| {
        let extra = 1 + rng.below((VIEWS_PER_MAP - LOG_CAPACITY - 1) as u64) as usize;
        let b = SpaMapBox::new();
        let m = b.as_ref();
        let total = LOG_CAPACITY + extra;
        for i in 0..total {
            m.insert(i, tag_pair((i + 1) as u16));
        }
        assert!(m.log_overflowed());
        let mut n = 0;
        m.for_each_valid(|_, _| n += 1);
        assert_eq!(n, total);
        m.clear_all();
    });
}
