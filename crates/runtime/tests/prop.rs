//! Property tests for the scheduler: arbitrary join trees must compute
//! exactly what their serial counterparts compute, under any worker
//! count, and the deque must never lose or duplicate work.

#![expect(
    clippy::disallowed_types,
    reason = "per-job hit counters observe the scheduler from outside the crate, where the doc-hidden msync facade is not offered"
)]

use cilkm_runtime::{deque, join, parallel_for, scope, Pool};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// An expression tree evaluated with one join per internal node.
#[derive(Debug, Clone)]
enum Expr {
    Const(u8),
    Add(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
}

impl Expr {
    fn eval_serial(&self) -> u64 {
        match self {
            Expr::Const(c) => *c as u64,
            Expr::Add(a, b) => a.eval_serial().wrapping_add(b.eval_serial()),
            Expr::Mul(a, b) => a.eval_serial().wrapping_mul(b.eval_serial()),
        }
    }

    fn eval_parallel(&self) -> u64 {
        match self {
            Expr::Const(c) => *c as u64,
            Expr::Add(a, b) => {
                let (x, y) = join(|| a.eval_parallel(), || b.eval_parallel());
                x.wrapping_add(y)
            }
            Expr::Mul(a, b) => {
                let (x, y) = join(|| a.eval_parallel(), || b.eval_parallel());
                x.wrapping_mul(y)
            }
        }
    }
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = any::<u8>().prop_map(Expr::Const);
    leaf.prop_recursive(10, 128, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Mul(Box::new(a), Box::new(b))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn join_trees_evaluate_exactly(expr in expr_strategy(), workers in 1usize..5) {
        let expected = expr.eval_serial();
        let pool = Pool::new(workers);
        let got = pool.run(|| expr.eval_parallel());
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn parallel_for_partitions_exactly(
        len in 0usize..5000,
        grain in 1usize..512,
        workers in 1usize..4,
    ) {
        let pool = Pool::new(workers);
        let hits: Vec<AtomicU64> = (0..len).map(|_| AtomicU64::new(0)).collect();
        pool.run(|| {
            parallel_for(0..len, grain, &|r| {
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        for (i, h) in hits.iter().enumerate() {
            prop_assert_eq!(h.load(Ordering::Relaxed), 1, "index {}", i);
        }
    }

    #[test]
    fn scope_runs_each_spawn_once(n_tasks in 0usize..200, workers in 1usize..4) {
        let pool = Pool::new(workers);
        let count = AtomicU64::new(0);
        pool.run(|| {
            scope(|s| {
                for _ in 0..n_tasks {
                    s.spawn(|_| {
                        count.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        });
        prop_assert_eq!(count.into_inner(), n_tasks as u64);
    }

    /// Single-owner deque semantics: any push/pop interleaving behaves
    /// like a stack (this is the serial fast path the paper relies on).
    #[test]
    fn deque_is_a_stack_for_its_owner(ops in proptest::collection::vec(any::<bool>(), 1..200)) {
        let (owner, _stealer) = deque::deque();
        let mut model: Vec<usize> = Vec::new();
        let mut next = 1usize;
        for push in ops {
            if push {
                owner.push((next * 8) as *mut ());
                model.push(next);
                next += 1;
            } else {
                let got = owner.pop().map(|p| p as usize / 8);
                prop_assert_eq!(got, model.pop());
            }
        }
        prop_assert_eq!(owner.len(), model.len());
    }
}

/// Contended-deque stress: one owner pushing and popping against many
/// concurrent thieves. Every pushed job must be claimed exactly once —
/// either popped by the owner or stolen by exactly one thief — and
/// nothing may be lost or duplicated under contention.
#[test]
fn contended_deque_loses_and_duplicates_nothing() {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    const JOBS: usize = 20_000;
    const THIEVES: usize = 6;

    let (owner, stealer) = deque::deque();
    let stealer = Arc::new(stealer);
    let done = Arc::new(AtomicBool::new(false));
    // One claim slot per job id; jobs travel as (id+1)*8 so the pointer
    // is non-null and 8-aligned like a real JobRef.
    let claims: Arc<Vec<AtomicU64>> = Arc::new((0..JOBS).map(|_| AtomicU64::new(0)).collect());

    let thieves: Vec<_> = (0..THIEVES)
        .map(|_| {
            let stealer = Arc::clone(&stealer);
            let done = Arc::clone(&done);
            let claims = Arc::clone(&claims);
            std::thread::spawn(move || {
                let mut stolen = 0u64;
                loop {
                    match stealer.steal() {
                        deque::Steal::Success(p) => {
                            let id = p as usize / 8 - 1;
                            claims[id].fetch_add(1, Ordering::Relaxed);
                            stolen += 1;
                        }
                        deque::Steal::Retry => std::hint::spin_loop(),
                        deque::Steal::Empty => {
                            if done.load(Ordering::Acquire) && stealer.is_empty() {
                                return stolen;
                            }
                            std::hint::spin_loop();
                        }
                    }
                }
            })
        })
        .collect();

    // The owner interleaves bursts of pushes with pops, like a worker
    // spawning trees of jobs while draining its own tail.
    let mut pushed = 0usize;
    while pushed < JOBS {
        let burst = 1 + (pushed % 37);
        for _ in 0..burst.min(JOBS - pushed) {
            owner.push(((pushed + 1) * 8) as *mut ());
            pushed += 1;
        }
        // Pop roughly a third of each burst back.
        for _ in 0..burst / 3 {
            if let Some(p) = owner.pop() {
                let id = p as usize / 8 - 1;
                claims[id].fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    // Drain whatever the thieves have not taken.
    while let Some(p) = owner.pop() {
        let id = p as usize / 8 - 1;
        claims[id].fetch_add(1, Ordering::Relaxed);
    }
    done.store(true, Ordering::Release);

    let stolen_total: u64 = thieves.into_iter().map(|t| t.join().unwrap()).sum();
    for (id, c) in claims.iter().enumerate() {
        assert_eq!(
            c.load(Ordering::Relaxed),
            1,
            "job {id} claimed wrong number of times"
        );
    }
    assert!(stolen_total <= JOBS as u64);
}

/// Deterministic many-round stress: mixed joins and scopes, checked sums.
#[test]
fn mixed_join_scope_stress() {
    let pool = Pool::new(4);
    for round in 0..20u64 {
        let total = AtomicU64::new(0);
        pool.run(|| {
            scope(|s| {
                for k in 0..8u64 {
                    let total = &total;
                    s.spawn(move |_| {
                        let (a, b) = join(
                            || (0..500).map(|i| i * k).sum::<u64>(),
                            || (0..500).map(|i| i + k).sum::<u64>(),
                        );
                        total.fetch_add(a + b, Ordering::Relaxed);
                    });
                }
            });
        });
        let expect: u64 = (0..8u64)
            .map(|k| (0..500).map(|i| i * k).sum::<u64>() + (0..500).map(|i| i + k).sum::<u64>())
            .sum();
        assert_eq!(total.into_inner(), expect, "round {round}");
    }
}
