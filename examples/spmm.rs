//! Sparse matrix–matrix multiply with **sparse accumulators** — the
//! original Gilbert–Moler–Schreiber use of the SPA that Cilk-M borrows
//! for its reducer views (§6) — parallelized over result columns with a
//! flop-count reducer tracking work on the side.
//!
//! Computes C = A·B for sparse A, B in CSC form: column j of C is the
//! linear combination `Σ_k B[k,j] · A[:,k]`, accumulated in a SPA for
//! O(flops) work instead of O(n) per column.
//!
//! ```sh
//! cargo run --release --example spmm
//! ```

#![expect(
    clippy::disallowed_types,
    reason = "an example stands in for an outside program, which holds its result columns in std mutexes as any user of the public API would"
)]

use cilkm::prelude::*;
use cilkm::spa::Spa;

/// A sparse matrix in compressed sparse column form.
struct Csc {
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f64>,
}

impl Csc {
    /// A deterministic random sparse matrix with ~`nnz_per_col` entries
    /// per column.
    fn random(n: usize, nnz_per_col: usize, seed: u64) -> Csc {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let mut col_ptr = vec![0usize];
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        for _ in 0..n {
            let mut rows: Vec<u32> = (0..nnz_per_col)
                .map(|_| (next() % n as u64) as u32)
                .collect();
            rows.sort_unstable();
            rows.dedup();
            for r in rows {
                row_idx.push(r);
                values.push(((next() % 1000) as f64) / 500.0 - 1.0);
            }
            col_ptr.push(row_idx.len());
        }
        Csc {
            col_ptr,
            row_idx,
            values,
        }
    }

    fn col(&self, j: usize) -> (&[u32], &[f64]) {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        (&self.row_idx[lo..hi], &self.values[lo..hi])
    }

    fn nnz(&self) -> usize {
        self.row_idx.len()
    }
}

/// One column of C via a SPA: accumulate, then drain sorted.
fn spgemm_column(
    a: &Csc,
    b: &Csc,
    j: usize,
    spa: &mut Spa<f64>,
    flops: &mut u64,
) -> Vec<(u32, f64)> {
    let (b_rows, b_vals) = b.col(j);
    for (&k, &bkj) in b_rows.iter().zip(b_vals) {
        let (a_rows, a_vals) = a.col(k as usize);
        for (&i, &aik) in a_rows.iter().zip(a_vals) {
            *flops += 2;
            spa.accumulate(i as usize, || 0.0, |v| *v += aik * bkj);
        }
    }
    let mut col = spa.drain();
    col.sort_unstable_by_key(|e| e.0);
    col.into_iter().map(|(i, v)| (i as u32, v)).collect()
}

fn main() {
    let n = 4000;
    let a = Csc::random(n, 8, 1);
    let b = Csc::random(n, 8, 2);
    println!("A: {}x{n}, nnz = {}; B: nnz = {}", n, a.nnz(), b.nnz());

    let pool = ReducerPool::new(4, Backend::Mmap);
    let flops = Reducer::new(&pool, SumMonoid::<u64>::new(), 0);

    // Each result column gets its own SPA (per grain, reused across the
    // columns of the grain — the classic SPA reuse pattern).
    let t0 = std::time::Instant::now();
    let columns: Vec<std::sync::Mutex<Vec<(u32, f64)>>> =
        (0..n).map(|_| std::sync::Mutex::new(Vec::new())).collect();
    pool.run(|| {
        parallel_for(0..n, 64, &|range| {
            let mut spa = Spa::new(n);
            let mut local_flops = 0u64;
            for j in range {
                *columns[j].lock().unwrap() = spgemm_column(&a, &b, j, &mut spa, &mut local_flops);
            }
            flops.add(local_flops);
        });
    });
    let elapsed = t0.elapsed();

    let nnz_c: usize = columns.iter().map(|c| c.lock().unwrap().len()).sum();
    let total_flops = flops.into_inner();
    println!(
        "C = A*B: nnz = {nnz_c}, {total_flops} flops in {elapsed:?} \
         ({:.1} Mflop/s)",
        total_flops as f64 / elapsed.as_secs_f64() / 1e6
    );

    // Verify a few columns against a dense reference.
    for j in [0usize, n / 2, n - 1] {
        let mut dense = vec![0.0f64; n];
        let (b_rows, b_vals) = b.col(j);
        for (&k, &bkj) in b_rows.iter().zip(b_vals) {
            let (a_rows, a_vals) = a.col(k as usize);
            for (&i, &aik) in a_rows.iter().zip(a_vals) {
                dense[i as usize] += aik * bkj;
            }
        }
        let got = columns[j].lock().unwrap();
        for &(i, v) in got.iter() {
            assert!((dense[i as usize] - v).abs() < 1e-9, "col {j} row {i}");
            dense[i as usize] = 0.0;
        }
        assert!(
            dense.iter().all(|&v| v.abs() < 1e-12),
            "col {j} missing entries"
        );
    }
    println!("spot-checked columns against dense reference ✓");
}
