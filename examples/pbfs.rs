//! PBFS — the paper's application benchmark (§8): parallel breadth-first
//! search with bag reducers, on a synthetic RMAT graph, compared against
//! serial BFS and across both reducer backends.
//!
//! ```sh
//! cargo run --release --example pbfs
//! # with the event tracer compiled in, additionally records one traced
//! # run and writes trace/metrics artifacts under bench_out/:
//! cargo run --release --features trace --example pbfs
//! # work, span, burdened span and parallelism from the online profiler:
//! cargo run --release --features trace --example pbfs -- --profile
//! ```

use std::path::PathBuf;

use cilkm::graph::gen;
use cilkm::obs::{analyze, export, metrics, trace};
use cilkm::prelude::*;

/// Artifact directory: `CILKM_BENCH_OUT` if set, else `bench_out/` at
/// the workspace root (mirrors `cilkm-bench::output::out_dir`).
fn out_dir() -> PathBuf {
    let p = match std::env::var("CILKM_BENCH_OUT") {
        Ok(dir) => PathBuf::from(dir),
        Err(_) => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("bench_out"),
    };
    let _ = std::fs::create_dir_all(&p);
    p
}

/// One profiled PBFS run: the online constant-space work/span
/// accumulator, no trace ring involved. Prints the parallelism report
/// (all zeros when the `trace` feature is off).
fn profiled_run(g: &cilkm::graph::Graph, source: u32, serial: &[u32]) {
    let pool = ReducerPool::new(4, Backend::Mmap);
    let (report, pr) = cilkm::graph::pbfs_profiled(&pool, g, source, 128);
    assert_eq!(
        report.distances, serial,
        "profiled run disagrees with serial"
    );
    print!("{}", pr.render());
}

/// One tracer-enabled PBFS run: records every scheduler/reducer event,
/// writes the Chrome trace (load it in Perfetto / chrome://tracing), the
/// lossless events CSV, and a metrics dump, then prints the analyzer's
/// summary of the same trace.
fn traced_run(g: &cilkm::graph::Graph, source: u32, serial: &[u32]) {
    let pool = ReducerPool::new(4, Backend::Mmap);
    let metrics_before = metrics::global().snapshot();
    let t0 = cilkm::obs::clock::now_ns();
    trace::set_enabled(true);
    let report = pbfs(&pool, g, source, 128);
    trace::set_enabled(false);
    let tr = trace::drain().since_ns(t0);
    let metrics_delta = metrics::global().snapshot().since(&metrics_before);
    assert_eq!(report.distances, serial, "traced run disagrees with serial");

    let dir = out_dir();
    let write = |name: &str, f: &dyn Fn(&mut Vec<u8>) -> std::io::Result<()>| {
        let mut buf = Vec::new();
        f(&mut buf).expect("render artifact");
        let path = dir.join(name);
        std::fs::write(&path, buf).expect("write artifact");
        println!("  wrote {}", path.display());
    };
    write("pbfs_trace.json", &|w| export::write_chrome_json(&tr, w));
    write("pbfs_trace_events.csv", &|w| {
        export::write_events_csv(&tr, w)
    });
    write("pbfs_metrics.csv", &|w| {
        export::write_metrics_csv(&metrics_delta, w)
    });
    write("pbfs_metrics.json", &|w| {
        export::write_metrics_json(&metrics_delta, w)
    });
    print!("{}", analyze::render(&analyze::summarize(&tr)));
}

fn main() {
    let profile = std::env::args().any(|a| a == "--profile");
    // A Graph500-flavoured RMAT graph: skewed degrees, tiny diameter.
    let g = gen::rmat(16, 1_000_000, 0.57, 0.19, 0.19, 7);
    println!("graph: |V| = {}, |E| = {}", g.num_vertices(), g.num_edges());
    let source = g.max_degree_vertex();

    let t0 = std::time::Instant::now();
    let serial = bfs_serial(&g, source);
    let t_serial = t0.elapsed();
    let reached = serial.iter().filter(|&&d| d != u32::MAX).count();
    println!("serial BFS: {reached} vertices reached in {t_serial:?}");

    for backend in [Backend::Mmap, Backend::Hypermap] {
        let pool = ReducerPool::new(4, backend);
        let t0 = std::time::Instant::now();
        let report = pbfs(&pool, &g, source, 128);
        let t_par = t0.elapsed();
        assert_eq!(
            report.distances, serial,
            "{backend:?} disagrees with serial BFS"
        );
        println!(
            "{backend:?}: identical distances, {} layers, {} reducer lookups, {t_par:?} \
             ({} steals)",
            report.layers,
            report.lookups,
            pool.stats().steals,
        );
    }
    if profile {
        println!("\nprofiled run (mmap backend, online work/span accumulator):");
        profiled_run(&g, source, &serial);
    }
    if trace::compiled() {
        println!("\ntraced run (mmap backend):");
        traced_run(&g, source, &serial);
    }
    println!("PBFS matches serial BFS on both backends ✓");
}
