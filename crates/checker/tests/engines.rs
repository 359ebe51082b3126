//! Cross-engine tests: the DPOR engine must agree with naive DFS on
//! every litmus verdict while exploring a fraction of the schedules.

#![expect(
    clippy::disallowed_types,
    reason = "the environment lock serializes real test threads outside every model run; the checker's own types cannot back a process-wide static"
)]

use std::sync::Arc;
use std::sync::Mutex as StdMutex;

use cilkm_checker::cell::TraceCell;
use cilkm_checker::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use cilkm_checker::sync::Mutex;
use cilkm_checker::{thread, try_model_with, Config};

/// Serializes tests against the one that rewrites `CILKM_CHECK_STATS`,
/// the environment variable every model run consults.
static ENV_LOCK: StdMutex<()> = StdMutex::new(());

fn dfs_unbounded() -> Config {
    Config {
        preemptions: None,
        ..Config::default()
    }
}

// ---- Scenario zoo (fn pointers so one table drives both engines) ----

/// Sound release/acquire message passing.
fn mp_release_acquire() {
    let flag = Arc::new(AtomicBool::new(false));
    let data = Arc::new(AtomicUsize::new(0));
    let (f2, d2) = (flag.clone(), data.clone());
    let t = thread::spawn(move || {
        d2.store(42, Ordering::Relaxed);
        f2.store(true, Ordering::Release);
    });
    if flag.load(Ordering::Acquire) {
        assert_eq!(data.load(Ordering::Relaxed), 42);
    }
    t.join().unwrap();
}

/// Broken message passing: relaxed flag store leaks a stale data read.
fn mp_relaxed() {
    let flag = Arc::new(AtomicBool::new(false));
    let data = Arc::new(AtomicUsize::new(0));
    let (f2, d2) = (flag.clone(), data.clone());
    let t = thread::spawn(move || {
        d2.store(42, Ordering::Relaxed);
        f2.store(true, Ordering::Relaxed);
    });
    if flag.load(Ordering::Acquire) {
        assert_eq!(data.load(Ordering::Relaxed), 42, "stale data");
    }
    t.join().unwrap();
}

/// SeqCst store buffering: at least one thread sees the other's store.
fn sb_seqcst() {
    let x = Arc::new(AtomicUsize::new(0));
    let y = Arc::new(AtomicUsize::new(0));
    let (x2, y2) = (x.clone(), y.clone());
    let t = thread::spawn(move || {
        x2.store(1, Ordering::SeqCst);
        y2.load(Ordering::SeqCst)
    });
    y.store(1, Ordering::SeqCst);
    let r1 = x.load(Ordering::SeqCst);
    let r2 = t.join().unwrap();
    assert!(r1 == 1 || r2 == 1, "SeqCst store buffering violated");
}

/// Two threads with fully disjoint data: every interleaving is
/// equivalent, so DPOR should collapse the tree DFS enumerates.
fn independent_counters() {
    let a = Arc::new(AtomicUsize::new(0));
    let b = Arc::new(AtomicUsize::new(0));
    let a2 = a.clone();
    let t = thread::spawn(move || {
        for _ in 0..3 {
            a2.fetch_add(1, Ordering::Relaxed);
        }
    });
    for _ in 0..3 {
        b.fetch_add(1, Ordering::Relaxed);
    }
    t.join().unwrap();
    assert_eq!(b.load(Ordering::Relaxed), 3);
}

/// Two release/acquire channels with disjoint locations, one per
/// producer thread: the producers are fully independent of each other,
/// so DFS pays for interleavings DPOR never runs.
fn mp_two_channels() {
    let f1 = Arc::new(AtomicBool::new(false));
    let d1 = Arc::new(AtomicUsize::new(0));
    let f2 = Arc::new(AtomicBool::new(false));
    let d2 = Arc::new(AtomicUsize::new(0));
    let (fa, da) = (f1.clone(), d1.clone());
    let t1 = thread::spawn(move || {
        da.store(1, Ordering::Relaxed);
        fa.store(true, Ordering::Release);
    });
    let (fb, db) = (f2.clone(), d2.clone());
    let t2 = thread::spawn(move || {
        db.store(2, Ordering::Relaxed);
        fb.store(true, Ordering::Release);
    });
    if f1.load(Ordering::Acquire) {
        assert_eq!(d1.load(Ordering::Relaxed), 1);
    }
    if f2.load(Ordering::Acquire) {
        assert_eq!(d2.load(Ordering::Relaxed), 2);
    }
    t1.join().unwrap();
    t2.join().unwrap();
}

/// Mutex-serialized increments lose nothing.
fn mutex_counter() {
    let counter = Arc::new(Mutex::new(0usize));
    let c2 = counter.clone();
    let t = thread::spawn(move || {
        *c2.lock() += 1;
    });
    *counter.lock() += 1;
    t.join().unwrap();
    assert_eq!(*counter.lock(), 2);
}

/// Unsynchronized plain-memory race.
fn plain_race() {
    let cell = Arc::new(TraceCell::new(0usize));
    let c2 = cell.clone();
    let t = thread::spawn(move || {
        c2.with_mut(|p| {
            // SAFETY: intentionally racy; the model aborts the schedule
            // before the UB can matter (pointer is valid and aligned).
            unsafe { *p += 1 }
        });
    });
    cell.with_mut(|p| {
        // SAFETY: as above.
        unsafe { *p += 1 }
    });
    t.join().unwrap();
}

/// Park with no unpark: deadlock in every schedule.
fn lost_park() {
    let t = thread::spawn(|| {
        thread::park();
    });
    t.join().unwrap();
}

const SUITE: &[(&str, fn(), bool)] = &[
    ("mp_release_acquire", mp_release_acquire, true),
    ("mp_relaxed", mp_relaxed, false),
    ("sb_seqcst", sb_seqcst, true),
    ("independent_counters", independent_counters, true),
    ("mp_two_channels", mp_two_channels, true),
    ("mutex_counter", mutex_counter, true),
    ("plain_race", plain_race, false),
    ("lost_park", lost_park, false),
];

/// The S5 gate: DPOR and DFS must return the same verdict on every
/// litmus scenario at identical bounds (none), and passing verdicts must
/// be complete (true exhaustion, not a schedule-cap timeout).
#[test]
fn dpor_and_dfs_verdicts_agree() {
    let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for &(name, f, expect_pass) in SUITE {
        let dfs = try_model_with(dfs_unbounded(), f);
        let dpor = try_model_with(Config::dpor(), f);
        assert_eq!(
            dfs.is_ok(),
            expect_pass,
            "dfs verdict flipped on {name}: {dfs:?}"
        );
        assert_eq!(
            dpor.is_ok(),
            expect_pass,
            "dpor verdict flipped on {name}: {dpor:?}"
        );
        if let (Ok(a), Ok(b)) = (&dfs, &dpor) {
            assert!(a.complete, "dfs did not exhaust {name}");
            assert!(b.complete, "dpor did not exhaust {name}");
        }
    }
}

/// The reduction claim: at identical (unbounded) limits DPOR completes
/// the passing scenarios in at most a quarter of the schedules DFS
/// needs, and accounts for the rest as pruned.
#[test]
fn dpor_prunes_at_least_4x_on_independent_work() {
    let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for &(name, f) in &[
        ("independent_counters", independent_counters as fn()),
        ("mp_two_channels", mp_two_channels as fn()),
    ] {
        let dfs = try_model_with(dfs_unbounded(), f).expect(name);
        let dpor = try_model_with(Config::dpor(), f).expect(name);
        assert!(
            dpor.schedules * 4 <= dfs.schedules,
            "{name}: dpor ran {} of dfs's {} schedules (> 25%)",
            dpor.schedules,
            dfs.schedules
        );
        assert!(
            dpor.pruned > 0,
            "{name}: expected sleep-set/backtrack pruning to be recorded"
        );
        assert!(
            dpor.dependence_classes > 0,
            "{name}: dependence classes must be reported"
        );
    }
}

/// `CILKM_CHECK_STATS` captures one deterministic JSON entry per
/// `(test, engine)` pair.
#[test]
fn stats_report_is_written_and_merged() {
    let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let path = std::env::temp_dir().join("cilkm_engines_stats_test.json");
    let _ = std::fs::remove_file(&path);
    // The CI model-check job sets this for the whole process: put its
    // value back, or every test that runs after this one records nothing.
    let outer = std::env::var_os("CILKM_CHECK_STATS");
    std::env::set_var("CILKM_CHECK_STATS", &path);
    let dpor = try_model_with(Config::dpor(), independent_counters);
    let dfs = try_model_with(dfs_unbounded(), independent_counters);
    match outer {
        Some(v) => std::env::set_var("CILKM_CHECK_STATS", v),
        None => std::env::remove_var("CILKM_CHECK_STATS"),
    }
    let dpor = dpor.unwrap();
    dfs.unwrap();
    let text = std::fs::read_to_string(&path).expect("stats file must exist");
    let _ = std::fs::remove_file(&path);
    assert!(text.starts_with("{\n  \"schema_version\": 1"), "{text}");
    assert!(
        text.contains("\"engine\":\"dpor\"") && text.contains("\"engine\":\"dfs\""),
        "one entry per engine: {text}"
    );
    assert!(
        text.contains(&format!("\"schedules\":{}", dpor.schedules)),
        "entry must carry the real schedule count: {text}"
    );
    assert!(
        text.contains("\"verdict\":\"pass\""),
        "verdict recorded: {text}"
    );
}
