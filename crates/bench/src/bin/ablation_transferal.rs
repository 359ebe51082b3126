//! Ablation: the two view-transferal strategies of §7.
//!
//! When worker W1 terminates a frame it must publish its local views so
//! another worker can hypermerge them. The paper names two strategies:
//!
//! * **mapping** — W1 leaves the *page descriptors* of its private SPA
//!   maps in the frame; the merging worker W2 maps those pages into its
//!   own TLMM region (a `sys_pmap`, i.e. kernel crossings) and reads the
//!   views in place;
//! * **copying** — W1 copies the view pointers into shared memory
//!   (zeroing its private maps as it goes); W2 reads them there, no
//!   remapping. The copy measured is the one `cilkm-core` ships: one
//!   exactly-sized list of `(slot, pair)` per transferal.
//!
//! Cilk-M chooses copying "because the number of reducers used in a
//! program is generally small, and thus the overhead of memory mapping
//! greatly outweighs the cost of copying a few pointers". This harness
//! measures both strategies over the actual `cilkm-tlmm` + `cilkm-spa`
//! substrates, sweeping the number of live views and the simulated
//! kernel-crossing latency, and reports the crossover.
//!
//! Env: CILKM_ABLATION_ITERS (default 2000 transferals per point),
//! crossing costs swept over {0ns, 300ns, 1000ns, 3000ns}.

use std::sync::Arc;
use std::time::Instant;

use cilkm_bench::output::Table;
use cilkm_spa::{SpaMapRef, ViewPair, VIEWS_PER_MAP};
use cilkm_tlmm::{stats, PageArena, TlmmRegion};

fn fake_pair(tag: usize) -> ViewPair {
    ViewPair {
        view: (0x10_0000 + tag * 16) as *mut u8,
        monoid: 0x8000 as *const u8,
    }
}

/// One copying transferal: the private map is sequenced by its log into
/// one exactly-sized list (zeroing the private entries as they leave),
/// then the "merger" takes the list's pairs one by one and frees it.
fn copying_round(private: SpaMapRef, nviews: usize) -> usize {
    let mut list: Vec<(u32, ViewPair)> = Vec::with_capacity(nviews);
    private.drain(|idx, pair| list.push((idx as u32, pair)));
    // Merger side: sequence and consume.
    let mut seen = 0;
    while let Some(entry) = list.pop() {
        std::hint::black_box(entry);
        seen += 1;
    }
    debug_assert_eq!(seen, nviews);
    seen
}

/// One mapping transferal: W1 publishes descriptors; W2 pmaps them into
/// its own region at a scratch offset and sequences in place, then
/// unmaps. W1 must still zero its private map afterwards (the paper's
/// invariant: a worker re-enters stealing with empty private maps).
fn mapping_round(
    w1_private: SpaMapRef,
    w1_desc: cilkm_tlmm::PageDesc,
    w2: &mut TlmmRegion,
    scratch_page: usize,
    nviews: usize,
) -> usize {
    // W2 maps W1's page (kernel crossing) and reads the views in place.
    w2.pmap(scratch_page, &[w1_desc]);
    // SAFETY: the page just mapped at `scratch_page` is W1's SPA-map page
    // (laid out by `SpaMapRef` writes), and only this thread touches it
    // while mapped.
    let mapped = unsafe { SpaMapRef::from_raw(w2.page_base(scratch_page)) };
    let mut seen = 0;
    mapped.for_each_valid(|_, _| seen += 1);
    debug_assert_eq!(seen, nviews);
    // W1 zeroes its private map before stealing again.
    w1_private.clear_all();
    // W2 unmaps (second crossing in a real system; batched here).
    w2.pmap(scratch_page, &[cilkm_tlmm::PD_NULL]);
    seen
}

fn main() {
    let iters: usize = std::env::var("CILKM_ABLATION_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2000);

    let arena = Arc::new(PageArena::new());
    let mut w1 = TlmmRegion::new(Arc::clone(&arena));
    let mut w2 = TlmmRegion::new(Arc::clone(&arena));
    let w1_desc = arena.palloc();
    w1.pmap(0, &[w1_desc]);
    // SAFETY: `w1_desc` is a freshly `palloc`ed zeroed page mapped at
    // slot 0; an all-zero page is a valid empty SPA map, and only this
    // thread accesses it.
    let private = unsafe { SpaMapRef::from_raw(w1.page_base(0)) };

    let view_counts = [1usize, 2, 4, 8, 16, 32, 64, 128, 248];
    let crossing_costs = [0u64, 300, 1000, 3000];

    let mut t = Table::new(
        &format!(
            "Ablation — view transferal strategy (§7), ns per transferal, {iters} iters/point"
        ),
        &[
            "views",
            "copying",
            "map@0ns",
            "map@300ns",
            "map@1us",
            "map@3us",
            "winner@1us",
        ],
    );

    for &nv in &view_counts {
        let fill = |m: SpaMapRef| {
            for i in 0..nv {
                m.insert(i % VIEWS_PER_MAP, fake_pair(i));
            }
        };

        // Copying strategy.
        stats::set_crossing_cost_ns(0);
        let t0 = Instant::now();
        for _ in 0..iters {
            fill(private);
            copying_round(private, nv);
        }
        let copy_ns = t0.elapsed().as_nanos() as f64 / iters as f64;

        // Mapping strategy at each simulated syscall latency.
        let mut map_ns = Vec::new();
        for &cost in &crossing_costs {
            stats::set_crossing_cost_ns(cost);
            let t0 = Instant::now();
            for _ in 0..iters {
                fill(private);
                mapping_round(private, w1_desc, &mut w2, 8, nv);
            }
            map_ns.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
        stats::set_crossing_cost_ns(0);

        let winner = if copy_ns < map_ns[2] {
            "copying"
        } else {
            "mapping"
        };
        t.row(&[
            nv.to_string(),
            format!("{copy_ns:.0}"),
            format!("{:.0}", map_ns[0]),
            format!("{:.0}", map_ns[1]),
            format!("{:.0}", map_ns[2]),
            format!("{:.0}", map_ns[3]),
            winner.into(),
        ]);
    }
    t.emit("ablation_transferal");

    let snap = arena.crossings().snapshot();
    println!(
        "total simulated kernel crossings this run: {}",
        snap.total_crossings()
    );
    println!(
        "\nReading: with few views (the common case, per §7) copying beats mapping as\n\
         soon as kernel crossings cost anything realistic; mapping only wins when a\n\
         transferal carries hundreds of views AND crossings are cheap."
    );
}
