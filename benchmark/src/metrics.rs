//! The metric registry: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` names the same metrics (a test holds
//! the two together).

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics: measured in the gated pass, tracing and
/// `instrument` compiled out. Every workload reports all of them.
/// `failed_share` is not listed: it is zero on a correct run, and the
/// result line carries it as `failed` over `attempted`. The tail,
/// `rep_p95_us`, was demoted to `harness.rep_p95_us` by the A/A
/// calibration (see the README).
pub const END_TO_END: &[Metric] = &[
    m("throughput", "1/s", Higher),
    m("rep_p50_us", "us", Lower),
    m("speedup_vs_serial", "ratio", Higher),
    m("setup_s", "s", Lower),
    m("peak_rss_mb", "MB", Lower),
];

/// Probes: workload-independent unit costs, one layer each.
pub const PROBES: &[Metric] = &[
    m("tlmm.palloc_pfree_ns", "ns", Lower),
    m("tlmm.palloc_batch16_ns", "ns", Lower),
    m("tlmm.pmap_ns", "ns", Lower),
    m("tlmm.pmap_scatter16_ns", "ns", Lower),
    m("tlmm.resolve_ns", "ns", Lower),
    m("spa.insert_ns", "ns", Lower),
    m("spa.get_ns", "ns", Lower),
    m("spa.drain_into_dense_ns_per_view", "ns", Lower),
    m("spa.drain_into_sparse_ns_per_view", "ns", Lower),
    m("spa.for_each_valid_overflow_ns_per_view", "ns", Lower),
    m("spa.generic_accumulate_ns", "ns", Lower),
    m("runtime.join_inline_ns", "ns", Lower),
    m("runtime.region_ns", "ns", Lower),
    m("runtime.parallel_for_leaf_ns", "ns", Lower),
    m("runtime.forced_steal_ns", "ns", Lower),
    m("runtime.deque_push_pop_ns", "ns", Lower),
    m("runtime.deque_steal_ns", "ns", Lower),
    m("core.lookup_hit_ns", "ns", Lower),
    m("core.lookup_alt_ns", "ns", Lower),
    m("core.l1_baseline_ns", "ns", Lower),
    m("core.lookup_hit_x_l1", "ratio", Lower),
    m("core.lookup_alt_x_l1", "ratio", Lower),
    m("core.hypermap_lookup_hit_ns", "ns", Lower),
    m("core.hypermap_lookup_alt_ns", "ns", Lower),
    m("core.hypermap_lookup_alt_x_l1", "ratio", Lower),
    m("core.first_touch_ns", "ns", Lower),
    m("core.reducer_new_drop_ns", "ns", Lower),
    m("core.take_set_ns", "ns", Lower),
    m("graph.bag_insert_ns", "ns", Lower),
    m("graph.bag_union_ns", "ns", Lower),
    m("graph.bag_walk_ns_per_item", "ns", Lower),
    m("graph.bfs_serial_ns_per_edge", "ns", Lower),
];

/// Short, ungated runs of two workloads on `Backend::Hypermap`: the
/// comparator the paper measures the mechanism against.
pub const COMPARATORS: &[Metric] = &[
    m("core.hypermap_add1024_throughput", "1/s", Higher),
    m("core.hypermap_steal_sparse_rep_p50_us", "us", Lower),
];

/// Per-workload counters, read in the traced pass over its timed reps
/// from the program's public statistics.
pub const COUNTERS: &[Metric] = &[
    m("runtime.steals", "count", Lower),
    m("runtime.steal_attempts", "count", Lower),
    m("runtime.failed_steals", "count", Lower),
    m("runtime.steal_success_ratio", "ratio", Higher),
    m("runtime.parks", "count", Lower),
    m("runtime.wakes", "count", Lower),
    m("runtime.jobs_executed", "count", Lower),
    m("runtime.inline_joins", "count", Higher),
    m("runtime.stolen_joins", "count", Lower),
    m("runtime.deque_hwm", "count", Lower),
    m("runtime.cpu_per_wall", "ratio", Lower),
    m("core.lookups", "count", Lower),
    m("core.view_creations", "count", Lower),
    m("core.view_creation_ns", "ns", Lower),
    m("core.view_insertions", "count", Lower),
    m("core.view_insertion_ns", "ns", Lower),
    m("core.transferals", "count", Lower),
    m("core.transferal_views", "count", Lower),
    m("core.transferal_copied_views", "count", Lower),
    m("core.transferal_exchanged_pages", "count", Lower),
    m("core.transferal_cpu_ns", "ns", Lower),
    m("core.transferal_wall_p50_ns", "ns", Lower),
    m("core.transferal_wall_p99_ns", "ns", Lower),
    m("core.merges", "count", Lower),
    m("core.merge_pairs", "count", Lower),
    m("core.merge_ns", "ns", Lower),
    m("core.log_overflows", "count", Lower),
    m("core.reduce_overhead_ns", "ns", Lower),
    m("core.reduce_overhead_ns_per_steal", "ns", Lower),
    m("core.views_per_steal", "ratio", Lower),
    m("tlmm.palloc_calls", "count", Lower),
    m("tlmm.pfree_calls", "count", Lower),
    m("tlmm.pmap_calls", "count", Lower),
    m("tlmm.pmap_pages", "count", Lower),
    m("tlmm.crossings", "count", Lower),
    m("tlmm.crossings_per_steal", "ratio", Lower),
    m("tlmm.live_pages", "count", Lower),
    m("obs.work_ns", "ns", Lower),
    m("obs.span_ns", "ns", Lower),
    m("obs.burdened_span_ns", "ns", Lower),
    m("obs.parallelism", "ratio", Higher),
    m("obs.burden_creation_ns", "ns", Lower),
    m("obs.burden_insertion_ns", "ns", Lower),
    m("obs.burden_transferal_ns", "ns", Lower),
    m("obs.burden_exchange_ns", "ns", Lower),
    m("obs.burden_hypermerge_ns", "ns", Lower),
    m("obs.trace_dropped", "count", Lower),
    m("graph.pbfs_layers", "count", Lower),
    m("graph.pbfs_lookups", "count", Lower),
    m("harness.rep_count", "count", Higher),
    m("harness.rep_cv", "ratio", Lower),
    m("harness.serial_elision_ns_per_item", "ns", Lower),
    m("harness.input_gen_s", "s", Lower),
    m("harness.timer_overhead_ns", "ns", Lower),
];

/// What the runner takes from the gated pass beside the traced one, or
/// derives from more than one pass.
pub const DERIVED: &[Metric] = &[
    m("harness.rep_p95_us", "us", Lower),
    m("obs.trace_overhead_pct", "%", Lower),
    m("harness.user_share", "ratio", Higher),
    m("harness.lookup_share", "ratio", Lower),
    m("harness.reduce_overhead_share", "ratio", Lower),
    m("harness.residual_share", "ratio", Lower),
    m("harness.counts_exact", "count", Higher),
];

/// The counts that repeat exactly on the steal workloads: so many per
/// round, the same in the gated and the traced pass and in every run.
/// These are the only counts a later change may rest a claim on.
pub const EXACT_ON_STEAL: &[&str] = &[
    "runtime.stolen_joins",
    "core.view_creations",
    "core.transferals",
    "core.transferal_views",
    "core.transferal_copied_views",
    "core.transferal_exchanged_pages",
    "core.merges",
    "core.merge_pairs",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::workloads::NAMES;

    /// Every per-layer metric, in the order the runner prints them.
    fn per_layer() -> impl Iterator<Item = &'static Metric> {
        PROBES
            .iter()
            .chain(COMPARATORS)
            .chain(COUNTERS)
            .chain(DERIVED)
    }

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap()
    }

    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|e| {
                let s = |k: &str| e.get(k).and_then(Value::as_str).unwrap().to_owned();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn registered<'a>(ms: impl Iterator<Item = &'a Metric>) -> Vec<(String, String, String)> {
        ms.map(|m| {
            let better = match m.better {
                Better::Higher => "higher",
                Better::Lower => "lower",
            };
            (m.name.to_owned(), m.unit.to_owned(), better.to_owned())
        })
        .collect()
    }

    #[test]
    fn benchmark_json_names_the_same_metrics_and_workloads() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), registered(END_TO_END.iter()));
        assert_eq!(listed(&doc, "per_layer"), registered(per_layer()));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, NAMES);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(per_layer())
            .map(|m| m.name)
            .collect();
        assert!(names.len() - END_TO_END.len() <= 128);
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + per_layer().count());
        for e in EXACT_ON_STEAL {
            assert!(
                COUNTERS.iter().any(|m| m.name == *e),
                "{e} is not a counter"
            );
        }
    }
}
