//! Kernel-crossing counters for simulated crossings.
//!
//! The SPAA 2012 paper argues (§5) that a naive TLMM reducer design — one
//! that stores views directly in the TLMM region — would need many
//! `sys_pmap` calls per steal, and that "if the number of `sys_pmap` calls
//! is too great, the kernel crossing overhead can become a scalability
//! bottleneck". The counters here let a probe observe exactly how many
//! simulated crossings it performs. No reducer path crosses the simulated
//! kernel, so a pool's counters read 0.
//!
//! Accounting is **per domain**: every [`crate::PageArena`] (one per
//! reducer domain) owns a [`CrossingCounters`], so concurrent domains and
//! benchmark phases cannot bleed into each other's numbers. Every consumer
//! reads [`CrossingCounters::snapshot`] through
//! [`crate::PageArena::crossings`].

use cilkm_obs::metrics::Counter;

/// A snapshot of one domain's kernel-crossing counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CrossingSnapshot {
    /// `sys_palloc` calls.
    pub palloc_calls: u64,
    /// Individual pages allocated by `palloc` calls (a batched call
    /// allocates many pages for one crossing, per the §4 batching
    /// argument).
    pub palloc_pages: u64,
    /// `sys_pfree` calls.
    pub pfree_calls: u64,
    /// `sys_pmap` calls.
    pub pmap_calls: u64,
    /// Individual page table entries touched by `pmap` calls.
    pub pmap_pages: u64,
}

impl CrossingSnapshot {
    /// Total simulated user/kernel round trips (each call is one crossing
    /// pair: user mode to kernel mode and back, per §5).
    pub fn total_crossings(&self) -> u64 {
        self.palloc_calls + self.pfree_calls + self.pmap_calls
    }

    /// Counter-wise difference `self - earlier` (for measuring a window).
    pub fn since(&self, earlier: &CrossingSnapshot) -> CrossingSnapshot {
        CrossingSnapshot {
            palloc_calls: self.palloc_calls - earlier.palloc_calls,
            palloc_pages: self.palloc_pages - earlier.palloc_pages,
            pfree_calls: self.pfree_calls - earlier.pfree_calls,
            pmap_calls: self.pmap_calls - earlier.pmap_calls,
            pmap_pages: self.pmap_pages - earlier.pmap_pages,
        }
    }
}

/// Per-domain kernel-crossing counters.
///
/// One instance lives on each [`crate::PageArena`] (reducer domains each
/// own an arena), so crossing counts can be attributed to the domain that
/// caused them. The `charge_*` methods are the only charge sites in the
/// crate.
#[derive(Debug, Default)]
pub struct CrossingCounters {
    palloc_calls: Counter,
    palloc_pages: Counter,
    pfree_calls: Counter,
    pmap_calls: Counter,
    pmap_pages: Counter,
}

impl CrossingCounters {
    /// Fresh zeroed counters.
    pub const fn new() -> CrossingCounters {
        CrossingCounters {
            palloc_calls: Counter::new(),
            palloc_pages: Counter::new(),
            pfree_calls: Counter::new(),
            pmap_calls: Counter::new(),
            pmap_pages: Counter::new(),
        }
    }

    /// Reads this domain's counters.
    pub fn snapshot(&self) -> CrossingSnapshot {
        CrossingSnapshot {
            palloc_calls: self.palloc_calls.get(),
            palloc_pages: self.palloc_pages.get(),
            pfree_calls: self.pfree_calls.get(),
            pmap_calls: self.pmap_calls.get(),
            pmap_pages: self.pmap_pages.get(),
        }
    }

    /// Charges one simulated `sys_palloc` crossing.
    #[inline]
    pub fn charge_palloc(&self) {
        self.palloc_calls.inc();
        self.palloc_pages.inc();
    }

    /// Charges one simulated batched `sys_palloc` crossing allocating
    /// `pages` pages (one crossing regardless of the batch size — the §4
    /// batching argument, same as [`CrossingCounters::charge_pmap`]).
    #[inline]
    pub fn charge_palloc_batch(&self, pages: u64) {
        self.palloc_calls.inc();
        self.palloc_pages.add(pages);
    }

    /// Charges one simulated `sys_pfree` crossing.
    #[inline]
    pub fn charge_pfree(&self) {
        self.pfree_calls.inc();
    }

    /// Charges one simulated `sys_pmap` crossing touching `pages` page
    /// table entries (one crossing regardless of the batch size — the §4
    /// batching argument).
    #[inline]
    pub fn charge_pmap(&self, pages: u64) {
        self.pmap_calls.inc();
        self.pmap_pages.add(pages);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_since_subtracts_componentwise() {
        let a = CrossingSnapshot {
            palloc_calls: 10,
            palloc_pages: 40,
            pfree_calls: 4,
            pmap_calls: 7,
            pmap_pages: 70,
        };
        let b = CrossingSnapshot {
            palloc_calls: 3,
            palloc_pages: 12,
            pfree_calls: 1,
            pmap_calls: 2,
            pmap_pages: 20,
        };
        let d = a.since(&b);
        assert_eq!(d.palloc_calls, 7);
        assert_eq!(d.palloc_pages, 28);
        assert_eq!(d.pfree_calls, 3);
        assert_eq!(d.pmap_calls, 5);
        assert_eq!(d.pmap_pages, 50);
        assert_eq!(d.total_crossings(), 15);
    }

    #[test]
    fn per_domain_counters_do_not_bleed_into_each_other() {
        let a = crate::PageArena::new();
        let b = crate::PageArena::new();
        let pd = a.palloc();
        a.pfree(pd);
        let mut region_b = crate::TlmmRegion::new(std::sync::Arc::new(crate::PageArena::new()));
        let pd_b = region_b.arena().palloc();
        region_b.pmap(0, &[pd_b]);

        let sa = a.crossings().snapshot();
        assert_eq!(sa.palloc_calls, 1);
        assert_eq!(sa.palloc_pages, 1);
        assert_eq!(sa.pfree_calls, 1);
        assert_eq!(sa.pmap_calls, 0, "domain A never pmapped");

        assert_eq!(b.crossings().snapshot(), CrossingSnapshot::default());

        let sb = region_b.arena().crossings().snapshot();
        assert_eq!(sb.palloc_calls, 1);
        assert_eq!(sb.pmap_calls, 1);
        assert_eq!(sb.pmap_pages, 1);
    }

    #[test]
    fn charge_increments_calls_and_pages() {
        let counters = CrossingCounters::new();
        counters.charge_pmap(3);
        counters.charge_palloc_batch(5);
        let s = counters.snapshot();
        assert_eq!(s.pmap_calls, 1);
        assert_eq!(s.pmap_pages, 3);
        assert_eq!(s.palloc_calls, 1, "a batched palloc is one crossing");
        assert_eq!(s.palloc_pages, 5);
    }
}
