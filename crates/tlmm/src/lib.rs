//! # cilkm-tlmm — a user-space simulation of TLMM-Linux
//!
//! Thread-local memory mapping (TLMM) is the operating-system substrate of
//! Cilk-M (Lee et al., PACT 2010; Lee, Shafi, Leiserson, SPAA 2012 §4). It
//! designates one region of a process's virtual address space as *private*:
//! the region occupies the same virtual-address range in every thread, but
//! each thread may map different physical pages into it, while the rest of
//! the address space stays shared as usual. The original system is a Linux
//! kernel modification that gives each thread its own root page directory
//! and exposes three system calls:
//!
//! * `sys_palloc` — allocate a physical page; returns a *page descriptor*
//!   (analogous to a file descriptor) that names the page process-wide;
//! * `sys_pfree` — free a page descriptor and its physical page;
//! * `sys_pmap`  — map an array of page descriptors at consecutive
//!   page-aligned virtual addresses starting at a base address inside the
//!   calling thread's TLMM region; the special descriptor [`PD_NULL`]
//!   removes a mapping.
//!
//! A stock kernel cannot express "same virtual address, different physical
//! page, same process", so this crate *simulates* the mechanism in user
//! space while preserving the interface and the cost shape that the SPAA
//! 2012 evaluation depends on:
//!
//! * [`PageArena`] plays the role of the kernel's physical-page allocator:
//!   it owns page-aligned 4-KByte pages and hands out [`PageDesc`]
//!   descriptors valid across all threads ([`PageArena::palloc`] /
//!   [`PageArena::pfree`]).
//! * [`TlmmRegion`] plays the role of one thread's private region: a table
//!   from region page index to page descriptor, updated by
//!   [`TlmmRegion::pmap`]. "Hardware address translation" is simulated by a
//!   per-region flat array of page base pointers, so resolving a
//!   [`TlmmAddr`] costs one indexed load — the analogue of a TLB hit.
//! * Every simulated kernel entry (`palloc`/`pfree`/`pmap`) bumps the
//!   arena's [`stats`] counters, so a probe can count the crossings
//!   behind §5's "too many `sys_pmap` calls become a scalability
//!   bottleneck" argument.
//!
//! No reducer path calls `palloc`, `pmap` or `pfree`: each worker reaches
//! its views through one page array of its own (DESIGN.md §4), so a
//! pool's crossing counters read 0.
//!
//! Memory inside a mapped page is exposed as raw pointers: the same page
//! may legitimately be mapped by several regions at once (that is the whole
//! point of publishing page descriptors), so Rust references would be
//! unsound to hand out wholesale. Callers (the probes and ablation
//! programs that exercise the simulation; the `cilkm-core` reducer
//! backends keep their SPA maps elsewhere) are responsible for ensuring
//! exclusive access through their own protocol, exactly as the Cilk-M
//! runtime is.

#![deny(missing_docs)]

mod arena;
mod region;
pub mod stats;

pub use arena::{PageArena, PageArenaStats};
pub use region::{TlmmAddr, TlmmRegion};

/// Size in bytes of one simulated physical page (x86-64 small page).
pub const PAGE_SIZE: usize = 4096;

/// A process-wide name for a simulated physical page.
///
/// Page descriptors are the TLMM analogue of file descriptors (§4): any
/// thread that learns a descriptor may map the underlying physical page
/// into its own region with [`TlmmRegion::pmap`]. Descriptors are small
/// copyable integers; [`PD_NULL`] is the distinguished "unmap" value.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct PageDesc(pub(crate) u32);

/// The distinguished page descriptor that requests removal of a mapping.
///
/// Passing `PD_NULL` at position *i* of a [`TlmmRegion::pmap`] call unmaps
/// the page at `base + i` instead of mapping one, mirroring the special
/// `PD_NULL` value of the TLMM interface.
pub const PD_NULL: PageDesc = PageDesc(u32::MAX);

impl PageDesc {
    /// Returns `true` if this is the [`PD_NULL`] unmap request.
    #[inline]
    pub fn is_null(self) -> bool {
        self == PD_NULL
    }

    /// Raw integer value (for logs and tests).
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}
