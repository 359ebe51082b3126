//! Offline stand-in for the `libc` crate: just the symbols this
//! workspace uses, declared directly against the platform C library:
//! `clock_gettime` (with `CLOCK_THREAD_CPUTIME_ID`), `sched_getcpu`, and
//! the anonymous `mmap`/`munmap` that reserve each memory-mapped
//! worker's slot space.

#![allow(
    non_camel_case_types,
    reason = "C type names, kept as libc spells them"
)]

/// Signed integral type for time in seconds.
pub type time_t = i64;
/// Signed integral C `long`.
pub type c_long = i64;
/// Clock identifier for the `clock_*` family.
pub type clockid_t = i32;
/// C `int`.
pub type c_int = i32;
/// C `size_t`.
pub type size_t = usize;
/// C `off_t` (64-bit targets).
pub type off_t = i64;
/// C `void`, behind pointers only.
pub use std::ffi::c_void;

/// Per-thread CPU-time clock (Linux value; identical on the targets this
/// repo supports).
pub const CLOCK_THREAD_CPUTIME_ID: clockid_t = 3;
/// Monotonic clock.
pub const CLOCK_MONOTONIC: clockid_t = 1;

/// Pages may be read.
pub const PROT_READ: c_int = 1;
/// Pages may be written.
pub const PROT_WRITE: c_int = 2;
/// Changes are private to the mapping process.
pub const MAP_PRIVATE: c_int = 0x02;
/// Not backed by a file; the kernel zero-fills each page on first touch.
pub const MAP_ANONYMOUS: c_int = 0x20;
/// Reserve no swap for the mapping: untouched pages cost address space
/// only.
pub const MAP_NORESERVE: c_int = 0x4000;
/// What `mmap` returns on failure.
pub const MAP_FAILED: *mut c_void = !0 as *mut c_void;

/// `struct timespec`.
#[repr(C)]
#[derive(Copy, Clone, Debug, Default)]
pub struct timespec {
    /// Whole seconds.
    pub tv_sec: time_t,
    /// Nanoseconds within the second.
    pub tv_nsec: c_long,
}

extern "C" {
    /// Reads `clk_id` into `tp`. Returns 0 on success.
    pub fn clock_gettime(clk_id: clockid_t, tp: *mut timespec) -> c_int;
    /// Maps `len` bytes; with `MAP_ANONYMOUS`, `fd` is -1 and `offset`
    /// 0. Returns the mapping's address, or [`MAP_FAILED`].
    pub fn mmap(
        addr: *mut c_void,
        len: size_t,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: off_t,
    ) -> *mut c_void;
    /// Unmaps `len` bytes at `addr`. Returns 0 on success.
    pub fn munmap(addr: *mut c_void, len: size_t) -> c_int;
}

#[cfg(target_os = "linux")]
extern "C" {
    /// Returns the CPU the calling thread is running on, or -1 on error
    /// (glibc: a vDSO/rseq read, a few nanoseconds). Linux-only; other
    /// targets get no declaration so callers must cfg-gate their use.
    pub fn sched_getcpu() -> c_int;
}

#[cfg(all(test, target_os = "linux", not(miri)))]
mod sched_tests {
    #[test]
    fn sched_getcpu_reports_a_cpu() {
        // SAFETY: no arguments, no preconditions; returns -1 on error.
        let cpu = unsafe { super::sched_getcpu() };
        assert!(cpu >= 0, "sched_getcpu failed: {cpu}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cputime_clock_ticks() {
        let mut a = timespec::default();
        // SAFETY: passes a valid, writable `timespec` out-pointer.
        let ra = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut a) };
        assert_eq!(ra, 0);
        let mut x = 0u64;
        for i in 0..500_000u64 {
            x = x.wrapping_add(i).rotate_left(7);
        }
        std::hint::black_box(x);
        let mut b = timespec::default();
        // SAFETY: as above.
        let rb = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut b) };
        assert_eq!(rb, 0);
        let ns = |t: &timespec| t.tv_sec as u128 * 1_000_000_000 + t.tv_nsec as u128;
        assert!(ns(&b) >= ns(&a));
    }
}
