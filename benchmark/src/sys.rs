//! What the harness reads from the operating system: processor count,
//! peak resident set, process CPU time, and the cost of its own timer.

use std::time::{Duration, Instant};

use crate::stats::median;

/// Worker count of every pool the benchmark builds. Fixed so runs compare;
/// the runner refuses hosts with fewer processors.
pub const P: usize = 2;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `nproc >= 2` precondition every pass checks first.
pub fn require_processors() -> Result<(), String> {
    let n = nproc();
    if n < P {
        return Err(format!(
            "invalid: nproc is {n}, the benchmark needs {P} processors for P={P}"
        ));
    }
    Ok(())
}

// The two foreign calls the harness makes; std already links libc.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words in an affinity mask: room for 1024 processors, as glibc has.
const MASK_WORDS: usize = 16;

/// The processors this process may run on, ascending.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: pid 0 is the calling thread, and `mask` is a writable
    // buffer of exactly the byte length passed.
    let rc = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok((0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Pins the calling thread to processor `cpu`.
pub fn pin_current_thread(cpu: usize) -> Result<(), String> {
    let mut mask = [0u64; MASK_WORDS];
    *mask
        .get_mut(cpu / 64)
        .ok_or_else(|| format!("processor {cpu} is beyond the affinity mask"))? |= 1 << (cpu % 64);
    // SAFETY: pid 0 is the calling thread, and `mask` is a readable
    // buffer of exactly the byte length passed.
    let rc = unsafe { sched_setaffinity(0, size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity({cpu}): {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// CPU time consumed by all threads of this process, in nanoseconds
/// (the first field of each task's `schedstat`).
pub fn process_cpu_ns() -> Result<u64, String> {
    let tasks = std::fs::read_dir("/proc/self/task")
        .map_err(|e| format!("reading /proc/self/task: {e}"))?;
    let mut total = 0u64;
    for task in tasks.flatten() {
        // A thread may exit between the listing and the read; its time
        // is then simply not counted.
        if let Ok(text) = std::fs::read_to_string(task.path().join("schedstat")) {
            total += text
                .split_whitespace()
                .next()
                .and_then(|f| f.parse::<u64>().ok())
                .ok_or_else(|| format!("unparseable schedstat {text:?}"))?;
        }
    }
    Ok(total)
}

/// What an empty timing bracket (`Instant::now()` then `elapsed()`)
/// reads, median of 15 batches: the floor under every rep sample, and
/// what the probes take off operations they time one by one.
pub fn timer_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..15)
        .map(|_| {
            const BRACKETS: u32 = 10_000;
            let mut read = Duration::ZERO;
            for _ in 0..BRACKETS {
                read += std::hint::black_box(Instant::now()).elapsed();
            }
            read.as_nanos() as f64 / f64::from(BRACKETS)
        })
        .collect();
    median(&samples)
}
