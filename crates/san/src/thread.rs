//! Instrumented thread spawn/join/park, mirroring the subset of
//! `std::thread` the runtime's `msync` facade re-exports.
//!
//! Spawning threads through here is what gives the sanitizer its
//! thread identity and fork/join happens-before edges: the parent
//! pre-allocates the child's sanitizer id with an inherited clock
//! snapshot *before* the OS thread exists (so the child's first hook
//! already knows everything the parent knew), and a drop guard in the
//! child publishes its final clock for the joiner even if it unwinds.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::state;
use cilkm_base::VClock;

/// A handle to an instrumented thread (sanitizer id + real handle).
#[derive(Clone, Debug)]
pub struct Thread {
    real: std::thread::Thread,
    tid: u32,
}

impl Thread {
    /// Unparks the thread, releasing the caller's clock into the
    /// target's park token first so the wakeup is a visible
    /// happens-before edge.
    pub fn unpark(&self) {
        state::unpark(self.tid);
        self.real.unpark();
    }

    /// The thread's name, if it was spawned with one.
    pub fn name(&self) -> Option<&str> {
        self.real.name()
    }
}

/// The calling thread's instrumented handle.
pub fn current() -> Thread {
    Thread {
        real: std::thread::current(),
        tid: state::current_tid(),
    }
}

/// Parks the calling thread for at most `dur`, then acquires from its
/// own park token (joining the clock of whoever unparked it).
pub fn park_timeout(dur: Duration) {
    std::thread::park_timeout(dur);
    state::park_wake();
}

/// Cooperative yield; no happens-before effect.
pub fn yield_now() {
    std::thread::yield_now();
}

/// Handle for joining an instrumented thread; `join` absorbs the
/// child's final clock so everything it did happens-before the joiner.
#[derive(Debug)]
pub struct JoinHandle<T> {
    real: std::thread::JoinHandle<T>,
    thread: Thread,
    final_vc: Arc<Mutex<Option<VClock>>>,
}

impl<T> JoinHandle<T> {
    /// Waits for the thread to finish and joins its final clock.
    pub fn join(self) -> std::thread::Result<T> {
        let result = self.real.join();
        state::join_final(&self.final_vc);
        result
    }

    /// The instrumented handle of the spawned thread.
    pub fn thread(&self) -> &Thread {
        &self.thread
    }

    /// Whether the thread has finished running.
    pub fn is_finished(&self) -> bool {
        self.real.is_finished()
    }
}

/// Publishes the child's final clock on scope exit — including unwinds,
/// so a panicking worker still hands its history to the joiner.
struct FinalizeGuard {
    tid: u32,
    slot: Arc<Mutex<Option<VClock>>>,
}

impl Drop for FinalizeGuard {
    fn drop(&mut self) {
        state::publish_final(self.tid, &self.slot);
    }
}

/// Spawns an instrumented thread with an optional name and stack size
/// (the same shape as `cilkm_checker::thread::spawn_with`).
pub fn spawn_with<F, T>(name: Option<String>, stack_size: Option<usize>, f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let child = state::prepare_child();
    let slot = Arc::new(Mutex::new(None));
    let child_slot = Arc::clone(&slot);
    let mut builder = std::thread::Builder::new();
    if let Some(name) = name {
        builder = builder.name(name);
    }
    if let Some(size) = stack_size {
        builder = builder.stack_size(size);
    }
    let real = builder
        .spawn(move || {
            state::adopt(child);
            let _finalize = FinalizeGuard {
                tid: child,
                slot: child_slot,
            };
            f()
        })
        .expect("failed to spawn thread");
    let thread = Thread {
        real: real.thread().clone(),
        tid: child,
    };
    JoinHandle {
        real,
        thread,
        final_vc: slot,
    }
}

/// Spawns an instrumented thread with defaults (convenience used by
/// the sanitizer's own tests).
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    spawn_with(None, None, f)
}
