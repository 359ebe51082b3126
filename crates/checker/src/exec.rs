//! The execution engine: deterministic scheduling, schedule enumeration,
//! a weak-memory store model, and happens-before race detection.
//!
//! # How a model run works
//!
//! [`try_model_with`] runs the closure repeatedly, once per *schedule*.
//! Every model thread is a real OS thread, but exactly one is ever
//! runnable: threads hand a baton to each other through
//! [`Exec::yield_point`], which consults the schedule trace. Each
//! execution replays a recorded prefix of decisions and extends it with
//! first-choice defaults; after the execution the enumerator backtracks
//! the deepest decision that still has unexplored alternatives (DFS over
//! the schedule tree), bounded by a CHESS-style preemption budget.
//!
//! # Weak memory
//!
//! Atomics are simulated, not executed: every store is kept in a
//! per-location history tagged with the storing thread's vector clock,
//! and a load *chooses* among the stores that are coherence-legal for
//! the loading thread. A `Relaxed` load can therefore return a stale
//! value — exactly the class of bug (PR 1's lost wakeup) this checker
//! exists to catch. `Acquire`/`Release`/`SeqCst` edges and fences join
//! vector clocks the usual way, which in turn shrinks the set of stores
//! later loads may observe.
//!
//! # Failure propagation
//!
//! Any failure (assertion in user code, detected data race, deadlock,
//! livelock bound) is recorded in the shared state; every other thread
//! aborts at its next yield point by panicking with the private
//! [`ModelAbort`] payload, which a panic-hook filter keeps silent.

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar as OsCondvar, Mutex as OsMutex, MutexGuard as OsMutexGuard, Once};

use cilkm_base::VClock;

/// Which exploration engine drives a model run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Exhaustive depth-first enumeration of the schedule tree — the
    /// original engine. Sound and complete within the configured bounds,
    /// but exponential in the number of dependent *and independent*
    /// operations alike.
    Dfs,
    /// Sleep-set dynamic partial-order reduction: exhaustive over
    /// Mazurkiewicz traces, but backtracks only at dependent-transition
    /// points (same atomic location with at least one write, same sync
    /// object) and carries sleep sets so interleavings equivalent to an
    /// explored one are pruned instead of re-executed.
    Dpor,
}

impl Engine {
    /// Short stable name, used as the stats-report key.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Engine::Dfs => "dfs",
            Engine::Dpor => "dpor",
        }
    }
}

/// Schedules explored before a run is declared (incompletely) passed.
pub(crate) const MAX_SCHEDULES: usize = 100_000;
/// Visible operations in a single execution; tripping it fails the run
/// (livelock / unbounded spin under the model).
const MAX_STEPS: usize = 20_000;
/// Threads per execution, main included (model bookkeeping is O(n)).
const MAX_THREADS: usize = 8;
/// Consecutive stale reads of one location a thread may perform before
/// the eventual-visibility rule forces it onto the newest visible store
/// (see `op_atomic_load`).
const STALE_READ_BOUND: u32 = 2;

/// Tuning knobs for one model run.
#[derive(Clone, Debug)]
pub struct Config {
    /// CHESS-style bound on *involuntary* context switches per
    /// execution. `None` explores every interleaving (feasible for tiny
    /// tests under [`Engine::Dfs`], and for much larger ones under
    /// [`Engine::Dpor`]). Voluntary switches (yield/park/block) are
    /// always free.
    pub preemptions: Option<usize>,
    /// The exploration engine to drive schedules with.
    pub engine: Engine,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            preemptions: Some(3),
            engine: Engine::Dfs,
        }
    }
}

impl Config {
    /// The scaled-up exhaustive mode: sleep-set DPOR with the preemption
    /// bound removed (the reduction, not the bound, contains the tree).
    pub fn dpor() -> Config {
        Config {
            engine: Engine::Dpor,
            preemptions: None,
        }
    }
}

/// Why a model run failed, plus enough detail to replay it by hand.
#[derive(Clone, Debug)]
pub struct ModelError {
    /// Human-readable description (panic message, race report, deadlock).
    pub message: String,
    /// The decision trace of the failing schedule (choice index at each
    /// decision point), for deterministic replay while debugging.
    pub schedule: Vec<usize>,
    /// How many schedules had been explored when the failure surfaced.
    pub schedules_explored: usize,
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "model failure after {} schedule(s): {}\n  failing schedule: {:?}",
            self.schedules_explored, self.message, self.schedule
        )
    }
}

impl std::error::Error for ModelError {}

/// Summary of a passing model run.
#[derive(Clone, Copy, Debug)]
pub struct Report {
    /// Number of distinct schedules executed.
    pub schedules: usize,
    /// True when the schedule tree was exhausted (within the preemption
    /// bound); false when the schedule cap cut exploration short.
    pub complete: bool,
    /// Sibling subtrees the DPOR engine skipped as redundant (0 for
    /// DFS): unexplored scheduling alternatives proven
    /// equivalent to an explored interleaving, counted once per skipped
    /// branch point, not per schedule underneath it.
    pub pruned: usize,
    /// Distinct dependence classes (atomic locations written, plain
    /// locations, mutexes, park tokens) the run touched.
    pub dependence_classes: usize,
    /// Maximum visible-operation depth over all executed schedules.
    pub max_depth: usize,
}

/// The kind of visible operation a step performs, at the granularity the
/// dependence relation needs. Recorded per step so the DPOR engine can
/// decide which pairs of transitions could have changed the outcome by
/// swapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Access {
    /// Atomic load; `sc` marks SeqCst (participates in the global SC
    /// order, hence dependent with every other SC access).
    AtomicLoad {
        /// Location address.
        addr: usize,
        /// SeqCst?
        sc: bool,
    },
    /// Atomic store, RMW, or CAS (anything that may append to the store
    /// history; classified as a write conservatively).
    AtomicStore {
        /// Location address.
        addr: usize,
        /// SeqCst?
        sc: bool,
    },
    /// A fence. Non-SC fences only order the issuing thread's own
    /// accesses (which are steps themselves), so they are independent of
    /// everything; SC fences join the global SC clock.
    Fence {
        /// SeqCst?
        sc: bool,
    },
    /// Plain (non-atomic) read reported to the race detector.
    PlainRead {
        /// Location address.
        addr: usize,
    },
    /// Plain (non-atomic) write reported to the race detector.
    PlainWrite {
        /// Location address.
        addr: usize,
    },
    /// Any model-mutex operation (lock/unlock) on one mutex.
    Mutex {
        /// Mutex address.
        addr: usize,
    },
    /// `thread::park` (the parking thread is the step's tid).
    Park,
    /// `unpark(target)`.
    Unpark {
        /// The parked-or-parking thread being woken.
        target: usize,
    },
    /// Thread spawn (dependent with other spawns: child ids are
    /// allocated in program order).
    Spawn,
    /// Join: synchronizes via blocking, independent as a transition.
    Join,
}

impl Access {
    /// True when swapping two adjacent steps with these accesses (by
    /// different threads) could change the execution's outcome. The
    /// relation is symmetric and over-approximate: marking an
    /// independent pair dependent only costs pruning, never soundness.
    pub(crate) fn dependent(a_tid: usize, a: Access, b_tid: usize, b: Access) -> bool {
        use Access::*;
        if a_tid == b_tid {
            // Program order already fixes same-thread steps.
            return false;
        }
        // Every SC access participates in the single global SC order.
        let sc_of = |x: Access| match x {
            AtomicLoad { sc, .. } | AtomicStore { sc, .. } | Fence { sc } => sc,
            _ => false,
        };
        if sc_of(a) && sc_of(b) {
            return true;
        }
        match (a, b) {
            (AtomicStore { addr: x, .. }, AtomicStore { addr: y, .. })
            | (AtomicStore { addr: x, .. }, AtomicLoad { addr: y, .. })
            | (AtomicLoad { addr: x, .. }, AtomicStore { addr: y, .. }) => x == y,
            (PlainWrite { addr: x }, PlainWrite { addr: y })
            | (PlainWrite { addr: x }, PlainRead { addr: y })
            | (PlainRead { addr: x }, PlainWrite { addr: y }) => x == y,
            (Mutex { addr: x }, Mutex { addr: y }) => x == y,
            (Park, Unpark { target }) => target == a_tid,
            (Unpark { target }, Park) => target == b_tid,
            (Unpark { target: x }, Unpark { target: y }) => x == y,
            (Spawn, Spawn) => true,
            _ => false,
        }
    }

    /// The dependence class this access belongs to, for the stats
    /// report; `None` for accesses independent of everything.
    pub(crate) fn class(self, tid: usize) -> Option<(u8, usize)> {
        use Access::*;
        match self {
            AtomicLoad { addr, .. } | AtomicStore { addr, .. } => Some((0, addr)),
            PlainRead { addr } | PlainWrite { addr } => Some((1, addr)),
            Mutex { addr } => Some((2, addr)),
            Park => Some((3, tid)),
            Unpark { target } => Some((3, target)),
            Fence { sc: true } => Some((4, 0)),
            Spawn => Some((5, 0)),
            Fence { sc: false } | Join => None,
        }
    }
}

/// What kind of decision a recorded decision point was.
#[derive(Clone, Debug)]
pub(crate) enum DecisionKind {
    /// A yield-point scheduling decision: the DPOR-backtrackable kind.
    /// `cands` is the candidate thread per choice index.
    SchedFree {
        /// Candidate tids, in choice order (current thread first).
        cands: Vec<usize>,
    },
    /// A forced scheduling decision (the current thread blocked or
    /// finished; *someone* else must run). Explored exhaustively by
    /// every engine — wake/acquisition order is decided here.
    SchedForced,
    /// A weak-memory value decision (which store a load observes).
    /// Explored exhaustively by both engines.
    Value,
}

/// One recorded decision of an execution.
#[derive(Clone, Debug)]
pub(crate) struct DecisionRec {
    pub(crate) kind: DecisionKind,
    pub(crate) chosen: usize,
    pub(crate) arity: usize,
}

/// One visible operation (transition) of an execution, as the DPOR
/// analysis sees it.
#[derive(Clone, Debug)]
pub(crate) struct StepRec {
    /// Executing thread.
    pub(crate) tid: usize,
    /// What the operation touches.
    pub(crate) access: Access,
    /// The thread's clock *before* the op's own synchronization joins
    /// (after the program-order bump), so `stamp_i <= clock_j[tid_i]`
    /// witnesses happens-before through intermediate steps only.
    pub(crate) clock: VClock,
    /// `clock[tid]` — this step's own timestamp.
    pub(crate) stamp: u32,
    /// Index of the [`DecisionKind::SchedFree`] decision that scheduled
    /// this op, or `usize::MAX` when it was forced/unrecorded.
    pub(crate) sched: usize,
    /// Number of decisions recorded before this step executed.
    pub(crate) ndecisions: usize,
}

/// Everything one execution leaves behind for its engine.
pub(crate) struct RunOutcome {
    pub(crate) decisions: Vec<DecisionRec>,
    pub(crate) steps: Vec<StepRec>,
    pub(crate) schedule: Vec<usize>,
    pub(crate) failure: Option<String>,
}

/// Panic payload used to tear down model threads once a failure is
/// recorded. Filtered out of the default panic hook so aborts are quiet.
pub(crate) struct ModelAbort;

/// What a thread is blocked on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Block {
    /// Waiting to acquire the model mutex at this address.
    Mutex(usize),
    /// Parked (`thread::park`) without a pending token.
    Park,
    /// Joining the given thread.
    Join(usize),
    /// Main thread draining: waiting for every spawned thread to finish.
    Drain,
}

/// Scheduler state of one model thread.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Run {
    /// Currently holds the baton (at most one thread at a time).
    Active,
    /// Ready to run when scheduled.
    Runnable,
    /// Blocked until another thread wakes it.
    Blocked(Block),
    /// Body returned (or never will run again).
    Finished,
}

/// One store in a location's history.
#[derive(Clone, Debug)]
struct Store {
    /// Globally unique, monotonically increasing store id (coherence
    /// order within a location is id order).
    seq: u64,
    /// Storing thread, or `usize::MAX` for the initial value.
    tid: usize,
    /// The storing thread's own clock component at the store, used for
    /// the happens-before visibility floor.
    stamp: u32,
    /// Stored value, widened to u64.
    value: u64,
    /// Clock released by this store: the full clock for
    /// `Release`/`SeqCst` stores, the clock at the last release fence
    /// for `Relaxed` stores.
    published: VClock,
}

/// Modeled history of one atomic location.
#[derive(Default, Debug)]
struct Location {
    stores: Vec<Store>,
}

/// Epoch state of one plain (non-atomic) location for race detection.
#[derive(Default, Debug)]
struct PlainMem {
    /// Last write: (thread, that thread's clock component at the write).
    writer: Option<(usize, u32)>,
    /// Reads since the last write, as a clock.
    readers: VClock,
}

/// State of one model mutex.
#[derive(Default, Debug)]
struct MutexState {
    locked_by: Option<usize>,
    /// Clock released by the last unlock (joined on acquire).
    clock: VClock,
}

struct ThreadState {
    run: Run,
    name: String,
    /// The thread's vector clock.
    clock: VClock,
    /// Clock at the last release fence (published by Relaxed stores).
    release: VClock,
    /// Accumulated `published` clocks of relaxed-loaded stores; joined
    /// into `clock` at an acquire fence.
    fence_acq: VClock,
    /// Pending `unpark` token.
    park_token: bool,
    /// Clock handed over by the unparker (joined when park returns).
    park_clock: VClock,
    /// Set by `yield_now`: deprioritized until every non-yielded thread
    /// has moved (bounds spin-loop schedule explosion).
    yielded: bool,
    /// Per-location coherence floor: seq of the newest store this thread
    /// has read or written, per address.
    last_read: HashMap<usize, u64>,
    /// Consecutive stale (non-coherence-latest) reads per location, for
    /// the eventual-visibility bound in `op_atomic_load`.
    stale_reads: HashMap<usize, u32>,
}

pub(crate) struct ExecInner {
    threads: Vec<ThreadState>,
    /// Clock of each finished thread (joined by joiners).
    finished: Vec<Option<VClock>>,
    /// Index of the Active thread.
    active: usize,
    /// The decision prefix to replay; past its end, choice 0.
    replay: Vec<usize>,
    /// Decisions actually taken this execution.
    decisions: Vec<DecisionRec>,
    /// Visible operations executed, in order (the DPOR trace).
    steps_log: Vec<StepRec>,
    /// Index of the last free scheduling decision whose chosen thread
    /// has not yet executed its op (consumed by the next step record).
    pending_sched: Option<usize>,
    /// Visible-op counter (livelock bound).
    steps: usize,
    /// Involuntary context switches so far.
    preemptions: usize,
    /// Atomic store histories by address.
    locations: HashMap<usize, Location>,
    /// Plain-memory race-detector state by address.
    plain: HashMap<usize, PlainMem>,
    mutexes: HashMap<usize, MutexState>,
    /// Global SeqCst clock: every SeqCst op joins with it both ways.
    sc: VClock,
    /// Store id generator.
    seq: u64,
    failure: Option<String>,
    config: Config,
}

/// One model execution shared by all its OS threads.
pub(crate) struct Exec {
    inner: OsMutex<ExecInner>,
    cv: OsCondvar,
    os_handles: OsMutex<Vec<std::thread::JoinHandle<()>>>,
}

type Guard<'a> = OsMutexGuard<'a, ExecInner>;

fn is_acquire(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

fn panic_abort() -> ! {
    panic::panic_any(ModelAbort)
}

pub(crate) fn payload_msg(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "thread panicked (non-string payload)".to_string()
    }
}

impl ExecInner {
    /// The choice in `0..n` for the next decision: the replay prefix's
    /// recorded choice, or the first choice past its end.
    fn pick(&mut self, n: usize) -> usize {
        let idx = self.decisions.len();
        match self.replay.get(idx) {
            // The program behaved differently on replay; that means user
            // code consulted a source of nondeterminism outside the model
            // (time, randomness, map iteration order).
            Some(&c) if c >= n => {
                self.failure.get_or_insert_with(|| {
                    format!(
                        "nondeterministic replay: decision {idx} has arity {n} but \
                         the recorded choice was {c}; model code must not depend on \
                         time, randomness, or hash-map iteration order"
                    )
                });
                0
            }
            Some(&c) => c,
            None => 0,
        }
    }

    /// Makes (or replays) a scheduling decision among candidate threads.
    /// `free` marks yield-point decisions — the kind the DPOR engine may
    /// backtrack; forced decisions (block/finish) are explored
    /// exhaustively instead. Single-candidate decisions are not
    /// recorded.
    fn choose_sched(&mut self, cands: &[usize], free: bool) -> usize {
        debug_assert!(!cands.is_empty());
        if cands.len() == 1 {
            // No branch, nothing recorded. A *forced* handoff still
            // clears `pending_sched`: the chosen thread resumes inside
            // an op whose step was already recorded, so its next fresh
            // step must not bind to a stale free decision.
            if !free {
                self.pending_sched = None;
            }
            return 0;
        }
        let idx = self.decisions.len();
        let chosen = self.pick(cands.len());
        self.decisions.push(DecisionRec {
            kind: if free {
                DecisionKind::SchedFree {
                    cands: cands.to_vec(),
                }
            } else {
                DecisionKind::SchedForced
            },
            chosen,
            arity: cands.len(),
        });
        self.pending_sched = if free { Some(idx) } else { None };
        chosen
    }

    /// Makes (or replays) a weak-memory value decision among `n`
    /// observable stores. Single-option decisions are not recorded.
    fn choose_value(&mut self, n: usize) -> usize {
        debug_assert!(n >= 1);
        if n == 1 {
            return 0;
        }
        let chosen = self.pick(n);
        self.decisions.push(DecisionRec {
            kind: DecisionKind::Value,
            chosen,
            arity: n,
        });
        chosen
    }

    /// Threads eligible to run next, from `me`'s perspective. Applies
    /// yield-exclusion and the preemption bound.
    fn candidates(&self, me: usize, me_runnable: bool) -> Vec<usize> {
        let mut c: Vec<usize> = self
            .threads
            .iter()
            .enumerate()
            .filter(|(i, t)| {
                matches!(t.run, Run::Active | Run::Runnable) && (me_runnable || *i != me)
            })
            .map(|(i, _)| i)
            .collect();
        // Yield-exclusion: a thread that called `yield_now` is only
        // scheduled when every candidate has yielded. This keeps
        // spin-wait loops from exploding the schedule tree.
        let non_yielded: Vec<usize> = c
            .iter()
            .copied()
            .filter(|&i| !self.threads[i].yielded)
            .collect();
        if !non_yielded.is_empty() {
            c = non_yielded;
        }
        // Preemption bound: once the budget is spent, keep running `me`
        // if it is still eligible (switching away would be involuntary).
        if let Some(b) = self.config.preemptions {
            if me_runnable && self.preemptions >= b && !self.threads[me].yielded && c.contains(&me)
            {
                c = vec![me];
            }
        }
        // Put the current thread first so choice 0 (the DFS default) is
        // "keep running": the zero-preemption schedule is explored first
        // and context switches are opt-in decisions.
        if let Some(pos) = c.iter().position(|&i| i == me) {
            c.swap(0, pos);
        }
        c
    }

    fn describe_blocked(&self) -> String {
        let mut parts = Vec::new();
        for t in &self.threads {
            if let Run::Blocked(b) = t.run {
                parts.push(format!("{} blocked on {:?}", t.name, b));
            }
        }
        parts.join("; ")
    }

    /// Ensures a history exists for `addr`, seeding it with `init` as a
    /// pre-history store visible to everyone.
    fn location(&mut self, addr: usize, init: u64) -> &mut Location {
        if !self.locations.contains_key(&addr) {
            self.seq += 1;
            self.locations.insert(
                addr,
                Location {
                    stores: vec![Store {
                        seq: self.seq,
                        tid: usize::MAX,
                        stamp: 0,
                        value: init,
                        published: VClock::default(),
                    }],
                },
            );
        }
        self.locations.get_mut(&addr).unwrap()
    }

    /// Joins the SeqCst clock both ways for thread `tid`.
    fn sc_join(&mut self, tid: usize) {
        let sc = self.sc.clone();
        self.threads[tid].clock.join(&sc);
        self.sc.join(&self.threads[tid].clock);
    }
}

impl Exec {
    pub(crate) fn new(config: Config, replay: Vec<usize>) -> Exec {
        let main = ThreadState {
            run: Run::Active,
            name: "main".to_string(),
            clock: VClock::default(),
            release: VClock::default(),
            fence_acq: VClock::default(),
            park_token: false,
            park_clock: VClock::default(),
            yielded: false,
            last_read: HashMap::new(),
            stale_reads: HashMap::new(),
        };
        Exec {
            inner: OsMutex::new(ExecInner {
                threads: vec![main],
                finished: vec![None],
                active: 0,
                replay,
                decisions: Vec::new(),
                steps_log: Vec::new(),
                pending_sched: None,
                steps: 0,
                preemptions: 0,
                locations: HashMap::new(),
                plain: HashMap::new(),
                mutexes: HashMap::new(),
                sc: VClock::default(),
                seq: 0,
                failure: None,
                config,
            }),
            cv: OsCondvar::new(),
            os_handles: OsMutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> Guard<'_> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records a failure (first one wins), wakes everyone, aborts the
    /// calling thread.
    fn fail(&self, mut g: Guard<'_>, msg: String) -> ! {
        if g.failure.is_none() {
            g.failure = Some(msg);
        }
        self.cv.notify_all();
        drop(g);
        panic_abort()
    }

    /// The scheduling point before every visible operation: possibly
    /// hands the baton to another thread and waits for it back.
    fn yield_point(&self, tid: usize) {
        let mut g = self.lock();
        if g.failure.is_some() {
            drop(g);
            panic_abort();
        }
        debug_assert_eq!(g.active, tid, "yield_point from non-active thread");
        let cands = g.candidates(tid, true);
        debug_assert!(!cands.is_empty());
        let pick = g.choose_sched(&cands, true);
        let chosen = cands[pick];
        if chosen != tid {
            if !g.threads[tid].yielded {
                g.preemptions += 1;
            }
            g.threads[tid].run = Run::Runnable;
            g.threads[chosen].run = Run::Active;
            g.active = chosen;
            self.cv.notify_all();
            loop {
                g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
                if g.failure.is_some() {
                    drop(g);
                    panic_abort();
                }
                if g.active == tid && g.threads[tid].run == Run::Active {
                    break;
                }
            }
        }
        g.threads[tid].yielded = false;
    }

    /// Marks `tid` blocked, schedules someone else, and waits until a
    /// wake + reschedule makes `tid` active again.
    fn block_on<'a>(&'a self, mut g: Guard<'a>, tid: usize, why: Block) -> Guard<'a> {
        g.threads[tid].run = Run::Blocked(why);
        let cands = g.candidates(tid, false);
        if cands.is_empty() {
            // Everyone is blocked or finished: with at least `tid`
            // blocked this is a deadlock (lost wakeups land here, since
            // park-timeouts are modeled as parking forever).
            let msg = format!("deadlock: {}", g.describe_blocked());
            self.fail(g, msg);
        }
        let pick = g.choose_sched(&cands, false);
        let chosen = cands[pick];
        g.threads[chosen].run = Run::Active;
        g.active = chosen;
        self.cv.notify_all();
        loop {
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
            if g.failure.is_some() {
                drop(g);
                panic_abort();
            }
            if g.active == tid && g.threads[tid].run == Run::Active {
                break;
            }
        }
        g
    }

    /// Entry point of every visible op: yield, then bump clocks/step
    /// counters and record the transition under the lock.
    fn prologue(&self, tid: usize, access: Access) -> Guard<'_> {
        self.yield_point(tid);
        let mut g = self.lock();
        if g.failure.is_some() {
            drop(g);
            panic_abort();
        }
        g.steps += 1;
        if g.steps > MAX_STEPS {
            self.fail(
                g,
                format!(
                    "livelock: execution exceeded {MAX_STEPS} visible operations; \
                     a spin loop is likely waiting on a modeled condition \
                     (use yield_now in spins)"
                ),
            );
        }
        g.threads[tid].clock.bump(tid);
        let clock = g.threads[tid].clock.clone();
        let stamp = clock.get(tid);
        let sched = g.pending_sched.take().unwrap_or(usize::MAX);
        let ndecisions = g.decisions.len();
        g.steps_log.push(StepRec {
            tid,
            access,
            clock,
            stamp,
            sched,
            ndecisions,
        });
        g
    }

    // ---- atomics ------------------------------------------------------

    pub(crate) fn op_atomic_load(&self, tid: usize, addr: usize, ord: Ordering, init: u64) -> u64 {
        let mut g = self.prologue(
            tid,
            Access::AtomicLoad {
                addr,
                sc: ord == Ordering::SeqCst,
            },
        );
        if ord == Ordering::SeqCst {
            g.sc_join(tid);
        }
        g.location(addr, init);
        // Visibility floor: the newest store that happens-before this
        // load, and anything older than a store this thread already
        // observed (per-location coherence).
        let clock = g.threads[tid].clock.clone();
        let loc = &g.locations[&addr];
        let floor_hb = loc
            .stores
            .iter()
            .filter(|s| s.tid == usize::MAX || s.stamp <= clock.get(s.tid))
            .map(|s| s.seq)
            .max()
            .expect("location has an initial store");
        let floor = floor_hb.max(g.threads[tid].last_read.get(&addr).copied().unwrap_or(0));
        let mut cands: Vec<Store> = loc
            .stores
            .iter()
            .filter(|s| s.seq >= floor)
            .cloned()
            .collect();
        // Newest first, so choice 0 (the replay default) reads the
        // coherence-latest value and staleness is opt-in per schedule.
        cands.sort_by_key(|s| std::cmp::Reverse(s.seq));
        // Eventual visibility: C11 alone lets a load re-read the same
        // stale store unboundedly, which turns every polling loop into a
        // fake livelock under exhaustive exploration. Hardware propagates
        // stores in finite time, so after `STALE_READ_BOUND`
        // consecutive stale reads of a location the thread is forced
        // onto the newest visible store. Single stale observations — the
        // shape of real fence-omission bugs like the PR 1 lost wakeup —
        // stay explored.
        let newest = cands[0].seq;
        if cands.len() > 1
            && g.threads[tid].stale_reads.get(&addr).copied().unwrap_or(0) >= STALE_READ_BOUND
        {
            cands.truncate(1);
        }
        let pick = g.choose_value(cands.len());
        let st = cands.swap_remove(pick);
        if st.seq < newest {
            *g.threads[tid].stale_reads.entry(addr).or_insert(0) += 1;
        } else {
            g.threads[tid].stale_reads.remove(&addr);
        }
        g.threads[tid].last_read.insert(addr, st.seq);
        if is_acquire(ord) {
            g.threads[tid].clock.join(&st.published);
        } else {
            g.threads[tid].fence_acq.join(&st.published);
        }
        st.value
    }

    pub(crate) fn op_atomic_store(
        &self,
        tid: usize,
        addr: usize,
        ord: Ordering,
        init: u64,
        val: u64,
    ) {
        let mut g = self.prologue(
            tid,
            Access::AtomicStore {
                addr,
                sc: ord == Ordering::SeqCst,
            },
        );
        if ord == Ordering::SeqCst {
            g.sc_join(tid);
        }
        g.location(addr, init);
        g.seq += 1;
        let seq = g.seq;
        let t = &g.threads[tid];
        let published = if is_release(ord) {
            t.clock.clone()
        } else {
            t.release.clone()
        };
        let store = Store {
            seq,
            tid,
            stamp: t.clock.get(tid),
            value: val,
            published,
        };
        g.locations.get_mut(&addr).unwrap().stores.push(store);
        g.threads[tid].last_read.insert(addr, seq);
    }

    /// Read-modify-write: always reads the coherence-latest store
    /// (atomicity guarantees RMWs never act on stale values).
    pub(crate) fn op_atomic_rmw(
        &self,
        tid: usize,
        addr: usize,
        ord: Ordering,
        init: u64,
        f: &mut dyn FnMut(u64) -> u64,
    ) -> u64 {
        let mut g = self.prologue(
            tid,
            Access::AtomicStore {
                addr,
                sc: ord == Ordering::SeqCst,
            },
        );
        if ord == Ordering::SeqCst {
            g.sc_join(tid);
        }
        g.location(addr, init);
        let last = g.locations[&addr].stores.last().unwrap().clone();
        if is_acquire(ord) {
            g.threads[tid].clock.join(&last.published);
        } else {
            g.threads[tid].fence_acq.join(&last.published);
        }
        let newv = f(last.value);
        g.seq += 1;
        let seq = g.seq;
        let t = &g.threads[tid];
        let published = if is_release(ord) {
            t.clock.clone()
        } else {
            t.release.clone()
        };
        let store = Store {
            seq,
            tid,
            stamp: t.clock.get(tid),
            value: newv,
            published,
        };
        g.locations.get_mut(&addr).unwrap().stores.push(store);
        g.threads[tid].last_read.insert(addr, seq);
        last.value
    }

    /// Strong compare-exchange (`compare_exchange_weak` maps here too:
    /// spurious failure is a scheduling artifact the model need not add).
    #[allow(
        clippy::too_many_arguments,
        reason = "mirrors `compare_exchange`'s shape"
    )]
    pub(crate) fn op_atomic_cas(
        &self,
        tid: usize,
        addr: usize,
        success: Ordering,
        failure: Ordering,
        init: u64,
        expected: u64,
        new: u64,
    ) -> Result<u64, u64> {
        let mut g = self.prologue(
            tid,
            Access::AtomicStore {
                addr,
                sc: success == Ordering::SeqCst || failure == Ordering::SeqCst,
            },
        );
        if success == Ordering::SeqCst || failure == Ordering::SeqCst {
            g.sc_join(tid);
        }
        g.location(addr, init);
        let last = g.locations[&addr].stores.last().unwrap().clone();
        if last.value == expected {
            if is_acquire(success) {
                g.threads[tid].clock.join(&last.published);
            } else {
                g.threads[tid].fence_acq.join(&last.published);
            }
            g.seq += 1;
            let seq = g.seq;
            let t = &g.threads[tid];
            let published = if is_release(success) {
                t.clock.clone()
            } else {
                t.release.clone()
            };
            let store = Store {
                seq,
                tid,
                stamp: t.clock.get(tid),
                value: new,
                published,
            };
            g.locations.get_mut(&addr).unwrap().stores.push(store);
            g.threads[tid].last_read.insert(addr, seq);
            Ok(last.value)
        } else {
            if is_acquire(failure) {
                g.threads[tid].clock.join(&last.published);
            } else {
                g.threads[tid].fence_acq.join(&last.published);
            }
            g.threads[tid].last_read.insert(addr, last.seq);
            Err(last.value)
        }
    }

    pub(crate) fn op_fence(&self, tid: usize, ord: Ordering) {
        let mut g = self.prologue(
            tid,
            Access::Fence {
                sc: ord == Ordering::SeqCst,
            },
        );
        if is_acquire(ord) {
            let fa = g.threads[tid].fence_acq.clone();
            g.threads[tid].clock.join(&fa);
        }
        if ord == Ordering::SeqCst {
            g.sc_join(tid);
        }
        if is_release(ord) {
            g.threads[tid].release = g.threads[tid].clock.clone();
        }
    }

    // ---- plain memory (race detector) ---------------------------------

    pub(crate) fn op_plain_read(&self, tid: usize, addr: usize, what: &str) {
        let mut g = self.prologue(tid, Access::PlainRead { addr });
        let clock = g.threads[tid].clock.clone();
        let writer = g.plain.get(&addr).and_then(|m| m.writer);
        if let Some((wt, ws)) = writer {
            if wt != tid && ws > clock.get(wt) {
                let name = g.threads[tid].name.clone();
                let other = g.threads[wt].name.clone();
                self.fail(
                    g,
                    format!(
                        "data race on {what} (addr {addr:#x}): read by {name} is \
                         concurrent with a write by {other}"
                    ),
                );
            }
        }
        let stamp = clock.get(tid);
        g.plain
            .entry(addr)
            .or_default()
            .readers
            .set_at_least(tid, stamp);
    }

    pub(crate) fn op_plain_write(&self, tid: usize, addr: usize, what: &str) {
        let mut g = self.prologue(tid, Access::PlainWrite { addr });
        let clock = g.threads[tid].clock.clone();
        let writer = g.plain.get(&addr).and_then(|m| m.writer);
        if let Some((wt, ws)) = writer {
            if wt != tid && ws > clock.get(wt) {
                let name = g.threads[tid].name.clone();
                let other = g.threads[wt].name.clone();
                self.fail(
                    g,
                    format!(
                        "data race on {what} (addr {addr:#x}): write by {name} is \
                         concurrent with a write by {other}"
                    ),
                );
            }
        }
        let readers_ordered = g
            .plain
            .get(&addr)
            .map(|m| m.readers.le(&clock))
            .unwrap_or(true);
        if !readers_ordered {
            let name = g.threads[tid].name.clone();
            self.fail(
                g,
                format!(
                    "data race on {what} (addr {addr:#x}): write by {name} is \
                     concurrent with an earlier read"
                ),
            );
        }
        let m = g.plain.entry(addr).or_default();
        m.writer = Some((tid, clock.get(tid)));
        // Reads before this write happen-before it; future conflicts are
        // caught against the write itself (FastTrack-style reset).
        m.readers = VClock::default();
    }

    // ---- mutex --------------------------------------------------------

    pub(crate) fn op_mutex_lock(&self, tid: usize, addr: usize) {
        let mut g = self.prologue(tid, Access::Mutex { addr });
        loop {
            let m = g.mutexes.entry(addr).or_default();
            match m.locked_by {
                None => {
                    m.locked_by = Some(tid);
                    let mc = m.clock.clone();
                    g.threads[tid].clock.join(&mc);
                    return;
                }
                Some(owner) if owner == tid => {
                    let name = g.threads[tid].name.clone();
                    self.fail(g, format!("recursive lock of model Mutex by {name}"));
                }
                Some(_) => {
                    g = self.block_on(g, tid, Block::Mutex(addr));
                }
            }
        }
    }

    pub(crate) fn op_mutex_unlock(&self, tid: usize, addr: usize) {
        let mut g = self.prologue(tid, Access::Mutex { addr });
        let clock = g.threads[tid].clock.clone();
        let m = g.mutexes.entry(addr).or_default();
        debug_assert_eq!(m.locked_by, Some(tid), "unlock of mutex not held");
        m.locked_by = None;
        m.clock.join(&clock);
        for t in g.threads.iter_mut() {
            if t.run == Run::Blocked(Block::Mutex(addr)) {
                t.run = Run::Runnable;
            }
        }
    }

    // ---- park / unpark -------------------------------------------------

    /// `thread::park` (and `park_timeout`: the model parks forever, so a
    /// lost wakeup becomes a detectable deadlock instead of a silent
    /// 10ms stall).
    pub(crate) fn op_park(&self, tid: usize) {
        let mut g = self.prologue(tid, Access::Park);
        if !g.threads[tid].park_token {
            g = self.block_on(g, tid, Block::Park);
        }
        let t = &mut g.threads[tid];
        t.park_token = false;
        let pc = t.park_clock.clone();
        t.clock.join(&pc);
    }

    pub(crate) fn op_unpark(&self, tid: usize, target: usize) {
        let mut g = self.prologue(tid, Access::Unpark { target });
        let clock = g.threads[tid].clock.clone();
        let t = &mut g.threads[target];
        t.park_clock.join(&clock);
        if t.run == Run::Blocked(Block::Park) {
            t.run = Run::Runnable;
        } else {
            t.park_token = true;
        }
    }

    /// `yield_now`: a voluntary reschedule that also deprioritizes the
    /// caller until other threads have run (see `candidates`).
    pub(crate) fn op_yield(&self, tid: usize) {
        {
            let mut g = self.lock();
            if g.failure.is_some() {
                drop(g);
                panic_abort();
            }
            g.steps += 1;
            if g.steps > MAX_STEPS {
                self.fail(
                    g,
                    format!("livelock: execution exceeded {MAX_STEPS} visible operations"),
                );
            }
            g.threads[tid].yielded = true;
        }
        self.yield_point(tid);
    }

    // ---- spawn / join / finish ----------------------------------------

    /// Allocates a child thread id (the caller then spawns the OS
    /// thread). The spawn edge transfers the parent's clock.
    pub(crate) fn op_spawn(&self, tid: usize) -> usize {
        let mut g = self.prologue(tid, Access::Spawn);
        if g.threads.len() >= MAX_THREADS {
            self.fail(g, format!("model thread limit exceeded ({MAX_THREADS})"));
        }
        let child = g.threads.len();
        let clock = g.threads[tid].clock.clone();
        g.threads.push(ThreadState {
            run: Run::Runnable,
            name: format!("thread-{child}"),
            clock,
            // No release fence yet: the child's relaxed stores publish
            // nothing until it performs one (C11 semantics).
            release: VClock::default(),
            fence_acq: VClock::default(),
            park_token: false,
            park_clock: VClock::default(),
            yielded: false,
            last_read: HashMap::new(),
            stale_reads: HashMap::new(),
        });
        g.finished.push(None);
        child
    }

    /// First wait of a freshly spawned OS thread, before it may run.
    pub(crate) fn wait_for_turn(&self, tid: usize) {
        let mut g = self.lock();
        loop {
            if g.failure.is_some() {
                drop(g);
                panic_abort();
            }
            if g.active == tid && g.threads[tid].run == Run::Active {
                return;
            }
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    pub(crate) fn op_join(&self, tid: usize, target: usize) {
        let mut g = self.prologue(tid, Access::Join);
        while g.threads[target].run != Run::Finished {
            g = self.block_on(g, tid, Block::Join(target));
        }
        let fc = g.finished[target]
            .clone()
            .expect("finished thread has clock");
        g.threads[tid].clock.join(&fc);
    }

    /// Called by a model thread when its body returns or panics. Wakes
    /// joiners/drainers and hands the baton onward.
    pub(crate) fn finish_thread(&self, tid: usize, panicked: Option<String>) {
        let mut g = self.lock();
        g.threads[tid].run = Run::Finished;
        let clock = g.threads[tid].clock.clone();
        g.finished[tid] = Some(clock);
        if let Some(msg) = panicked {
            if g.failure.is_none() {
                let name = g.threads[tid].name.clone();
                g.failure = Some(format!("{name} panicked: {msg}"));
            }
            self.cv.notify_all();
            return;
        }
        if g.failure.is_some() {
            self.cv.notify_all();
            return;
        }
        for t in g.threads.iter_mut() {
            if t.run == Run::Blocked(Block::Join(tid)) || t.run == Run::Blocked(Block::Drain) {
                t.run = Run::Runnable;
            }
        }
        let cands = g.candidates(tid, false);
        if cands.is_empty() {
            if g.threads.iter().any(|t| matches!(t.run, Run::Blocked(_))) {
                let msg = format!("deadlock: {}", g.describe_blocked());
                if g.failure.is_none() {
                    g.failure = Some(msg);
                }
            }
            // else: every thread finished; nothing left to schedule.
        } else {
            let pick = g.choose_sched(&cands, false);
            let chosen = cands[pick];
            g.threads[chosen].run = Run::Active;
            g.active = chosen;
        }
        self.cv.notify_all();
    }

    /// Main-thread epilogue: waits until every spawned thread finished,
    /// so leaked (never-joined) threads still run to completion and
    /// deadlocked ones are reported.
    pub(crate) fn drain_main(&self) {
        let mut g = self.lock();
        loop {
            if g.failure.is_some() {
                drop(g);
                panic_abort();
            }
            if g.threads.iter().skip(1).all(|t| t.run == Run::Finished) {
                return;
            }
            g = self.block_on(g, 0, Block::Drain);
        }
    }

    pub(crate) fn push_os_handle(&self, h: std::thread::JoinHandle<()>) {
        self.os_handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(h);
    }

    fn join_os_threads(&self) {
        let handles: Vec<_> = self
            .os_handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// Records a panic escaping the user closure on the main thread.
    fn record_main_panic(&self, payload: &(dyn std::any::Any + Send)) {
        let mut g = self.lock();
        if payload.downcast_ref::<ModelAbort>().is_none() && g.failure.is_none() {
            g.failure = Some(format!("main panicked: {}", payload_msg(payload)));
        }
        self.cv.notify_all();
    }
}

// ---- current-model TLS -------------------------------------------------

thread_local! {
    static CURRENT: std::cell::RefCell<Option<(Arc<Exec>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

/// The (execution, thread-id) pair of the calling thread, if it is a
/// model thread.
pub(crate) fn current() -> Option<(Arc<Exec>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

pub(crate) fn set_current(v: Option<(Arc<Exec>, usize)>) {
    CURRENT.with(|c| *c.borrow_mut() = v);
}

/// True when called from inside a model execution. Gates the
/// instrumentation shims' fallback paths.
pub fn in_model() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

// ---- panic-hook filter --------------------------------------------------

static HOOK: Once = Once::new();

fn install_panic_filter() {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ModelAbort>().is_none() {
                prev(info);
            }
        }));
    });
}

// ---- schedule enumeration ----------------------------------------------

/// Computes the next replay prefix: backtracks the deepest decision with
/// an unexplored alternative. Returns `None` when the tree is exhausted.
fn next_replay(trace: &[DecisionRec]) -> Option<Vec<usize>> {
    for (i, d) in trace.iter().enumerate().rev() {
        if d.chosen + 1 < d.arity {
            let mut replay: Vec<usize> = trace[..i].iter().map(|d| d.chosen).collect();
            replay.push(d.chosen + 1);
            return Some(replay);
        }
    }
    None
}

/// Runs one execution of `f` replaying the decision prefix `replay` and
/// collects what the engine needs: the decision trace, the step log, and
/// any failure.
pub(crate) fn run_one<F>(config: &Config, replay: Vec<usize>, f: &F) -> RunOutcome
where
    F: Fn() + Sync,
{
    let exec = Arc::new(Exec::new(config.clone(), replay));
    set_current(Some((exec.clone(), 0)));
    let body = panic::catch_unwind(AssertUnwindSafe(f));
    match body {
        Ok(()) => {
            // Let remaining threads run; catches deadlocks among them.
            let _ = panic::catch_unwind(AssertUnwindSafe(|| exec.drain_main()));
        }
        Err(p) => exec.record_main_panic(p.as_ref()),
    }
    set_current(None);
    exec.join_os_threads();
    let mut g = exec.lock();
    RunOutcome {
        schedule: g.decisions.iter().map(|d| d.chosen).collect(),
        decisions: std::mem::take(&mut g.decisions),
        steps: std::mem::take(&mut g.steps_log),
        failure: g.failure.take(),
    }
}

/// The original engine: exhaustive DFS over the decision tree.
fn dfs_explore<F>(config: &Config, f: &F, acc: &mut crate::stats::Acc) -> Result<Report, ModelError>
where
    F: Fn() + Sync,
{
    let mut replay: Vec<usize> = Vec::new();
    let mut complete = true;
    loop {
        if acc.schedules >= MAX_SCHEDULES {
            complete = false;
            break;
        }
        acc.schedules += 1;
        let out = run_one(config, std::mem::take(&mut replay), f);
        acc.absorb(&out);
        if let Some(msg) = out.failure {
            return Err(ModelError {
                message: msg,
                schedule: out.schedule,
                schedules_explored: acc.schedules,
            });
        }
        match next_replay(&out.decisions) {
            Some(r) => replay = r,
            None => break,
        }
    }
    Ok(acc.report(complete))
}

// ---- public entry points ------------------------------------------------

/// Runs `f` under the model with `config`, returning a [`Report`] or the
/// first failing schedule.
pub fn try_model_with<F>(config: Config, f: F) -> Result<Report, ModelError>
where
    F: Fn() + Sync,
{
    assert!(
        current().is_none(),
        "model() must not be nested inside a model execution"
    );
    install_panic_filter();
    let engine = config.engine.name();
    let mut acc = crate::stats::Acc::default();
    let result = match config.engine {
        Engine::Dfs => dfs_explore(&config, &f, &mut acc),
        Engine::Dpor => crate::dpor::explore(&config, &f, &mut acc),
    };
    crate::stats::record(engine, &acc, &result);
    result
}

/// [`try_model_with`] with the default [`Config`].
pub fn try_model<F>(f: F) -> Result<Report, ModelError>
where
    F: Fn() + Sync,
{
    try_model_with(Config::default(), f)
}

/// Runs `f` under the model and panics with a replayable report on any
/// failure. The usual entry point for model tests.
pub fn model<F>(f: F)
where
    F: Fn() + Sync,
{
    if let Err(e) = try_model(f) {
        panic!("{e}");
    }
}

/// [`model`] with an explicit [`Config`].
pub fn model_with<F>(config: Config, f: F)
where
    F: Fn() + Sync,
{
    if let Err(e) = try_model_with(config, f) {
        panic!("{e}");
    }
}
