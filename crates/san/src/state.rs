//! The shared sanitizer substrate: per-thread vector clocks, the
//! FastTrack shadow map, SP (offset-span) labels and the lock-order
//! graph — all behind one global mutex.
//!
//! One mutex, not striped shadow memory: the sanitizer observes *real*
//! executions for correctness evidence, not performance numbers, and a
//! single serialization point keeps every detector's bookkeeping
//! trivially consistent (the measured overhead is recorded in
//! EXPERIMENTS.md). Everything here deliberately **over-approximates
//! happens-before** — `Relaxed` operations create the same edges as
//! `Acquire`/`Release`, sync-clock history is never cleared, and fences
//! release into / acquire from one global fence clock — so a reported
//! race is a race under *any* correct ordering-sensitivity model, at
//! the cost of missing races that only weaker edges would expose.
//! False positives break the clean-run CI gate; false negatives just
//! wait for a future run.

use std::cell::Cell;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Mutex, OnceLock};

use cilkm_base::VClock;

use crate::report::{Detector, Finding, Report};

/// Sync-clock namespace tags (the payload is an address or thread id,
/// so the namespaces must not collide).
const K_ATOMIC: u8 = 0;
const K_LOCK: u8 = 1;
const K_PARK: u8 = 2;
const K_FENCE: u8 = 3;

/// FastTrack's scalar clock: one (thread, clock) pair packed where a
/// full vector clock would be overkill.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Epoch {
    tid: u32,
    clk: u32,
}

/// FastTrack read shadow: nothing, a single reader epoch (the common
/// case), or a full clock once concurrent readers are observed.
#[derive(Clone, Debug, Default)]
enum ReadShadow {
    #[default]
    None,
    Epoch(Epoch),
    Clock(VClock),
}

/// Per-location FastTrack shadow word pair.
#[derive(Clone, Debug, Default)]
struct VarShadow {
    write: Option<Epoch>,
    read: ReadShadow,
}

/// SP shadow for a reducer-contract location: the last writer's label
/// and the labels that read since (capped; see [`SP_READER_CAP`]).
#[derive(Clone, Debug, Default)]
struct SpShadow {
    writer: Option<(u64, u32)>,
    readers: Vec<(u64, u32)>,
}

/// Readers tracked per SP location between writes. Past the cap new
/// reader labels are dropped (write checks still see the first
/// `SP_READER_CAP`, so detection degrades, never explodes).
const SP_READER_CAP: usize = 32;

/// One interned offset-span label component (see DESIGN.md §17 for the
/// algebra). Index 0 of the node table is the "no label" sentinel.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct LabelNode {
    parent: u64,
    offset: u64,
    span: u64,
}

/// The interned offset-span label forest.
#[derive(Debug, Default)]
struct Labels {
    nodes: Vec<LabelNode>,
    interned: HashMap<(u64, u64, u64), u64>,
}

impl Labels {
    fn intern(&mut self, parent: u64, offset: u64, span: u64) -> u64 {
        if self.nodes.is_empty() {
            // Slot 0 is the sentinel "no label".
            self.nodes.push(LabelNode {
                parent: 0,
                offset: 0,
                span: 0,
            });
        }
        if let Some(&id) = self.interned.get(&(parent, offset, span)) {
            return id;
        }
        let id = self.nodes.len() as u64;
        self.nodes.push(LabelNode {
            parent,
            offset,
            span,
        });
        self.interned.insert((parent, offset, span), id);
        id
    }

    /// The continuation label after a sync on `frame`: same parent,
    /// offset advanced by one span.
    fn bump(&mut self, frame: u64) -> u64 {
        let node = self.nodes[frame as usize];
        self.intern(node.parent, node.offset + node.span, node.span)
    }

    /// Root-to-leaf (offset, span) path of a label.
    fn path(&self, mut label: u64, out: &mut Vec<(u64, u64)>) {
        out.clear();
        while label != 0 {
            let node = self.nodes[label as usize];
            out.push((node.offset, node.span));
            label = node.parent;
        }
        out.reverse();
    }

    /// Whether two strands are *serially ordered* under the offset-span
    /// algebra: one label is a prefix of the other, or at the first
    /// differing pair the spans agree and the offsets are congruent
    /// modulo the span (consecutive sync generations of one frame).
    /// Anything else is logically parallel.
    fn sequential(&self, l1: u64, l2: u64) -> bool {
        if l1 == l2 || l1 == 0 || l2 == 0 {
            return true;
        }
        let mut p1 = Vec::new();
        let mut p2 = Vec::new();
        self.path(l1, &mut p1);
        self.path(l2, &mut p2);
        for (a, b) in p1.iter().zip(p2.iter()) {
            if a == b {
                continue;
            }
            let (o1, s1) = *a;
            let (o2, s2) = *b;
            // Differing spans at one depth cannot arise from this
            // runtime's fork/sync shapes; treat conservatively as
            // ordered (false-negative direction).
            return s1 != s2 || o1 % s1 == o2 % s1;
        }
        // One path is a prefix of the other: ancestor and descendant.
        true
    }
}

/// Everything the detectors share, behind the one global mutex.
#[derive(Debug, Default)]
pub(crate) struct State {
    /// Per-thread vector clocks, indexed by sanitizer thread id.
    clocks: Vec<VClock>,
    /// Sync-object clocks: atomics, locks, park tokens, the fence.
    sync: HashMap<(u8, usize), VClock>,
    /// FastTrack shadow per traced plain location.
    shadow: HashMap<usize, VarShadow>,
    /// SP shadow per reducer-contract location.
    sp_shadow: HashMap<usize, SpShadow>,
    /// Interned offset-span labels.
    labels: Labels,
    /// Monotone region counter (region roots are mutually sequential).
    regions: u64,
    /// Locks currently held, per thread (outermost first).
    held: HashMap<usize, Vec<usize>>,
    /// Observed lock-acquisition-order edges.
    lock_edges: HashMap<usize, BTreeSet<usize>>,
    /// Shared fallback id for hooks firing during TLS teardown.
    orphan: Option<usize>,
    /// Deduplicated findings plus the dedup key set.
    findings: Vec<Finding>,
    seen: BTreeSet<(&'static str, String, String)>,
}

impl State {
    fn new_thread(&mut self, inherit: Option<&VClock>) -> usize {
        let tid = self.clocks.len();
        let mut vc = inherit.cloned().unwrap_or_default();
        vc.set(tid, 1);
        self.clocks.push(vc);
        tid
    }

    /// Advances a thread's own clock component (after a release).
    fn tick(&mut self, tid: usize) {
        self.clocks[tid].bump(tid);
    }

    fn sync_acquire(&mut self, tid: usize, key: (u8, usize)) {
        let State { sync, clocks, .. } = self;
        if let Some(vc) = sync.get(&key) {
            clocks[tid].join(vc);
        }
    }

    fn sync_release(&mut self, tid: usize, key: (u8, usize)) {
        let State { sync, clocks, .. } = self;
        sync.entry(key).or_default().join(&clocks[tid]);
        self.tick(tid);
    }

    fn record(&mut self, detector: Detector, site: &str, message: String) {
        let key = (detector.name(), site.to_string(), message.clone());
        if self.seen.insert(key) {
            self.findings.push(Finding {
                detector,
                site: site.to_string(),
                message,
            });
        }
    }

    // ---- FastTrack -----------------------------------------------------

    fn ft_read(&mut self, tid: usize, addr: usize, site: &str) {
        let epoch = Epoch {
            tid: tid as u32,
            clk: self.clocks[tid].get(tid),
        };
        let mut race = None;
        if let Some(sh) = self.shadow.get(&addr) {
            if let Some(w) = sh.write {
                if w.tid as usize != tid && w.clk > self.clocks[tid].get(w.tid as usize) {
                    race = Some(format!(
                        "write-read race between threads t{} and t{}",
                        w.tid, tid
                    ));
                }
            }
        }
        if let Some(m) = race {
            self.record(Detector::Race, site, m);
        }
        let vc = self.clocks[tid].clone();
        let sh = self.shadow.entry(addr).or_default();
        sh.read = match std::mem::take(&mut sh.read) {
            ReadShadow::None => ReadShadow::Epoch(epoch),
            ReadShadow::Epoch(r) if r.tid as usize == tid || r.clk <= vc.get(r.tid as usize) => {
                ReadShadow::Epoch(epoch)
            }
            ReadShadow::Epoch(r) => {
                // Second concurrent reader: inflate to a read clock.
                let mut rc = VClock::default();
                rc.set(r.tid as usize, r.clk);
                rc.set(tid, epoch.clk);
                ReadShadow::Clock(rc)
            }
            ReadShadow::Clock(mut rc) => {
                rc.set(tid, epoch.clk);
                ReadShadow::Clock(rc)
            }
        };
    }

    fn ft_write(&mut self, tid: usize, addr: usize, site: &str) {
        let epoch = Epoch {
            tid: tid as u32,
            clk: self.clocks[tid].get(tid),
        };
        let mut races = Vec::new();
        if let Some(sh) = self.shadow.get(&addr) {
            let vc = &self.clocks[tid];
            if let Some(w) = sh.write {
                if w.tid as usize != tid && w.clk > vc.get(w.tid as usize) {
                    races.push(format!(
                        "write-write race between threads t{} and t{}",
                        w.tid, tid
                    ));
                }
            }
            match &sh.read {
                ReadShadow::None => {}
                ReadShadow::Epoch(r) => {
                    if r.tid as usize != tid && r.clk > vc.get(r.tid as usize) {
                        races.push(format!(
                            "read-write race between threads t{} and t{}",
                            r.tid, tid
                        ));
                    }
                }
                ReadShadow::Clock(rc) => {
                    // Every component a read clock sets is a thread's.
                    if let Some(j) =
                        (0..self.clocks.len()).find(|&j| j != tid && rc.get(j) > vc.get(j))
                    {
                        races.push(format!("read-write race between threads t{j} and t{tid}"));
                    }
                }
            }
        }
        for m in races {
            self.record(Detector::Race, site, m);
        }
        let sh = self.shadow.entry(addr).or_default();
        sh.write = Some(epoch);
        sh.read = ReadShadow::None;
    }

    // ---- SP determinacy ------------------------------------------------

    fn sp_read(&mut self, tid: usize, label: u64, addr: usize, site: &str) {
        if label == 0 {
            return;
        }
        let mut race = None;
        if let Some(sh) = self.sp_shadow.get(&addr) {
            if let Some((wl, wt)) = sh.writer {
                if !self.labels.sequential(wl, label) {
                    race = Some(format!(
                        "write-read determinacy race between logically-parallel strands \
                         (threads t{wt} and t{tid}) not mediated by a reducer view"
                    ));
                }
            }
        }
        if let Some(m) = race {
            self.record(Detector::DeterminacyRace, site, m);
        }
        let sh = self.sp_shadow.entry(addr).or_default();
        if sh.readers.len() < SP_READER_CAP && !sh.readers.iter().any(|&(l, _)| l == label) {
            sh.readers.push((label, tid as u32));
        }
    }

    fn sp_write(&mut self, tid: usize, label: u64, addr: usize, site: &str) {
        if label == 0 {
            return;
        }
        let mut races = Vec::new();
        if let Some(sh) = self.sp_shadow.get(&addr) {
            if let Some((wl, wt)) = sh.writer {
                if !self.labels.sequential(wl, label) {
                    races.push(format!(
                        "write-write determinacy race between logically-parallel strands \
                         (threads t{wt} and t{tid}) not mediated by a reducer view"
                    ));
                }
            }
            for &(rl, rt) in &sh.readers {
                if !self.labels.sequential(rl, label) {
                    races.push(format!(
                        "read-write determinacy race between logically-parallel strands \
                         (threads t{rt} and t{tid}) not mediated by a reducer view"
                    ));
                    break;
                }
            }
        }
        for m in races {
            self.record(Detector::DeterminacyRace, site, m);
        }
        let sh = self.sp_shadow.entry(addr).or_default();
        sh.writer = Some((label, tid as u32));
        sh.readers.clear();
    }

    // ---- Lock order ----------------------------------------------------

    /// Whether `from` reaches `to` in the observed acquisition-order
    /// graph (DFS; the graph is tiny — one node per distinct lock).
    fn lock_reaches(&self, from: usize, to: usize) -> bool {
        let mut stack = vec![from];
        let mut seen = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = self.lock_edges.get(&n) {
                stack.extend(next.iter().copied());
            }
        }
        false
    }

    fn lock_order_check(&mut self, tid: usize, key: usize) {
        let holds = self.held.get(&tid).cloned().unwrap_or_default();
        for h in holds {
            if h == key {
                continue;
            }
            if self.lock_reaches(key, h) {
                self.record(
                    Detector::LockOrder,
                    "Mutex",
                    format!(
                        "acquisition-order inversion: thread t{tid} acquired two locks in \
                         the opposite order of a previously observed acquisition"
                    ),
                );
            }
            self.lock_edges.entry(h).or_default().insert(key);
        }
    }
}

thread_local! {
    /// Sanitizer thread id + 1 (0 = not yet assigned).
    static TID: Cell<u32> = const { Cell::new(0) };
    /// Current strand's SP label (0 = outside any sanitized region).
    static SP: Cell<u64> = const { Cell::new(0) };
}

fn lock_state() -> std::sync::MutexGuard<'static, State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE
        .get_or_init(|| Mutex::new(State::default()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// Runs `f` with the global state locked and the calling thread's id
/// resolved (assigning a fresh clock on first contact; falling back to
/// a shared orphan id if this thread's TLS is already being torn down).
fn enter<R>(f: impl FnOnce(&mut State, usize) -> R) -> R {
    let cached = TID.try_with(|c| c.get());
    let mut st = lock_state();
    let tid = match cached {
        Ok(0) => {
            let tid = st.new_thread(None);
            let _ = TID.try_with(|c| c.set(tid as u32 + 1));
            tid
        }
        Ok(n) => (n - 1) as usize,
        Err(_) => match st.orphan {
            Some(t) => t,
            None => {
                let t = st.new_thread(None);
                st.orphan = Some(t);
                t
            }
        },
    };
    f(&mut st, tid)
}

// ---- Crate-internal hook surface (called by sync.rs / thread.rs) ------

pub(crate) fn atomic_acquire(key: usize) {
    enter(|st, tid| st.sync_acquire(tid, (K_ATOMIC, key)));
}

pub(crate) fn atomic_release(key: usize) {
    enter(|st, tid| st.sync_release(tid, (K_ATOMIC, key)));
}

pub(crate) fn fence_all() {
    enter(|st, tid| {
        st.sync_acquire(tid, (K_FENCE, 0));
        st.sync_release(tid, (K_FENCE, 0));
    });
}

pub(crate) fn lock_acquiring(key: usize) {
    enter(|st, tid| st.lock_order_check(tid, key));
}

pub(crate) fn lock_acquired(key: usize) {
    enter(|st, tid| {
        st.held.entry(tid).or_default().push(key);
        st.sync_acquire(tid, (K_LOCK, key));
    });
}

pub(crate) fn lock_released(key: usize) {
    enter(|st, tid| {
        if let Some(held) = st.held.get_mut(&tid) {
            if let Some(pos) = held.iter().rposition(|&k| k == key) {
                held.remove(pos);
            }
        }
        st.sync_release(tid, (K_LOCK, key));
    });
}

pub(crate) fn unpark(target: u32) {
    enter(|st, tid| {
        let _ = tid;
        st.sync_release(tid, (K_PARK, target as usize));
    });
}

pub(crate) fn park_wake() {
    enter(|st, tid| st.sync_acquire(tid, (K_PARK, tid)));
}

pub(crate) fn current_tid() -> u32 {
    enter(|_, tid| tid as u32)
}

/// Parent half of a spawn: allocate the child's id with the parent's
/// clock inherited, and advance the parent past the fork.
pub(crate) fn prepare_child() -> u32 {
    enter(|st, tid| {
        let vc = st.clocks[tid].clone();
        let child = st.new_thread(Some(&vc));
        st.tick(tid);
        child as u32
    })
}

/// Child half of a spawn: bind the pre-allocated id to this thread.
pub(crate) fn adopt(tid: u32) {
    let _ = TID.try_with(|c| c.set(tid + 1));
}

/// Publishes a finishing thread's final clock for the joiner.
pub(crate) fn publish_final(tid: u32, slot: &Mutex<Option<VClock>>) {
    let st = lock_state();
    let vc = st.clocks[tid as usize].clone();
    drop(st);
    *slot.lock().unwrap_or_else(|p| p.into_inner()) = Some(vc);
}

/// Joiner half: absorb the joined thread's final clock.
pub(crate) fn join_final(slot: &Mutex<Option<VClock>>) {
    let vc = slot.lock().unwrap_or_else(|p| p.into_inner()).take();
    if let Some(vc) = vc {
        enter(|st, tid| st.clocks[tid].join(&vc));
    }
}

// ---- Public hook surface (called by the instrumented crates) ----------

/// Records a plain-memory read at a reducer-contract location: checked
/// by both the FastTrack and SP detectors.
pub fn plain_read(addr: usize, site: &'static str) {
    let label = SP.try_with(|c| c.get()).unwrap_or(0);
    enter(|st, tid| {
        st.ft_read(tid, addr, site);
        st.sp_read(tid, label, addr, site);
    });
}

/// Records a plain-memory write at a reducer-contract location.
pub fn plain_write(addr: usize, site: &'static str) {
    let label = SP.try_with(|c| c.get()).unwrap_or(0);
    enter(|st, tid| {
        st.ft_write(tid, addr, site);
        st.sp_write(tid, label, addr, site);
    });
}

/// Records a plain-memory read on runtime-internal shared state
/// (FastTrack only: pool-recycled structures legitimately cross
/// logically-parallel strands, so the SP detector must not see them).
pub fn shadow_read(addr: usize, site: &'static str) {
    enter(|st, tid| st.ft_read(tid, addr, site));
}

/// Records a runtime-internal plain-memory write (FastTrack only).
pub fn shadow_write(addr: usize, site: &'static str) {
    enter(|st, tid| st.ft_write(tid, addr, site));
}

/// The calling strand's current SP label (0 outside sanitized regions).
pub fn sp_current() -> u64 {
    SP.try_with(|c| c.get()).unwrap_or(0)
}

/// Installs an SP label on the calling thread (strand hand-off).
pub fn sp_set(label: u64) {
    let _ = SP.try_with(|c| c.set(label));
}

/// Forks `frame` into (continuation, child) labels: the spawning strand
/// continues as the first, the spawned task executes as the second.
pub fn sp_fork(frame: u64) -> (u64, u64) {
    if frame == 0 {
        return (0, 0);
    }
    enter(|st, _| (st.labels.intern(frame, 1, 2), st.labels.intern(frame, 2, 2)))
}

/// Installs `label` for an executing task; returns the previous label
/// for [`sp_exit`].
pub fn sp_enter(label: u64) -> u64 {
    let prev = sp_current();
    sp_set(label);
    prev
}

/// Restores the label saved by [`sp_enter`].
pub fn sp_exit(prev: u64) {
    sp_set(prev);
}

/// A sync on `frame`: every label forked from it is now serially before
/// the calling strand, which continues as the bumped frame.
pub fn sp_join(frame: u64) {
    let next = if frame == 0 {
        0
    } else {
        enter(|st, _| st.labels.bump(frame))
    };
    sp_set(next);
}

/// Starts a parallel region's root strand: a fresh span-1 label, so
/// successive regions are mutually sequential. Returns the previous
/// label for [`sp_exit`].
pub fn sp_region_enter() -> u64 {
    let label = enter(|st, _| {
        st.regions += 1;
        let r = st.regions;
        st.labels.intern(0, r, 1)
    });
    sp_enter(label)
}

/// A deduplicated, stable-sorted snapshot of every finding so far.
pub fn snapshot() -> Report {
    let mut report = enter(|st, _| Report {
        findings: st.findings.clone(),
    });
    report.sort();
    report
}

/// Total findings recorded so far (all detectors).
pub fn finding_count() -> usize {
    enter(|st, _| st.findings.len())
}

/// Serializes [`snapshot`] as deterministic JSON.
pub fn report_json() -> String {
    snapshot().to_json()
}

/// Writes the report to `path` (parent directory must exist).
pub fn write_report(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, report_json())
}

/// Writes the report to `$CILKM_SAN_REPORT` if that variable is set —
/// the runtime calls this when a pool shuts down, so test binaries and
/// examples leave a report behind for CI without any per-test plumbing.
pub fn flush_report() {
    if let Ok(path) = std::env::var("CILKM_SAN_REPORT") {
        if !path.is_empty() {
            let _ = write_report(std::path::Path::new(&path));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a state with `n` registered threads (ids 0..n).
    fn state_with_threads(n: usize) -> State {
        let mut st = State::default();
        for _ in 0..n {
            st.new_thread(None);
        }
        st
    }

    #[test]
    fn unsynchronized_writes_race_and_synchronized_do_not() {
        let mut st = state_with_threads(2);
        st.ft_write(0, 0x10, "loc");
        // t1 has no knowledge of t0's write: race.
        st.ft_write(1, 0x10, "loc");
        assert_eq!(st.findings.len(), 1);
        assert!(st.findings[0].message.contains("write-write"));

        // Now synchronize t0 → t1 through a sync object and write again:
        // no new finding.
        let mut st = state_with_threads(2);
        st.ft_write(0, 0x20, "loc2");
        st.sync_release(0, (K_ATOMIC, 7));
        st.sync_acquire(1, (K_ATOMIC, 7));
        st.ft_write(1, 0x20, "loc2");
        assert!(st.findings.is_empty());
    }

    #[test]
    fn concurrent_readers_inflate_and_catch_a_later_writer() {
        let mut st = state_with_threads(3);
        st.ft_read(0, 0x30, "loc");
        st.ft_read(1, 0x30, "loc");
        assert!(st.findings.is_empty(), "reads never race with reads");
        st.ft_write(2, 0x30, "loc");
        assert_eq!(st.findings.len(), 1);
        assert!(st.findings[0].message.contains("read-write"));
    }

    #[test]
    fn offset_span_labels_order_forks_and_syncs() {
        let mut labels = Labels::default();
        let region = labels.intern(0, 1, 1);
        let a = labels.intern(region, 1, 2);
        let b = labels.intern(region, 2, 2);
        let after = labels.bump(region);
        // Siblings of one fork are parallel; both precede the sync.
        assert!(!labels.sequential(a, b));
        assert!(labels.sequential(a, after));
        assert!(labels.sequential(b, after));
        // Nested: a's own children stay parallel to b.
        let aa = labels.intern(a, 1, 2);
        assert!(!labels.sequential(aa, b));
        assert!(labels.sequential(aa, a), "child and ancestor are ordered");
        // A second fork from the bumped frame is after the first fork.
        let c = labels.intern(after, 1, 2);
        assert!(labels.sequential(a, c));
        assert!(labels.sequential(b, c));
        // Distinct regions are sequential.
        let region2 = labels.intern(0, 2, 1);
        let in_region2 = labels.intern(region2, 2, 2);
        assert!(labels.sequential(a, in_region2));
    }

    #[test]
    fn sp_shadow_flags_parallel_strands_only() {
        let mut st = state_with_threads(2);
        let region = st.labels.intern(0, 1, 1);
        let a = st.labels.intern(region, 1, 2);
        let b = st.labels.intern(region, 2, 2);
        st.sp_write(0, a, 0x40, "counter");
        st.sp_write(1, b, 0x40, "counter");
        assert_eq!(st.findings.len(), 1);
        assert_eq!(st.findings[0].detector, Detector::DeterminacyRace);
        // Sequential follow-up (post-sync strand): no new finding.
        let after = st.labels.bump(region);
        st.sp_write(0, after, 0x40, "counter");
        assert_eq!(st.findings.len(), 1);
    }

    #[test]
    fn lock_order_inversion_is_reported_once() {
        let mut st = state_with_threads(2);
        // t0: A then B.
        st.lock_order_check(0, 0xA);
        st.held.entry(0).or_default().push(0xA);
        st.lock_order_check(0, 0xB);
        st.held.entry(0).or_default().push(0xB);
        assert!(st.findings.is_empty());
        st.held.get_mut(&0).unwrap().clear();
        // t1: B then A — inversion.
        st.lock_order_check(1, 0xB);
        st.held.entry(1).or_default().push(0xB);
        st.lock_order_check(1, 0xA);
        assert_eq!(st.findings.len(), 1);
        assert_eq!(st.findings[0].detector, Detector::LockOrder);
    }
}
