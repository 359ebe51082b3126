//! Sleep-set dynamic partial-order reduction (Flanagan–Godefroid DPOR
//! with the SDPOR-style happens-before filter).
//!
//! The DFS engine enumerates every branch of every scheduling decision,
//! so two *independent* operations cost it both orders even though the
//! orders are indistinguishable. This engine executes one schedule,
//! inspects the recorded step log, and only schedules alternatives at
//! decisions where a *dependent* pair (same atomic location with at
//! least one write, same sync object — see `Access::dependent`) actually
//! raced: for the earlier step `i` of each non-happens-before-ordered
//! dependent pair `(i, j)`, the thread of `j` is added to the backtrack
//! set of the decision that scheduled `i` (or every candidate there,
//! when that thread was not schedulable — the conservative fallback
//! that makes the explored set persistent). The vector clocks the
//! checker already maintains provide the happens-before filter: a pair
//! ordered through *intermediate* steps cannot be reordered directly,
//! and the intermediates contribute their own backtrack points.
//!
//! Sleep sets prune the re-execution of interleavings equivalent to an
//! explored one: once a sibling branch that ran thread `q` (first
//! access `a`) is fully explored, `q` "sleeps" in the remaining
//! branches of that decision until some step dependent with `a` (or by
//! `q` itself) executes; a backtrack choice whose thread is still
//! asleep is discarded without running it. Waking is conservative —
//! dropping an entry early only costs pruning, never soundness.
//!
//! Reach: only yield-point decisions (`DecisionKind::SchedFree`) are
//! reduced. Forced handoffs (a thread blocked or finished — these
//! decide wake and lock-acquisition order without producing a fresh
//! step) and weak-memory value decisions are explored exhaustively,
//! exactly as the DFS engine explores them.

use crate::exec::{
    run_one, Access, Config, DecisionKind, ModelError, Report, RunOutcome, StepRec, MAX_SCHEDULES,
};
use crate::stats::Acc;

/// A fully-explored sibling branch of a free decision.
struct Done {
    choice: usize,
    tid: usize,
    /// First access the branch's thread performed, when one was seen
    /// (`None` for sleep-skipped branches and threads that finished
    /// without a visible op — such entries never enter sleep sets).
    access: Option<Access>,
}

enum Kind {
    /// Backtrackable yield-point decision.
    Free {
        /// Candidate tids in choice order.
        cands: Vec<usize>,
        /// First access of the currently-running branch, once bound.
        chosen_access: Option<Access>,
        /// Backtrack set: choice indices that must still be explored.
        pending: Vec<usize>,
        /// Fully-explored sibling branches.
        done: Vec<Done>,
    },
    /// Forced scheduling or value decision: every alternative explored.
    Exhaustive {
        /// Next unexplored choice.
        next: usize,
    },
}

/// One decision point on the current exploration path.
struct Node {
    arity: usize,
    chosen: usize,
    kind: Kind,
}

/// Extends the node stack with this execution's fresh decisions and
/// binds each free node's currently-chosen branch to the first access
/// its thread performed.
fn sync_nodes(nodes: &mut Vec<Node>, out: &RunOutcome) {
    debug_assert!(nodes.len() <= out.decisions.len());
    for (i, n) in nodes.iter().enumerate() {
        debug_assert_eq!(n.arity, out.decisions[i].arity, "nondeterministic arity");
        debug_assert_eq!(n.chosen, out.decisions[i].chosen, "replay diverged");
    }
    for d in &out.decisions[nodes.len()..] {
        nodes.push(Node {
            arity: d.arity,
            chosen: d.chosen,
            kind: match &d.kind {
                DecisionKind::SchedFree { cands } => Kind::Free {
                    cands: cands.clone(),
                    chosen_access: None,
                    pending: Vec::new(),
                    done: Vec::new(),
                },
                DecisionKind::SchedForced | DecisionKind::Value => {
                    Kind::Exhaustive { next: d.chosen + 1 }
                }
            },
        });
    }
    for s in &out.steps {
        if s.sched >= nodes.len() {
            continue;
        }
        let node = &mut nodes[s.sched];
        if let Kind::Free {
            cands,
            chosen_access,
            ..
        } = &mut node.kind
        {
            // Consistency net: only bind when the step really belongs to
            // the chosen branch (see `pending_sched` in exec.rs).
            if cands.get(node.chosen) == Some(&s.tid) {
                *chosen_access = Some(s.access);
            }
        }
    }
}

/// FG backtrack-point computation over one execution's step log: for
/// every dependent, non-HB-ordered pair `(i, j)` (keeping only the last
/// such `i` per `(j, thread-of-i)`), request thread-of-`j` at the
/// decision that scheduled `i`.
fn update_backtracks(nodes: &mut [Node], steps: &[StepRec]) {
    let nthreads = steps.iter().map(|s| s.tid + 1).max().unwrap_or(0);
    let mut handled = vec![false; nthreads];
    for j in 1..steps.len() {
        let sj = &steps[j];
        handled.fill(false);
        for i in (0..j).rev() {
            let si = &steps[i];
            if si.tid == sj.tid || handled[si.tid] {
                continue;
            }
            if !Access::dependent(si.tid, si.access, sj.tid, sj.access) {
                continue;
            }
            if si.stamp <= sj.clock.get(si.tid) {
                // Ordered through intermediate steps: not reorderable
                // here; the intermediates carry their own races.
                continue;
            }
            handled[si.tid] = true;
            add_backtrack(nodes, si, sj.tid);
        }
    }
}

/// Adds thread `q` (or, when `q` is not a candidate, every candidate —
/// the persistence fallback) to the backtrack set of the decision that
/// scheduled step `si`.
fn add_backtrack(nodes: &mut [Node], si: &StepRec, q: usize) {
    let d = si.sched;
    if d >= nodes.len() {
        // Forced or unrecorded (single-candidate) scheduling point:
        // forced decisions are exhaustive, and a single-candidate point
        // has no alternative to request.
        return;
    }
    let chosen = nodes[d].chosen;
    let Kind::Free {
        cands,
        pending,
        done,
        ..
    } = &mut nodes[d].kind
    else {
        return;
    };
    let add = |c: usize, pending: &mut Vec<usize>, done: &[Done]| {
        if c != chosen && !done.iter().any(|dn| dn.choice == c) && !pending.contains(&c) {
            pending.push(c);
        }
    };
    if let Some(c) = cands.iter().position(|&t| t == q) {
        add(c, pending, done);
    } else {
        for c in 0..cands.len() {
            add(c, pending, done);
        }
    }
}

/// The sleeping threads at node `n` of the current path: every thread
/// whose branch was fully explored at an ancestor decision and that no
/// later step along the path woke (by performing a dependent access) or
/// invalidated (by being that thread).
fn sleep_at(nodes: &[Node], steps: &[StepRec], n: usize) -> Vec<usize> {
    let mut sleep: Vec<(usize, Access)> = Vec::new();
    let mut injected = 0usize;
    let inject_upto = |upto: usize, sleep: &mut Vec<(usize, Access)>, injected: &mut usize| {
        let upto = upto.min(n);
        while *injected < upto {
            if let Kind::Free { done, .. } = &nodes[*injected].kind {
                for d in done {
                    if let Some(a) = d.access {
                        sleep.push((d.tid, a));
                    }
                }
            }
            *injected += 1;
        }
    };
    for s in steps {
        if s.ndecisions > n {
            break;
        }
        inject_upto(s.ndecisions, &mut sleep, &mut injected);
        sleep.retain(|&(t, a)| t != s.tid && !Access::dependent(t, a, s.tid, s.access));
    }
    inject_upto(n, &mut sleep, &mut injected);
    sleep.into_iter().map(|(t, _)| t).collect()
}

/// Pulls the next branch to explore at the deepest node, discarding
/// (and counting) backtrack choices whose thread is asleep. `None`
/// means the node is exhausted.
fn next_choice(nodes: &mut [Node], last_steps: &[StepRec], acc: &mut Acc) -> Option<usize> {
    let n = nodes.len() - 1;
    loop {
        match &nodes[n].kind {
            Kind::Exhaustive { next } => {
                let c = *next;
                if c >= nodes[n].arity {
                    return None;
                }
                let Kind::Exhaustive { next } = &mut nodes[n].kind else {
                    unreachable!()
                };
                *next += 1;
                return Some(c);
            }
            Kind::Free { cands, pending, .. } => {
                let &c = pending.iter().min()?;
                let q = cands[c];
                let asleep = sleep_at(nodes, last_steps, n).contains(&q);
                let Kind::Free { pending, done, .. } = &mut nodes[n].kind else {
                    unreachable!()
                };
                pending.retain(|&x| x != c);
                if asleep {
                    // Equivalent to an interleaving already explored:
                    // skip without executing.
                    done.push(Done {
                        choice: c,
                        tid: q,
                        access: None,
                    });
                    acc.pruned += 1;
                    continue;
                }
                return Some(c);
            }
        }
    }
}

/// Switches the deepest node onto branch `c`, retiring the branch that
/// just finished exploring.
fn take_branch(nodes: &mut [Node], c: usize) {
    let node = nodes.last_mut().expect("take_branch on empty stack");
    if let Kind::Free {
        cands,
        chosen_access,
        done,
        ..
    } = &mut node.kind
    {
        done.push(Done {
            choice: node.chosen,
            tid: cands[node.chosen],
            access: chosen_access.take(),
        });
    }
    node.chosen = c;
}

/// Retires the deepest node, counting the sibling subtrees DPOR never
/// had to enter.
fn pop_node(nodes: &mut Vec<Node>, acc: &mut Acc) {
    let node = nodes.pop().expect("pop_node on empty stack");
    if let Kind::Free { done, .. } = &node.kind {
        acc.pruned += node.arity.saturating_sub(done.len() + 1);
    }
}

/// The DPOR engine entry point.
pub(crate) fn explore<F>(config: &Config, f: &F, acc: &mut Acc) -> Result<Report, ModelError>
where
    F: Fn() + Sync,
{
    let mut nodes: Vec<Node> = Vec::new();
    let mut replay: Vec<usize> = Vec::new();
    let mut last_steps: Vec<StepRec>;
    let mut complete = true;
    'explore: loop {
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
        sync_nodes(&mut nodes, &out);
        last_steps = out.steps;
        update_backtracks(&mut nodes, &last_steps);
        loop {
            if nodes.is_empty() {
                break 'explore;
            }
            match next_choice(&mut nodes, &last_steps, acc) {
                Some(c) => {
                    take_branch(&mut nodes, c);
                    replay = nodes.iter().map(|nd| nd.chosen).collect();
                    continue 'explore;
                }
                None => pop_node(&mut nodes, acc),
            }
        }
    }
    Ok(acc.report(complete))
}
