//! PCT-style randomized schedule sampling.
//!
//! Probabilistic concurrency testing (Burckhardt et al., ASPLOS 2010)
//! replaces exhaustive enumeration with randomized *priority* schedules:
//! every thread gets a distinct random priority, `d` priority-change
//! points are sampled along the run, and at every scheduling point the
//! highest-priority runnable thread runs. A bug of preemption depth `d`
//! is found with probability ≥ 1/(n·k^(d-1)) per schedule, independent
//! of how deep the exhaustive engines could reach.
//!
//! All randomness comes from a seeded xorshift64* PRNG — no OS entropy —
//! so schedule `i` of a run is a pure function of `(base_seed, i, d)`.
//! A failing run prints its per-schedule seed as a `seed:depth` pair;
//! `Config::pct_replay` (or the `CILKM_CHECK_SEED` env var) re-runs
//! exactly that schedule.

use cilkm_base::rng::{mix64, XorShift64, GAMMA};

use crate::exec::{run_one, Chooser, Config, Engine, ModelError, Report};
use crate::stats::Acc;

/// Priority-change points are sampled uniformly from `1..=PCT_EST_LEN`
/// steps. A fixed horizon keeps a schedule a pure function of its seed
/// (an adaptive estimate would make replay depend on run history);
/// points past the actual execution length simply never fire. Model
/// tests in this tree run a few dozen to a few hundred visible ops, so
/// 256 covers them with slack.
const PCT_EST_LEN: u64 = 256;

/// Priorities at or above this are "high" (initial, random); change
/// points assign strictly decreasing priorities below it.
const HIGH_BASE: u64 = 1 << 32;

/// A value in `0..n` by plain modulo (the bias is irrelevant at these
/// ranges, and replayed seeds depend on it staying modulo).
fn below(rng: &mut XorShift64, n: u64) -> u64 {
    debug_assert!(n > 0);
    rng.next_u64() % n
}

/// Derives schedule `i`'s seed from the base seed.
fn mix(base: u64, i: u64) -> u64 {
    mix64(base ^ i.wrapping_mul(GAMMA))
}

/// Per-schedule scheduler state: priorities, change points, PRNG.
#[derive(Clone, Debug)]
pub(crate) struct PctState {
    rng: XorShift64,
    /// Priority per thread id; higher runs first, ties break to the
    /// lower tid.
    prio: Vec<u64>,
    /// Step counts at which the then-active thread's priority drops.
    change_points: Vec<u64>,
    /// Next "low" priority to hand out (strictly decreasing, all below
    /// `HIGH_BASE`, so a changed thread ranks below every unchanged one
    /// and below previously-changed ones).
    next_low: u64,
    steps_seen: u64,
}

impl PctState {
    pub(crate) fn new(seed: u64, depth: usize) -> PctState {
        let mut rng = XorShift64::new(seed);
        let change_points: Vec<u64> = (0..depth)
            .map(|_| 1 + below(&mut rng, PCT_EST_LEN))
            .collect();
        let main_prio = HIGH_BASE + below(&mut rng, HIGH_BASE);
        PctState {
            rng,
            prio: vec![main_prio],
            change_points,
            next_low: depth as u64 + 1,
            steps_seen: 0,
        }
    }

    fn ensure(&mut self, tid: usize) {
        while self.prio.len() <= tid {
            let p = HIGH_BASE + below(&mut self.rng, HIGH_BASE);
            self.prio.push(p);
        }
    }

    /// Called when thread `child` is created.
    pub(crate) fn on_spawn(&mut self, child: usize) {
        self.ensure(child);
    }

    /// Called once per executed visible operation; fires any change
    /// point scheduled for this step by demoting the executing thread.
    pub(crate) fn on_step(&mut self, tid: usize) {
        self.steps_seen += 1;
        if let Some(pos) = self
            .change_points
            .iter()
            .position(|&p| p == self.steps_seen)
        {
            self.change_points.swap_remove(pos);
            self.ensure(tid);
            self.next_low -= 1;
            self.prio[tid] = self.next_low;
        }
    }

    /// Scheduling decision: the highest-priority candidate runs.
    pub(crate) fn pick_sched(&mut self, cands: &[usize]) -> usize {
        if let Some(&max) = cands.iter().max() {
            self.ensure(max);
        }
        let mut best = 0;
        for (i, &t) in cands.iter().enumerate() {
            let better = self.prio[t] > self.prio[cands[best]]
                || (self.prio[t] == self.prio[cands[best]] && t < cands[best]);
            if i > 0 && better {
                best = i;
            }
        }
        best
    }

    /// Weak-memory value decision: uniform over the legal stores.
    pub(crate) fn pick_value(&mut self, n: usize) -> usize {
        below(&mut self.rng, n as u64) as usize
    }
}

/// Parses a `seed:depth` replay pair (the format failing runs print).
fn parse_replay_pair(s: &str) -> Option<(u64, usize)> {
    let (seed, depth) = s.split_once(':')?;
    Some((seed.trim().parse().ok()?, depth.trim().parse().ok()?))
}

/// The PCT engine entry point: samples `config.max_schedules` seeded
/// schedules (or replays exactly one for [`Engine::PctReplay`] / the
/// `CILKM_CHECK_SEED` env var).
pub(crate) fn explore<F>(config: &Config, f: &F, acc: &mut Acc) -> Result<Report, ModelError>
where
    F: Fn() + Sync,
{
    let (base_seed, depth, single) = match config.engine {
        Engine::Pct { seed, depth } => match std::env::var("CILKM_CHECK_SEED") {
            Ok(v) => {
                let (s, d) = parse_replay_pair(&v)
                    .unwrap_or_else(|| panic!("CILKM_CHECK_SEED must be `seed:depth`, got {v:?}"));
                (s, d, true)
            }
            Err(_) => (seed, depth, false),
        },
        Engine::PctReplay { seed, depth } => (seed, depth, true),
        _ => unreachable!("pct::explore dispatched for a non-PCT engine"),
    };
    let total = if single { 1 } else { config.max_schedules };
    for i in 0..total {
        let sched_seed = if single {
            base_seed
        } else {
            mix(base_seed, i as u64)
        };
        acc.schedules += 1;
        let out = run_one(config, Chooser::Pct(PctState::new(sched_seed, depth)), f);
        acc.absorb(&out);
        if let Some(msg) = out.failure {
            return Err(ModelError {
                message: format!("{msg}\n  pct replay: CILKM_CHECK_SEED={sched_seed}:{depth}"),
                schedule: out.schedule,
                schedules_explored: acc.schedules,
            });
        }
    }
    // Sampling never proves exhaustion.
    Ok(acc.report(false))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_streams_are_pinned() {
        let mut r = XorShift64::new(42);
        let words: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            words,
            [
                0x56ce_4ab7_719b_a3a0,
                0xc841_eb53_ebbb_2dda,
                0xca46_6be0_c998_0276,
                0xf1ac_c733_4a7b_70df
            ]
        );
        let drawn: Vec<u64> = (0..8).map(|_| below(&mut r, 1000)).collect();
        assert_eq!(drawn, [678, 875, 562, 223, 536, 878, 117, 27]);
        assert_eq!(XorShift64::new(0).next_u64(), 0x0d83_b3e2_9a21_487a);
        assert_eq!(
            [mix(7, 0), mix(7, 1), mix(8, 0)],
            [
                0x12ae_3023_7b17_df14,
                0xf75f_04cb_b5a1_a1dd,
                0xd56b_1fbb_9ceb_a9e8
            ]
        );
    }

    #[test]
    fn change_point_demotes_below_everyone() {
        let mut p = PctState::new(1, 1);
        p.on_spawn(1);
        let point = p.change_points[0];
        for _ in 0..point {
            p.on_step(0);
        }
        assert!(p.change_points.is_empty(), "change point must fire");
        assert!(p.prio[0] < HIGH_BASE, "demoted below every high priority");
        // Thread 1 now outranks thread 0.
        assert_eq!(p.pick_sched(&[0, 1]), 1);
    }

    #[test]
    fn replay_pair_parses() {
        assert_eq!(parse_replay_pair("123:4"), Some((123, 4)));
        assert_eq!(parse_replay_pair("nope"), None);
        assert_eq!(parse_replay_pair("1:x"), None);
    }
}
