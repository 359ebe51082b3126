//! The hyperobject extension interface between the scheduler and the
//! reducer layer.
//!
//! The paper's central observation is that a set of local views belongs to
//! an *execution context*, not to a worker (§3): a frame's views follow
//! steals, deposits, and merges. The scheduler therefore exposes exactly
//! the context transitions, and a reducer backend (hypermap or
//! memory-mapped) supplies what happens at each:
//!
//! | scheduler event                         | hook                 |
//! |-----------------------------------------|----------------------|
//! | stolen task finishes → **view transferal** into the join frame's right placeholder; a worker waiting at a join sets its context aside to run a foreign job (leapfrogging) | [`HyperHooks::detach`] |
//! | the foreign job is done → the waiting context is installed again | [`HyperHooks::attach`] |
//! | both sides of a join done → **hypermerge**, left ⊗ right | [`HyperHooks::merge_right`] |
//! | root task of `Pool::run` finishes → fold views into reducer leftmost storage | [`HyperHooks::collect_root`] |
//! | a side panicked → its views are destroyed unmerged | [`HyperHooks::discard`] |
//!
//! The runtime maintains the invariant that a worker's *current* view set
//! is empty whenever the worker is idle (stealing at top level): every
//! foreign job execution ends in a `detach`, and `detach` leaves the
//! current context empty — for the memory-mapped backend this is the
//! zeroing of the private SPA maps that §7 calls out as essential before
//! the worker engages in work-stealing again. There is one way to move a
//! view set between contexts, §7's copy: leapfrogging takes it like every
//! other transferal (`detach` before the foreign job, `attach` after).

use std::any::Any;

/// A type-erased set of local views detached from an execution context —
/// the thing that gets deposited into a join frame's placeholder.
///
/// For the hypermap backend this is the hypermap itself (pointer
/// switching, §7); for the memory-mapped backend it is one flat,
/// exactly-sized list of `(slot, view pointer, monoid pointer)` copied
/// out of the private SPA maps in the worker's page array. Either way
/// the set owns its views: dropping it destroys them.
pub type DetachedViews = Box<dyn Any + Send>;

/// Per-worker backend state (the page array of private SPA maps, or the
/// current hypermap), created on the worker's own thread.
pub type WorkerState = Box<dyn Any + Send>;

/// Scheduler-to-reducer callbacks. One implementation is installed per
/// pool; all methods except [`HyperHooks::make_worker_state`] are called
/// on worker threads with that worker's own state.
pub trait HyperHooks: Send + Sync + 'static {
    /// Creates the per-worker state. Called exactly once per worker, on
    /// the worker thread itself before it starts scheduling — so the
    /// backend may also initialize thread-local fast-path pointers here.
    fn make_worker_state(&self, index: usize) -> WorkerState;

    /// View transferal: removes the worker's current view set and returns
    /// it in shareable form, leaving the current context empty. Called
    /// when a stolen task ends (the set goes to the join frame) and when
    /// a waiting worker leapfrogs (the set comes back through
    /// [`HyperHooks::attach`] on the same worker).
    fn detach(&self, state: &mut dyn Any) -> DetachedViews;

    /// Installs a previously detached view set as the current one — the
    /// only way a set is installed. The current context must be empty.
    fn attach(&self, state: &mut dyn Any, views: DetachedViews);

    /// Hypermerge: reduces `right` into the worker's current view set,
    /// with the current set on the left (serially earlier). Afterwards
    /// the current set holds `left ⊗ right` and `right` is consumed.
    fn merge_right(&self, state: &mut dyn Any, right: DetachedViews);

    /// End of a `Pool::run` root task: folds the worker's current views
    /// into their reducers' leftmost storage and empties the context.
    /// Runs the monoids' `reduce`; if it unwinds, the context must still
    /// be left empty and every view not yet folded destroyed.
    fn collect_root(&self, state: &mut dyn Any);

    /// Destroys a detached view set without merging (panic paths).
    fn discard(&self, views: DetachedViews);
}

/// The do-nothing hooks used by pools that run no reducers.
pub struct NoopHooks;

impl HyperHooks for NoopHooks {
    fn make_worker_state(&self, _index: usize) -> WorkerState {
        Box::new(())
    }

    fn detach(&self, _state: &mut dyn Any) -> DetachedViews {
        Box::new(())
    }

    fn attach(&self, _state: &mut dyn Any, _views: DetachedViews) {}

    fn merge_right(&self, _state: &mut dyn Any, _right: DetachedViews) {}

    fn collect_root(&self, _state: &mut dyn Any) {}

    fn discard(&self, _views: DetachedViews) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_hooks_round_trip() {
        let hooks = NoopHooks;
        let mut state = hooks.make_worker_state(0);
        let views = hooks.detach(state.as_mut());
        hooks.attach(state.as_mut(), views);
        let views = hooks.detach(state.as_mut());
        hooks.merge_right(state.as_mut(), views);
        hooks.collect_root(state.as_mut());
        hooks.discard(Box::new(()));
    }
}
