//! Vector clocks: the happens-before backbone of the model checker and
//! the sanitizer.
//!
//! Every thread carries a clock with one component per thread; component
//! `i` counts the synchronizing steps thread `i` has taken. Event `a`
//! happens-before event `b` exactly when the clock recorded at `a` is
//! component-wise `<=` the clock of the thread executing `b`.

/// A growable vector clock; a component never touched reads 0.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct VClock {
    t: Vec<u32>,
}

impl VClock {
    /// The component for thread `i` (0 if never touched).
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        self.t.get(i).copied().unwrap_or(0)
    }

    fn grow_to(&mut self, i: usize) {
        if self.t.len() <= i {
            self.t.resize(i + 1, 0);
        }
    }

    /// Sets component `i` to `v`.
    pub fn set(&mut self, i: usize, v: u32) {
        self.grow_to(i);
        self.t[i] = v;
    }

    /// Advances thread `i`'s own component by one; returns the new value.
    pub fn bump(&mut self, i: usize) -> u32 {
        self.grow_to(i);
        self.t[i] += 1;
        self.t[i]
    }

    /// Component-wise maximum: `self := self ∪ other`.
    pub fn join(&mut self, other: &VClock) {
        self.grow_to(other.t.len().saturating_sub(1));
        for (i, &v) in other.t.iter().enumerate() {
            if self.t[i] < v {
                self.t[i] = v;
            }
        }
    }

    /// Raises component `i` to at least `v`.
    pub fn set_at_least(&mut self, i: usize, v: u32) {
        self.grow_to(i);
        if self.t[i] < v {
            self.t[i] = v;
        }
    }

    /// Component-wise `<=`: did everything up to `self` happen before a
    /// thread whose clock is `other`?
    pub fn le(&self, other: &VClock) -> bool {
        self.t.iter().enumerate().all(|(i, &v)| v <= other.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_and_le() {
        let mut a = VClock::default();
        let mut b = VClock::default();
        a.bump(0);
        b.bump(1);
        assert!(!a.le(&b));
        b.join(&a);
        assert!(a.le(&b));
        assert_eq!(b.get(0), 1);
        assert_eq!(b.get(1), 1);
    }

    #[test]
    fn bump_counts() {
        let mut a = VClock::default();
        assert_eq!(a.bump(2), 1);
        assert_eq!(a.bump(2), 2);
        assert_eq!(a.get(2), 2);
        assert_eq!(a.get(0), 0);
    }

    #[test]
    fn set_overwrites_and_set_at_least_only_raises() {
        let mut a = VClock::default();
        a.set(3, 7);
        assert_eq!(a.get(3), 7);
        a.set(3, 2);
        assert_eq!(a.get(3), 2);
        a.set_at_least(3, 1);
        assert_eq!(a.get(3), 2);
        a.set_at_least(3, 5);
        assert_eq!(a.get(3), 5);
    }
}
