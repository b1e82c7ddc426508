//! Coschedules and covering schedules.
//!
//! Following §3 of the paper: "A schedule is a covering set of coschedules
//! such that every job appears in an equal number of coschedules", and "we
//! consider jobschedules to be identical if they coschedule the same tuples
//! regardless of the order in which the tuples are scheduled."
//!
//! A [`Schedule`] is represented by a circular order of the runnable threads
//! plus the machine's multithreading level `y` and swap count `z`. The
//! running set at slice `s` is the window of `y` consecutive threads starting
//! at offset `s·z` in the circular order — exactly the paper's FIFO swap
//! discipline. For `z == y` with `y` dividing the job count this reduces to a
//! fixed partition into tuples; for `z < y` it is warmstart scheduling (§8).

use serde::{Deserialize, Serialize};

/// One coschedule: the set of threads that run simultaneously during a
/// timeslice. Stored sorted.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Coschedule(Vec<usize>);

impl Coschedule {
    /// Builds a coschedule from thread indices (deduplicated and sorted).
    ///
    /// # Panics
    /// Panics if `threads` is empty or contains duplicates.
    pub fn new(threads: impl IntoIterator<Item = usize>) -> Self {
        let mut v: Vec<usize> = threads.into_iter().collect();
        assert!(!v.is_empty(), "a coschedule needs at least one thread");
        v.sort_unstable();
        let before = v.len();
        v.dedup();
        assert_eq!(
            before,
            v.len(),
            "a coschedule cannot contain a thread twice"
        );
        Coschedule(v)
    }

    /// The threads in this coschedule, sorted ascending.
    pub fn threads(&self) -> &[usize] {
        &self.0
    }

    /// Number of threads.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the tuple is empty (never true; see [`Coschedule::new`]).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether `thread` is in the tuple.
    pub fn contains(&self, thread: usize) -> bool {
        self.0.binary_search(&thread).is_ok()
    }
}

impl std::fmt::Display for Coschedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for t in &self.0 {
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

/// A covering schedule over `x` threads: a circular thread order executed as
/// sliding windows of size `y` advancing by `z` threads per timeslice.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    order: Vec<usize>,
    y: usize,
    z: usize,
}

impl Schedule {
    /// Builds a schedule from a circular thread `order`, multithreading level
    /// `y`, and per-timeslice swap count `z`.
    ///
    /// ```
    /// use sos_core::schedule::Schedule;
    /// // The paper's 012_345: 6 jobs, 3 at a time, swap all 3 per slice.
    /// let s = Schedule::new(vec![0, 1, 2, 3, 4, 5], 3, 3);
    /// assert_eq!(s.paper_notation(), "012_345");
    /// ```
    ///
    /// # Panics
    /// Panics if `order` is empty or has duplicates, if `y == 0` or
    /// `z == 0`, or if `z > y`.
    pub fn new(order: Vec<usize>, y: usize, z: usize) -> Self {
        assert!(!order.is_empty(), "a schedule needs at least one thread");
        assert!(y >= 1 && z >= 1 && z <= y, "need 1 <= z <= y");
        assert!(
            Self::fair_shape(order.len(), y, z),
            "unfair shape: windows of {y} advancing by {z} over {} threads do not \
             cover every thread equally (gcd(x,z) must divide y)",
            order.len()
        );
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            order.len(),
            "schedule order cannot repeat a thread"
        );
        Schedule { order, y, z }
    }

    /// Whether the sliding-window discipline is a *fair* covering for this
    /// shape: every thread appears in the same number of coschedules. This
    /// holds exactly when everyone fits (`y >= x`) or `gcd(x, z)` divides
    /// `y`; the paper's swap-all (`z == y`) and swap-one (`z == 1`)
    /// disciplines always qualify.
    pub fn fair_shape(x: usize, y: usize, z: usize) -> bool {
        y >= x || y.is_multiple_of(gcd(x, z))
    }

    /// Number of runnable threads `x`.
    pub fn num_threads(&self) -> usize {
        self.order.len()
    }

    /// The multithreading level `y` (threads per coschedule, capped at `x`).
    pub fn tuple_size(&self) -> usize {
        self.y.min(self.order.len())
    }

    /// The circular thread order.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Number of timeslices in one full rotation (after which the schedule
    /// repeats): `x / gcd(x, z)`.
    ///
    /// For `Jsb(6,3,3)` this is 2; for `Jsb(5,2,2)` it is 5; for swap-one
    /// schedules it is `x`.
    pub fn slices_per_rotation(&self) -> usize {
        let x = self.order.len();
        if self.y >= x {
            // Everyone fits: a single coschedule, no swapping.
            return 1;
        }
        x / gcd(x, self.z)
    }

    /// The coschedule run during slice `s` (slices count from 0 and wrap
    /// around the rotation).
    pub fn tuple_at(&self, s: usize) -> Coschedule {
        let x = self.order.len();
        let y = self.tuple_size();
        let start = (s % self.slices_per_rotation()) * self.z % x;
        Coschedule::new((0..y).map(|k| self.order[(start + k) % x]))
    }

    /// All coschedules of one rotation, in execution order.
    pub fn tuples(&self) -> Vec<Coschedule> {
        (0..self.slices_per_rotation())
            .map(|s| self.tuple_at(s))
            .collect()
    }

    /// The canonical identity of the schedule: the sorted multiset of its
    /// tuples. Two schedules with equal keys coschedule the same tuples and
    /// are considered identical (§3 of the paper).
    pub fn canonical_key(&self) -> Vec<Coschedule> {
        let mut t = self.tuples();
        t.sort();
        t
    }

    /// Whether every thread appears in the same number of coschedules (the
    /// paper's covering/fairness requirement). True by construction for the
    /// window representation; exposed for property tests.
    pub fn is_fair_covering(&self) -> bool {
        let mut counts = std::collections::HashMap::new();
        for t in self.tuples() {
            for &th in t.threads() {
                *counts.entry(th).or_insert(0usize) += 1;
            }
        }
        let mut vals = counts.values();
        let Some(&first) = vals.next() else {
            return false;
        };
        counts.len() == self.order.len() && vals.all(|&v| v == first)
    }

    /// Formats like the paper: `012_345` (tuples joined by underscores).
    pub fn paper_notation(&self) -> String {
        self.tuples()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("_")
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.paper_notation())
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_012_345() {
        // Jsb(6,3,3): order 0..6, windows of 3 advancing by 3.
        let s = Schedule::new(vec![0, 1, 2, 3, 4, 5], 3, 3);
        assert_eq!(s.slices_per_rotation(), 2);
        assert_eq!(s.paper_notation(), "012_345");
        assert!(s.is_fair_covering());
    }

    #[test]
    fn five_jobs_two_at_a_time_swap_two() {
        // Jsb(5,2,2): 5 slices, every job twice.
        let s = Schedule::new(vec![0, 1, 2, 3, 4], 2, 2);
        assert_eq!(s.slices_per_rotation(), 5);
        let tuples = s.tuples();
        assert_eq!(tuples.len(), 5);
        assert_eq!(s.paper_notation(), "01_23_04_12_34");
        assert!(s.is_fair_covering());
    }

    #[test]
    fn swap_one_windows() {
        // Jsb(6,3,1): 6 slices, consecutive windows.
        let s = Schedule::new(vec![0, 1, 2, 3, 4, 5], 3, 1);
        assert_eq!(s.slices_per_rotation(), 6);
        assert_eq!(s.tuple_at(0), Coschedule::new([0, 1, 2]));
        assert_eq!(s.tuple_at(1), Coschedule::new([1, 2, 3]));
        assert_eq!(s.tuple_at(5), Coschedule::new([5, 0, 1]));
        assert!(s.is_fair_covering());
    }

    #[test]
    fn everyone_fits_single_tuple() {
        let s = Schedule::new(vec![3, 1, 2], 4, 1);
        assert_eq!(s.slices_per_rotation(), 1);
        assert_eq!(s.tuples(), vec![Coschedule::new([1, 2, 3])]);
    }

    #[test]
    fn canonical_key_ignores_tuple_order() {
        // 012_345 and 345_012 are the same schedule.
        let a = Schedule::new(vec![0, 1, 2, 3, 4, 5], 3, 3);
        let b = Schedule::new(vec![3, 4, 5, 0, 1, 2], 3, 3);
        assert_eq!(a.canonical_key(), b.canonical_key());
        // ...and order within a tuple doesn't matter either.
        let c = Schedule::new(vec![2, 1, 0, 5, 4, 3], 3, 3);
        assert_eq!(a.canonical_key(), c.canonical_key());
        // But regrouping differs.
        let d = Schedule::new(vec![0, 1, 3, 2, 4, 5], 3, 3);
        assert_ne!(a.canonical_key(), d.canonical_key());
    }

    #[test]
    fn coschedule_sorts_and_finds() {
        let c = Coschedule::new([5, 1, 3]);
        assert_eq!(c.threads(), &[1, 3, 5]);
        assert!(c.contains(3));
        assert!(!c.contains(2));
        assert_eq!(c.to_string(), "135");
    }

    #[test]
    #[should_panic(expected = "cannot contain a thread twice")]
    fn duplicate_thread_rejected() {
        let _ = Coschedule::new([1, 1]);
    }

    #[test]
    #[should_panic(expected = "cannot repeat a thread")]
    fn duplicate_in_order_rejected() {
        let _ = Schedule::new(vec![0, 1, 1], 2, 2);
    }

    #[test]
    #[should_panic(expected = "1 <= z <= y")]
    fn z_above_y_rejected() {
        let _ = Schedule::new(vec![0, 1, 2], 2, 3);
    }

    #[test]
    #[should_panic(expected = "unfair shape")]
    fn unfair_shape_rejected() {
        // Windows of 3 advancing by 2 over 4 threads cover threads unevenly.
        let _ = Schedule::new(vec![0, 1, 2, 3], 3, 2);
    }

    #[test]
    fn fair_shape_predicate() {
        assert!(Schedule::fair_shape(6, 3, 3));
        assert!(Schedule::fair_shape(6, 3, 1));
        assert!(Schedule::fair_shape(5, 2, 2));
        assert!(Schedule::fair_shape(8, 4, 2)); // gcd(8,2)=2 divides 4
        assert!(!Schedule::fair_shape(4, 3, 2)); // gcd(4,2)=2 does not divide 3
        assert!(Schedule::fair_shape(2, 5, 1)); // everyone fits
    }

    #[test]
    fn display_matches_notation() {
        let s = Schedule::new(vec![0, 1, 2, 3], 2, 2);
        assert_eq!(s.to_string(), "01_23");
    }
}
