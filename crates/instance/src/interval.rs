//! Half-open time intervals `[start, end)` and finite disjoint unions.
//!
//! The paper's Theorem 1 characterizes the optimal machine count through
//! *finite unions of intervals* `I` and job contributions `C(j, I)`;
//! [`IntervalSet`] is that object, kept sorted, disjoint and gap-separated.

use core::fmt;
use mm_numeric::Rat;

/// A half-open interval `[start, end)` on the rational time line.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Inclusive left endpoint.
    pub start: Rat,
    /// Exclusive right endpoint.
    pub end: Rat,
}

impl Interval {
    /// Builds `[start, end)`. Panics if `end < start`.
    pub fn new(start: Rat, end: Rat) -> Self {
        assert!(start <= end, "interval with negative length");
        Interval { start, end }
    }

    /// Builds an interval from integer endpoints.
    pub fn ints(start: i64, end: i64) -> Self {
        Interval::new(Rat::from(start), Rat::from(end))
    }

    /// The length `end − start`.
    pub fn length(&self) -> Rat {
        &self.end - &self.start
    }

    /// Whether the interval contains no points.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether `t ∈ [start, end)`.
    pub fn contains(&self, t: &Rat) -> bool {
        *t >= self.start && *t < self.end
    }

    /// Intersection with `other`, or `None` if they are disjoint (touching
    /// intervals produce an empty intersection, reported as `None`).
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let s = self.start.clone().max(other.start.clone());
        let e = self.end.clone().min(other.end.clone());
        if s < e {
            Some(Interval { start: s, end: e })
        } else {
            None
        }
    }

    /// Whether `other` is fully contained in `self`.
    pub fn contains_interval(&self, other: &Interval) -> bool {
        self.start <= other.start && other.end <= self.end
    }

    /// Whether the two intervals overlap in a set of positive measure.
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start < other.end && other.start < self.end
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// A finite union of disjoint half-open intervals, sorted by start, with
/// positive gaps between consecutive members (adjacent intervals are merged).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IntervalSet {
    parts: Vec<Interval>,
}

impl IntervalSet {
    /// The empty union.
    pub fn empty() -> Self {
        IntervalSet { parts: Vec::new() }
    }

    /// A union consisting of a single interval (empty if the interval is).
    pub fn single(iv: Interval) -> Self {
        let mut s = IntervalSet::empty();
        s.insert(iv);
        s
    }

    /// Builds from arbitrary (possibly overlapping, unsorted) intervals:
    /// one sort by start, then one merging sweep, so `O(k log k)` for `k`
    /// intervals. The result equals inserting them one at a time.
    pub fn from_intervals<I: IntoIterator<Item = Interval>>(ivs: I) -> Self {
        let mut s = IntervalSet {
            parts: ivs.into_iter().collect(),
        };
        s.parts.sort_by(|a, b| a.start.cmp(&b.start));
        s.normalize();
        s
    }

    /// The member intervals, sorted and disjoint.
    pub fn parts(&self) -> &[Interval] {
        &self.parts
    }

    /// Whether the union has measure zero.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Total length `|I|`.
    pub fn length(&self) -> Rat {
        let mut total = Rat::zero();
        for p in &self.parts {
            total += p.length();
        }
        total
    }

    /// Whether `t` lies in the union.
    pub fn contains(&self, t: &Rat) -> bool {
        self.parts.iter().any(|p| p.contains(t))
    }

    /// Inserts an interval, merging overlapping and touching members.
    pub fn insert(&mut self, iv: Interval) {
        if iv.is_empty() {
            return;
        }
        self.parts.push(iv);
        self.parts.sort_by(|a, b| a.start.cmp(&b.start));
        self.normalize();
    }

    fn normalize(&mut self) {
        let mut out: Vec<Interval> = Vec::with_capacity(self.parts.len());
        for p in self.parts.drain(..) {
            if p.is_empty() {
                continue;
            }
            match out.last_mut() {
                Some(last) if p.start <= last.end => {
                    if p.end > last.end {
                        last.end = p.end;
                    }
                }
                _ => out.push(p),
            }
        }
        self.parts = out;
    }

    /// Set union.
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        IntervalSet::from_intervals(self.parts.iter().chain(&other.parts).cloned())
    }

    /// Set intersection.
    pub fn intersection(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.parts.len() && j < other.parts.len() {
            if let Some(iv) = self.parts[i].intersect(&other.parts[j]) {
                out.push(iv);
            }
            if self.parts[i].end <= other.parts[j].end {
                i += 1;
            } else {
                j += 1;
            }
        }
        IntervalSet { parts: out }
    }

    /// Length of the intersection with a single interval — `|I ∩ [s,e)|`.
    pub fn overlap_length(&self, iv: &Interval) -> Rat {
        let mut total = Rat::zero();
        for p in &self.parts {
            if let Some(x) = p.intersect(iv) {
                total += x.length();
            }
        }
        total
    }
}

impl fmt::Display for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.parts.is_empty() {
            return write!(f, "∅");
        }
        for (i, p) in self.parts.iter().enumerate() {
            if i > 0 {
                write!(f, " ∪ ")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: i64, b: i64) -> Interval {
        Interval::ints(a, b)
    }

    #[test]
    fn interval_basics() {
        let i = iv(2, 5);
        assert_eq!(i.length(), Rat::from(3i64));
        assert!(i.contains(&Rat::from(2i64)));
        assert!(i.contains(&Rat::from(4i64)));
        assert!(!i.contains(&Rat::from(5i64)));
        assert!(!iv(3, 3).contains(&Rat::from(3i64)));
        assert!(iv(3, 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "negative length")]
    fn reversed_interval_panics() {
        let _ = iv(5, 2);
    }

    #[test]
    fn intersect_cases() {
        assert_eq!(iv(0, 4).intersect(&iv(2, 6)), Some(iv(2, 4)));
        assert_eq!(iv(0, 2).intersect(&iv(2, 4)), None); // touching
        assert_eq!(iv(0, 1).intersect(&iv(3, 4)), None);
        assert_eq!(iv(0, 10).intersect(&iv(3, 4)), Some(iv(3, 4)));
    }

    #[test]
    fn containment_and_overlap() {
        assert!(iv(0, 10).contains_interval(&iv(3, 4)));
        assert!(iv(0, 10).contains_interval(&iv(0, 10)));
        assert!(!iv(1, 10).contains_interval(&iv(0, 4)));
        assert!(iv(0, 4).overlaps(&iv(3, 8)));
        assert!(!iv(0, 4).overlaps(&iv(4, 8)));
    }

    #[test]
    fn set_insert_merges() {
        let mut s = IntervalSet::empty();
        s.insert(iv(0, 2));
        s.insert(iv(4, 6));
        s.insert(iv(1, 5)); // bridges the gap
        assert_eq!(s.parts(), &[iv(0, 6)]);
        assert_eq!(s.length(), Rat::from(6i64));
    }

    #[test]
    fn set_insert_touching_merges() {
        let s = IntervalSet::from_intervals([iv(0, 2), iv(2, 4)]);
        assert_eq!(s.parts(), &[iv(0, 4)]);
    }

    #[test]
    fn set_keeps_gaps() {
        let s = IntervalSet::from_intervals([iv(5, 6), iv(0, 2), iv(3, 4)]);
        assert_eq!(s.parts(), &[iv(0, 2), iv(3, 4), iv(5, 6)]);
        assert_eq!(s.length(), Rat::from(4i64));
        assert!(s.contains(&Rat::from(3i64)));
        assert!(!s.contains(&Rat::from(2i64)));
    }

    #[test]
    fn set_union_intersection() {
        let a = IntervalSet::from_intervals([iv(0, 3), iv(6, 9)]);
        let b = IntervalSet::from_intervals([iv(2, 7)]);
        assert_eq!(a.union(&b).parts(), &[iv(0, 9)]);
        assert_eq!(a.intersection(&b).parts(), &[iv(2, 3), iv(6, 7)]);
        assert_eq!(a.intersection(&IntervalSet::empty()), IntervalSet::empty());
    }

    #[test]
    fn overlap_length() {
        let a = IntervalSet::from_intervals([iv(0, 3), iv(6, 9)]);
        assert_eq!(a.overlap_length(&iv(2, 8)), Rat::from(3i64)); // [2,3) + [6,8)
        assert_eq!(a.overlap_length(&iv(3, 6)), Rat::zero());
    }

    #[test]
    fn empty_inserts_ignored() {
        let mut s = IntervalSet::empty();
        s.insert(iv(1, 1));
        assert!(s.is_empty());
        assert_eq!(s.length(), Rat::zero());
    }
}
