//! Collection strategies.

use core::ops::{Range, RangeInclusive};

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Length specifications accepted by [`vec()`].
pub trait SizeRange {
    /// Draws a length.
    fn draw_len(&self, rng: &mut TestRng) -> usize;
}

impl SizeRange for usize {
    fn draw_len(&self, _rng: &mut TestRng) -> usize {
        *self
    }
}

impl SizeRange for Range<usize> {
    fn draw_len(&self, rng: &mut TestRng) -> usize {
        Strategy::generate(self, rng)
    }
}

impl SizeRange for RangeInclusive<usize> {
    fn draw_len(&self, rng: &mut TestRng) -> usize {
        Strategy::generate(self, rng)
    }
}

/// Generates `Vec`s whose length is drawn from `size` and whose elements
/// come from `element`.
pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
    VecStrategy { element, size }
}

/// See [`vec()`].
pub struct VecStrategy<S, R> {
    element: S,
    size: R,
}

impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.size.draw_len(rng);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_respects_length_range() {
        let mut rng = TestRng::new(9);
        let s = vec(0i64..100, 2..5);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|x| (0..100).contains(x)));
        }
    }
}
