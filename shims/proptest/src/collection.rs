//! Collection strategies (`prop::collection`).

use crate::{Strategy, TestRng};

/// Acceptable size arguments for [`vec()`]: an exact size or a range.
pub trait SizeRange {
    /// Draws a length.
    fn sample_len(&self, rng: &mut TestRng) -> usize;
}

impl SizeRange for usize {
    fn sample_len(&self, _rng: &mut TestRng) -> usize {
        *self
    }
}

impl SizeRange for std::ops::Range<usize> {
    fn sample_len(&self, rng: &mut TestRng) -> usize {
        assert!(self.start < self.end, "empty vec size range");
        self.start + rng.below((self.end - self.start) as u64) as usize
    }
}

impl SizeRange for std::ops::RangeInclusive<usize> {
    fn sample_len(&self, rng: &mut TestRng) -> usize {
        assert!(self.start() <= self.end(), "empty vec size range");
        self.start() + rng.below((self.end() - self.start() + 1) as u64) as usize
    }
}

/// Strategy for `Vec<T>` with element strategy `S` and a size range.
#[derive(Debug, Clone)]
pub struct VecStrategy<S, R> {
    element: S,
    size: R,
}

impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.size.sample_len(rng);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// `prop::collection::vec(element, size)`.
pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
    VecStrategy { element, size }
}
