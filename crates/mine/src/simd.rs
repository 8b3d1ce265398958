//! SIMD-width chunked bitset kernels for the dense tid-set hot path.
//!
//! Eclat's dense intersections are word-wise AND + popcount over packed
//! `u64` bitsets. The scalar loop leaves instruction-level parallelism
//! on the table: one AND, one `popcnt`, and one dependent accumulator
//! add per iteration. [`and_popcount`] processes four words per
//! iteration with four independent popcount accumulators, which the
//! compiler turns into wide vector ANDs and keeps the popcount chains
//! independent — the same unroll-by-register-width trick explicit
//! `std::simd` code would express, without the nightly dependency.
//! [`and_count`] is the same loop without the store, for intersections
//! that are only ever counted.
//!
//! [`and_popcount_scalar`] is the obviously-correct reference the
//! differential property in `crates/check/tests/scheduler.rs` compares
//! against, including tail lengths not divisible by the chunk width.

/// Words processed per unrolled iteration.
const CHUNK: usize = 4;

/// Scalar reference: word-wise AND with a running popcount.
///
/// Operands may differ in length; the intersection is computed over the
/// common prefix (a missing word is an all-zero word, and `x & 0 == 0`,
/// so truncation loses nothing).
pub fn and_popcount_scalar(a: &[u64], b: &[u64]) -> (Vec<u64>, u64) {
    let n = a.len().min(b.len());
    let mut words = Vec::with_capacity(n);
    let mut count = 0u64;
    for (x, y) in a[..n].iter().zip(&b[..n]) {
        let w = x & y;
        count += u64::from(w.count_ones());
        words.push(w);
    }
    (words, count)
}

/// Chunked AND + popcount into `out`: writes `a[i] & b[i]` for every
/// `i < out.len()` and returns the number of set bits written. u64×4
/// unrolled with independent accumulators.
///
/// Byte-identical to [`and_popcount_scalar`] on every input —
/// property-tested, including tails of 1–3 words. Panics if an operand
/// is shorter than `out`.
pub fn and_popcount(a: &[u64], b: &[u64], out: &mut [u64]) -> u64 {
    let n = out.len();
    let (a, b) = (&a[..n], &b[..n]);
    let (mut c0, mut c1, mut c2, mut c3) = (0u64, 0u64, 0u64, 0u64);
    let mut outs = out.chunks_exact_mut(CHUNK);
    let mut xs = a.chunks_exact(CHUNK);
    let mut ys = b.chunks_exact(CHUNK);
    for ((o, x), y) in (&mut outs).zip(&mut xs).zip(&mut ys) {
        let w0 = x[0] & y[0];
        let w1 = x[1] & y[1];
        let w2 = x[2] & y[2];
        let w3 = x[3] & y[3];
        o[0] = w0;
        o[1] = w1;
        o[2] = w2;
        o[3] = w3;
        c0 += u64::from(w0.count_ones());
        c1 += u64::from(w1.count_ones());
        c2 += u64::from(w2.count_ones());
        c3 += u64::from(w3.count_ones());
    }
    for ((o, x), y) in outs
        .into_remainder()
        .iter_mut()
        .zip(xs.remainder())
        .zip(ys.remainder())
    {
        let w = x & y;
        *o = w;
        c0 += u64::from(w.count_ones());
    }
    c0 + c1 + c2 + c3
}

/// Popcount of `a & b` over the common prefix, writing nothing: the
/// count-only kernel for intersections that are never stored.
///
/// Equal to the count [`and_popcount`] returns on the same operands —
/// property-tested, including tails of 1–3 words.
pub fn and_count(a: &[u64], b: &[u64]) -> u64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let (mut c0, mut c1, mut c2, mut c3) = (0u64, 0u64, 0u64, 0u64);
    let mut xs = a.chunks_exact(CHUNK);
    let mut ys = b.chunks_exact(CHUNK);
    for (x, y) in (&mut xs).zip(&mut ys) {
        c0 += u64::from((x[0] & y[0]).count_ones());
        c1 += u64::from((x[1] & y[1]).count_ones());
        c2 += u64::from((x[2] & y[2]).count_ones());
        c3 += u64::from((x[3] & y[3]).count_ones());
    }
    for (x, y) in xs.remainder().iter().zip(ys.remainder()) {
        c0 += u64::from((x & y).count_ones());
    }
    c0 + c1 + c2 + c3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize, salt: u64) -> Vec<u64> {
        (0..len as u64)
            .map(|i| {
                (i ^ salt)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .rotate_left((i % 63) as u32)
            })
            .collect()
    }

    /// The chunked kernels over the common prefix, as one tuple.
    fn chunked(a: &[u64], b: &[u64]) -> (Vec<u64>, u64) {
        let mut words = vec![0u64; a.len().min(b.len())];
        let count = and_popcount(a, b, &mut words);
        assert_eq!(and_count(a, b), count);
        (words, count)
    }

    #[test]
    fn chunked_matches_scalar_at_every_tail_length() {
        for len in 0..=19 {
            let a = pattern(len, 0xa5a5);
            let b = pattern(len, 0x5a5a);
            assert_eq!(chunked(&a, &b), and_popcount_scalar(&a, &b), "len {len}");
        }
    }

    #[test]
    fn mismatched_lengths_truncate_to_common_prefix() {
        let a = pattern(13, 1);
        let b = pattern(7, 2);
        let (words, count) = chunked(&a, &b);
        assert_eq!(words.len(), 7);
        assert_eq!((words, count), and_popcount_scalar(&a, &b));
    }

    #[test]
    fn empty_inputs_yield_empty() {
        assert_eq!(chunked(&[], &[]), (Vec::new(), 0));
        assert_eq!(chunked(&[1, 2, 3], &[]), (Vec::new(), 0));
    }
}
