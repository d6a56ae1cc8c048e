//! # progen — planted-idiom program generation and differential fuzzing
//!
//! The suite-wide differential validator (PR 3) proves program-scale
//! soundness on 21 hand-reconstructed benchmarks — a fixed corpus the
//! idiom library was written against. This crate turns that validator
//! into an oracle over an *unbounded* program space:
//!
//! * [`generate`] derives, from one `u64` seed, a deterministic mini-C
//!   program [`Spec`] that **plants** known idiom instances (all six
//!   kinds, with randomized kernels, loop bounds, taps and surrounding
//!   filler code) so the expected detection set is known by construction,
//!   and mixes in **near-miss mutants** (in-place stencils, guarded
//!   reductions, iterator-indexed histograms, downward loops) that must
//!   *not* match;
//! * [`check`] runs the full pipeline on the rendered program — parse →
//!   optimize → detect (planted ⊆ detected ∧ planted replaced ∧ no
//!   near-miss false positive) → `transform_module` →
//!   `validate_transform` under multiple input seeds — and reports the
//!   first violated guarantee as a typed [`Failure`];
//! * [`shrink`] greedily minimizes any failing spec (drop functions,
//!   drop filler, unwrap loops, simplify kernels, re-check) so the
//!   regression corpus stores small reproducers;
//! * the corpus module persists minimized cases as plain `.c` files with
//!   `// progen:` expectation directives ([`to_corpus`]), replayed by
//!   `cargo test` ([`replay_case`]).
//!
//! Everything is seeded and deterministic: the same seed generates the
//! same source, data and verdict on every run, so a failing fuzz seed is
//! itself a reproducer.

mod check;
mod corpus;
mod gen;
mod shrink;
mod spec;

pub use check::{check, Canary, Checked, Failure, FUZZ_SEEDS};
pub use corpus::{parse_case, replay_case, to_corpus, CorpusCase};
pub use gen::generate;
pub use shrink::shrink;
pub use spec::{
    setup, AdversaryKind, ArrayId, FillerStmt, FuncSpec, HistoVariant, NearMissKind, PlantKind,
    RedKernel, Role, Spec, BINS, COEFS, DIM, GRID, LEN, ROWS,
};

/// A splitmix64 stream: the one RNG behind generation and shrinking.
/// Deterministic, dependency-free, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeds a stream.
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform pick from a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }

    /// `true` with probability `num/den`.
    pub fn chance(&mut self, num: usize, den: usize) -> bool {
        self.below(den) < num
    }

    /// Unbiased in-place Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for k in (1..xs.len()).rev() {
            let j = self.below(k + 1);
            xs.swap(k, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_spreads() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).all(|w| w[0] != w[1]));
    }
}
