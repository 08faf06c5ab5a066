//! Seeded, stream-splittable randomness.
//!
//! Every stochastic component in the workspace takes an explicit `u64`
//! seed. Sub-components derive independent streams with [`derive_seed`],
//! so adding a consumer never perturbs the draws seen by another — the
//! property that keeps A/B experiment comparisons paired.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Derive an independent child seed from `(seed, stream)`.
///
/// Uses the SplitMix64 finalizer, the standard remedy for correlated
/// seeds; distinct `stream` values give statistically independent
/// generators for any fixed `seed`.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Construct a deterministic RNG for `(seed, stream)`.
pub fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed(seed, stream))
}

/// A deterministic pseudo-random permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, seed: u64, stream: u64) -> Vec<usize> {
    let mut rng = rng_for(seed, stream);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        v.swap(i, j);
    }
    v
}

/// Sample an index from a discrete (unnormalized, non-negative) weight
/// vector. Returns `None` if all weights are zero or the slice is empty.
pub fn weighted_index<R: Rng>(rng: &mut R, weights: &[f64]) -> Option<usize> {
    weighted_index_with_total(rng, weights, weights.iter().sum())
}

/// [`weighted_index`] with the weight total supplied by the caller, for
/// repeated draws from one fixed weight vector. `total` must be
/// `weights.iter().sum()` (the same summation order), which makes the
/// draw identical to [`weighted_index`]'s.
pub fn weighted_index_with_total<R: Rng>(
    rng: &mut R,
    weights: &[f64],
    total: f64,
) -> Option<usize> {
    debug_assert_eq!(
        total.to_bits(),
        weights.iter().sum::<f64>().to_bits(),
        "stale weight total"
    );
    // NaN totals (from NaN weights) fall through to None as well.
    if total.partial_cmp(&0.0) != Some(core::cmp::Ordering::Greater) {
        return None;
    }
    let mut x = rng.random_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        debug_assert!(w >= 0.0, "negative weight at index {i}");
        if x < w {
            return Some(i);
        }
        x -= w;
    }
    // Floating-point edge: fall back to the last positive weight.
    weights.iter().rposition(|&w| w > 0.0)
}

/// Draw an exponentially distributed duration with the given mean, in
/// picoseconds (for Poisson arrival processes). Always at least 1 ps so
/// that event times strictly advance.
pub fn exp_ps<R: Rng>(rng: &mut R, mean_ps: f64) -> u64 {
    debug_assert!(mean_ps > 0.0);
    let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let d = -mean_ps * u.ln();
    (d.round() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_deterministic_and_stream_sensitive() {
        assert_eq!(derive_seed(42, 1), derive_seed(42, 1));
        assert_ne!(derive_seed(42, 1), derive_seed(42, 2));
        assert_ne!(derive_seed(42, 1), derive_seed(43, 1));
    }

    #[test]
    fn rng_streams_are_reproducible() {
        let mut a = rng_for(7, 0);
        let mut b = rng_for(7, 0);
        let xs: Vec<u64> = (0..16).map(|_| a.random()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.random()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn permutation_is_a_permutation() {
        let p = permutation(64, 123, 5);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        // And differs from identity with overwhelming probability.
        assert_ne!(p, (0..64).collect::<Vec<_>>());
        // Deterministic.
        assert_eq!(p, permutation(64, 123, 5));
        // Seed-sensitive.
        assert_ne!(p, permutation(64, 124, 5));
    }

    #[test]
    fn permutation_handles_degenerate_sizes() {
        assert_eq!(permutation(0, 1, 1), Vec::<usize>::new());
        assert_eq!(permutation(1, 1, 1), vec![0]);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = rng_for(1, 1);
        let w = [0.0, 3.0, 1.0, 0.0];
        let mut counts = [0u32; 4];
        for _ in 0..4000 {
            counts[weighted_index(&mut rng, &w).unwrap()] += 1;
        }
        assert_eq!(counts[0], 0);
        assert_eq!(counts[3], 0);
        let ratio = counts[1] as f64 / counts[2] as f64;
        assert!((2.0..4.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn weighted_index_zero_total_is_none() {
        let mut rng = rng_for(1, 1);
        assert_eq!(weighted_index(&mut rng, &[0.0, 0.0]), None);
        assert_eq!(weighted_index(&mut rng, &[]), None);
    }

    #[test]
    fn exp_ps_has_right_mean() {
        let mut rng = rng_for(9, 9);
        let mean = 10_000.0;
        let n = 20_000;
        let total: u64 = (0..n).map(|_| exp_ps(&mut rng, mean)).sum();
        let observed = total as f64 / n as f64;
        assert!(
            (observed - mean).abs() < mean * 0.05,
            "observed mean {observed}"
        );
    }
}
