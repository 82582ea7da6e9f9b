//! The **median dynamics** of Doerr, Goldberg, Minder, Sauerwald,
//! Scheideler (SPAA'11) — the paper's principal comparator.
//!
//! Colors are interpreted as *ordered values* `0 < 1 < … < k−1`.  Two
//! variants are provided:
//!
//! * [`MedianOwn`] — Doerr et al.'s rule: adopt the median of *own value
//!   and two random samples*.  Solves (approximate) **median** consensus
//!   in `O(log n)` rounds; for `k = 2` it coincides with 3-majority.
//! * [`Median3`] — the 3-input-dynamics variant inside the paper's class
//!   `D3(k)`: adopt the median of *three random samples*.  It has the
//!   clear-majority property but **not** the uniform property
//!   (`δ = (0,6,0)`), so by Theorem 3 it cannot solve plurality consensus
//!   — the paper's "exponential time-gap" example.

use crate::dynamics::sealed::SealedDynamics;
use crate::dynamics::{
    DynSampler, Dynamics, DynamicsCore, NodeScratch, SampleSource, StateSampler,
};
use plurality_sampling::multinomial::sample_multinomial;
use rand::RngCore;

/// Median of three `u32` values without allocation.
#[inline]
#[must_use]
pub fn median3_of(a: u32, b: u32, c: u32) -> u32 {
    a.max(b).min(a.min(b).max(c))
}

/// Doerr et al.'s median rule: `new = median(own, X, Y)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MedianOwn;

impl Dynamics for MedianOwn {
    fn name(&self) -> String {
        "median(own+2)".into()
    }

    fn node_update(
        &self,
        own: u32,
        sampler: &mut dyn StateSampler,
        scratch: &mut NodeScratch,
        rng: &mut dyn RngCore,
    ) -> u32 {
        self.node_update_core(own, &mut DynSampler(sampler), scratch, rng)
    }

    fn step_mean_field(&self, cur: &[u64], next: &mut [u64], rng: &mut dyn RngCore) {
        // Group-wise kernel: conditioned on own value i,
        //   P(median ≤ m | own = i) = 1 − (1 − F_m)²  if i ≤ m,
        //                             F_m²            if i > m,
        // where F is the sample CDF.  The pmf over the next value follows
        // by differencing; each current-color group is an independent
        // multinomial.
        let k = cur.len();
        assert_eq!(k, next.len());
        let n: u64 = cur.iter().sum();
        let n_f = n as f64;
        next.fill(0);

        // CDF of one sample.
        let mut cdf = vec![0.0f64; k];
        let mut acc = 0.0;
        for (j, &c) in cur.iter().enumerate() {
            acc += c as f64 / n_f;
            cdf[j] = acc;
        }

        let mut probs = vec![0.0f64; k];
        let mut group_out = vec![0u64; k];
        for (i, &ci) in cur.iter().enumerate() {
            if ci == 0 {
                continue;
            }
            let mut prev = 0.0;
            for m in 0..k {
                let f = cdf[m].min(1.0);
                let le = if i <= m {
                    1.0 - (1.0 - f) * (1.0 - f)
                } else {
                    f * f
                };
                probs[m] = (le - prev).max(0.0);
                prev = le;
            }
            crate::kernels::normalize_in_place(&mut probs);
            sample_multinomial(ci, &probs, &mut group_out, rng);
            for (slot, &x) in next.iter_mut().zip(&group_out) {
                *slot += x;
            }
        }
        debug_assert_eq!(next.iter().sum::<u64>(), n);
    }

    fn has_fast_kernel(&self) -> bool {
        true
    }

    fn fixed_draws(&self) -> Option<usize> {
        Some(2)
    }
}

impl SealedDynamics for MedianOwn {}

impl DynamicsCore for MedianOwn {
    #[inline]
    fn node_update_core<S: SampleSource + ?Sized, R: RngCore + ?Sized>(
        &self,
        own: u32,
        source: &mut S,
        _scratch: &mut NodeScratch,
        rng: &mut R,
    ) -> u32 {
        let x = source.draw(rng);
        let y = source.draw(rng);
        median3_of(own, x, y)
    }
}

/// The in-class variant: `new = median(X₁, X₂, X₃)` over three samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct Median3;

impl Dynamics for Median3 {
    fn name(&self) -> String {
        "median(3 samples)".into()
    }

    fn node_update(
        &self,
        own: u32,
        sampler: &mut dyn StateSampler,
        scratch: &mut NodeScratch,
        rng: &mut dyn RngCore,
    ) -> u32 {
        self.node_update_core(own, &mut DynSampler(sampler), scratch, rng)
    }

    fn step_mean_field(&self, cur: &[u64], next: &mut [u64], rng: &mut dyn RngCore) {
        // P(median of 3 samples ≤ m) = 3F²(1−F) + F³ = F²(3 − 2F):
        // the node's own value plays no role, so one multinomial suffices.
        let k = cur.len();
        assert_eq!(k, next.len());
        let n: u64 = cur.iter().sum();
        let n_f = n as f64;

        let mut probs = vec![0.0f64; k];
        let mut acc = 0.0;
        let mut prev = 0.0;
        for (j, &c) in cur.iter().enumerate() {
            acc += c as f64 / n_f;
            let f = acc.min(1.0);
            let le = f * f * (3.0 - 2.0 * f);
            probs[j] = (le - prev).max(0.0);
            prev = le;
        }
        crate::kernels::normalize_in_place(&mut probs);
        sample_multinomial(n, &probs, next, rng);
    }

    fn has_fast_kernel(&self) -> bool {
        true
    }

    fn fixed_draws(&self) -> Option<usize> {
        Some(3)
    }
}

impl SealedDynamics for Median3 {}

impl DynamicsCore for Median3 {
    #[inline]
    fn node_update_core<S: SampleSource + ?Sized, R: RngCore + ?Sized>(
        &self,
        _own: u32,
        source: &mut S,
        _scratch: &mut NodeScratch,
        rng: &mut R,
    ) -> u32 {
        let a = source.draw(rng);
        let b = source.draw(rng);
        let c = source.draw(rng);
        median3_of(a, b, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::CliqueSampler;
    use plurality_sampling::{CountSampler, Xoshiro256PlusPlus};
    use rand::SeedableRng;

    #[test]
    fn median3_of_all_orders() {
        for &(a, b, c) in &[
            (1u32, 2, 3),
            (3, 1, 2),
            (2, 3, 1),
            (1, 3, 2),
            (3, 2, 1),
            (2, 1, 3),
        ] {
            assert_eq!(median3_of(a, b, c), 2, "({a},{b},{c})");
        }
        assert_eq!(median3_of(5, 5, 1), 5);
        assert_eq!(median3_of(1, 5, 5), 5);
        assert_eq!(median3_of(7, 7, 7), 7);
    }

    fn node_freq(d: &dyn Dynamics, own: u32, counts: &[u64], trials: usize, seed: u64) -> Vec<f64> {
        let cs = CountSampler::new(counts);
        let mut sampler = CliqueSampler::new(&cs);
        let mut scratch = NodeScratch::with_states(counts.len());
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let mut freq = vec![0u64; counts.len()];
        for _ in 0..trials {
            freq[d.node_update(own, &mut sampler, &mut scratch, &mut rng) as usize] += 1;
        }
        freq.iter().map(|&f| f as f64 / trials as f64).collect()
    }

    #[test]
    fn median3_kernel_matches_node_rule() {
        let counts = [300u64, 450, 250];
        let n = 1000.0;
        // Analytic pmf.
        let f0 = 300.0 / n;
        let f1 = 750.0 / n;
        let le = |f: f64| f * f * (3.0 - 2.0 * f);
        let expect = [le(f0), le(f1) - le(f0), 1.0 - le(f1)];
        let freq = node_freq(&Median3, 0, &counts, 300_000, 1);
        for j in 0..3 {
            let sigma = (expect[j] * (1.0 - expect[j]) / 300_000.0).sqrt();
            assert!(
                (freq[j] - expect[j]).abs() < 5.0 * sigma,
                "color {j}: {} vs {}",
                freq[j],
                expect[j]
            );
        }
    }

    #[test]
    fn median_own_conditional_law() {
        // own = 2 (the largest of three colors): P(new ≤ m) = F_m².
        let counts = [300u64, 450, 250];
        let freq = node_freq(&MedianOwn, 2, &counts, 300_000, 2);
        let f0: f64 = 0.3;
        let f1: f64 = 0.75;
        let expect = [f0 * f0, f1 * f1 - f0 * f0, 1.0 - f1 * f1];
        for j in 0..3 {
            let sigma = (expect[j] * (1.0 - expect[j]) / 300_000.0).sqrt();
            assert!(
                (freq[j] - expect[j]).abs() < 5.0 * sigma,
                "color {j}: {} vs {}",
                freq[j],
                expect[j]
            );
        }
    }

    #[test]
    fn median_own_kernel_population_and_expectation() {
        let cur = [400u64, 300, 300];
        let d = MedianOwn;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        let trials = 3_000;
        let mut mean = [0.0f64; 3];
        let mut next = [0u64; 3];
        for _ in 0..trials {
            d.step_mean_field(&cur, &mut next, &mut rng);
            assert_eq!(next.iter().sum::<u64>(), 1000);
            for (m, &x) in mean.iter_mut().zip(&next) {
                *m += x as f64;
            }
        }
        for m in &mut mean {
            *m /= trials as f64;
        }
        // Analytic expectation per group.
        let f = [0.4f64, 0.7, 1.0];
        let mut expect = [0.0f64; 3];
        for (i, &ci) in cur.iter().enumerate() {
            let mut prev = 0.0;
            for m in 0..3 {
                let le = if i <= m {
                    1.0 - (1.0 - f[m]) * (1.0 - f[m])
                } else {
                    f[m] * f[m]
                };
                expect[m] += ci as f64 * (le - prev);
                prev = le;
            }
        }
        for j in 0..3 {
            assert!(
                (mean[j] - expect[j]).abs() < 0.02 * 1000.0,
                "color {j}: {} vs {}",
                mean[j],
                expect[j]
            );
        }
    }

    #[test]
    fn binary_median_own_equals_majority_drift() {
        // For k = 2, median(own, X, Y) is the majority of {own, X, Y}:
        // the plurality should gain in expectation from a biased start.
        let cur = [600u64, 400];
        let d = MedianOwn;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(4);
        let mut next = [0u64; 2];
        let trials = 2_000;
        let mut acc = 0.0;
        for _ in 0..trials {
            d.step_mean_field(&cur, &mut next, &mut rng);
            acc += next[0] as f64;
        }
        let mean = acc / trials as f64;
        assert!(mean > 620.0, "expected amplification, mean = {mean}");
    }

    #[test]
    fn median3_pulls_toward_median_not_plurality() {
        // Configuration (n/3 + s, n/3, n/3 − s): color 0 is the plurality,
        // color 1 is the median value.  One Median3 round must favor the
        // median color in expectation (this is the Theorem 3 seed).
        let cur = [360u64, 330, 310];
        let d = Median3;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        let mut next = [0u64; 3];
        let trials = 2_000;
        let mut mean = [0.0f64; 3];
        for _ in 0..trials {
            d.step_mean_field(&cur, &mut next, &mut rng);
            for (m, &x) in mean.iter_mut().zip(&next) {
                *m += x as f64;
            }
        }
        for m in &mut mean {
            *m /= trials as f64;
        }
        assert!(mean[1] > 330.0, "median color should grow, got {:?}", mean);
        assert!(
            mean[1] - 330.0 > mean[0] - 360.0,
            "median must outgrow plurality"
        );
    }

    #[test]
    fn names() {
        assert_eq!(MedianOwn.name(), "median(own+2)");
        assert_eq!(Median3.name(), "median(3 samples)");
    }
}
