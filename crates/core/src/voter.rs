//! Sampling-poor baselines: the **voter/polling** rule, the **two-sample**
//! rule, and the **2-choices** rule.
//!
//! The paper's introduction motivates 3-majority by the failure of smaller
//! samples: *"looking at only two random nodes and breaking ties uniformly
//! at random would yield a coloring process equivalent to the polling
//! process, which is known to converge to a minority color with constant
//! probability even for k = 2 and large initial bias"* (citing
//! Hassin–Peleg).  We implement all three rules so that claim — and the
//! contrast with 3-majority — is measurable (experiment E12).

use crate::dynamics::sealed::SealedDynamics;
use crate::dynamics::{
    DynSampler, Dynamics, DynamicsCore, NodeScratch, SampleSource, StateSampler,
};
use plurality_sampling::binomial::sample_binomial;
use plurality_sampling::multinomial::sample_multinomial;
use rand::{Rng, RngCore};
use std::any::Any;

/// Voter (polling / 1-majority) dynamics: copy one random node's color.
///
/// Mean-field kernel: `C' ~ Multinomial(n, c/n)` — a martingale in each
/// color, hence no drift toward the plurality.
#[derive(Debug, Clone, Copy, Default)]
pub struct Voter;

impl Dynamics for Voter {
    fn name(&self) -> String {
        "voter".into()
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
        let n: u64 = cur.iter().sum();
        let n_f = n as f64;
        let probs: Vec<f64> = cur.iter().map(|&c| c as f64 / n_f).collect();
        sample_multinomial(n, &probs, next, rng);
    }

    fn has_fast_kernel(&self) -> bool {
        true
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }

    fn fixed_draws(&self) -> Option<usize> {
        Some(1)
    }
}

impl SealedDynamics for Voter {}

impl DynamicsCore for Voter {
    #[inline]
    fn node_update_core<S: SampleSource + ?Sized, R: RngCore + ?Sized>(
        &self,
        _own: u32,
        source: &mut S,
        _scratch: &mut NodeScratch,
        rng: &mut R,
    ) -> u32 {
        source.draw(rng)
    }
}

/// Two samples, adopt on agreement, otherwise a u.a.r. one of the two.
///
/// Equivalent in law to [`Voter`] (p² + p(1−p) = p); kept as a distinct
/// rule so the equivalence is *tested* rather than assumed.
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoSample;

impl Dynamics for TwoSample {
    fn name(&self) -> String {
        "2-sample".into()
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
        // Same law as the voter rule.
        Voter.step_mean_field(cur, next, rng);
    }

    fn has_fast_kernel(&self) -> bool {
        true
    }

    fn fixed_draws(&self) -> Option<usize> {
        // Disagreement consumes a coin flip beyond the two draws.
        None
    }

    fn leading_draws(&self) -> Option<usize> {
        // The coin is flipped only after both draws.
        Some(2)
    }
}

impl SealedDynamics for TwoSample {}

impl DynamicsCore for TwoSample {
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
        if a == b || rng.gen::<bool>() {
            a
        } else {
            b
        }
    }
}

/// The 2-choices dynamics: sample two nodes; adopt their color only if
/// they agree, otherwise keep your own.
///
/// Unlike [`Voter`]/[`TwoSample`] this rule *does* use the node's own
/// state, so the mean-field kernel is group-wise: nodes of color `i`
/// switch to `j ≠ i` with probability `(c_j/n)²` and keep `i` otherwise.
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoChoices;

impl Dynamics for TwoChoices {
    fn name(&self) -> String {
        "2-choices".into()
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
        let k = cur.len();
        assert_eq!(k, next.len());
        let n: u64 = cur.iter().sum();
        let n_f = n as f64;
        next.fill(0);
        // Group-wise: the c_i nodes of color i form independent trials
        // over outcomes {switch to j (prob (c_j/n)²), stay}.
        let sq: Vec<f64> = cur
            .iter()
            .map(|&c| {
                let f = c as f64 / n_f;
                f * f
            })
            .collect();
        let mut probs = vec![0.0f64; k + 1];
        let mut group_out = vec![0u64; k + 1];
        for (i, &ci) in cur.iter().enumerate() {
            if ci == 0 {
                continue;
            }
            let mut stay = 1.0;
            for (j, &sj) in sq.iter().enumerate() {
                let pj = if j == i { 0.0 } else { sj };
                probs[j] = pj;
                stay -= pj;
            }
            probs[k] = stay.max(0.0);
            sample_multinomial(ci, &probs, &mut group_out, rng);
            for (j, &x) in group_out.iter().take(k).enumerate() {
                next[j] += x;
            }
            next[i] += group_out[k];
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

impl SealedDynamics for TwoChoices {}

impl DynamicsCore for TwoChoices {
    #[inline]
    fn node_update_core<S: SampleSource + ?Sized, R: RngCore + ?Sized>(
        &self,
        own: u32,
        source: &mut S,
        _scratch: &mut NodeScratch,
        rng: &mut R,
    ) -> u32 {
        let a = source.draw(rng);
        let b = source.draw(rng);
        if a == b {
            a
        } else {
            own
        }
    }
}

/// Binary-state helper used by tests and experiments: one exact voter
/// round on a two-color configuration, via a single binomial.
///
/// # Panics
/// Panics if `c0 + c1 == 0`.
pub fn voter_round_binary<R: Rng + ?Sized>(c0: u64, c1: u64, rng: &mut R) -> (u64, u64) {
    let n = c0 + c1;
    assert!(n > 0);
    let new0 = sample_binomial(n, c0 as f64 / n as f64, rng);
    (new0, n - new0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::CliqueSampler;
    use plurality_sampling::{CountSampler, Xoshiro256PlusPlus};
    use rand::SeedableRng;

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
    fn voter_is_martingale_in_expectation() {
        let counts = [700u64, 200, 100];
        let f = node_freq(&Voter, 0, &counts, 200_000, 1);
        for (j, &c) in counts.iter().enumerate() {
            let p = c as f64 / 1000.0;
            let sigma = (p * (1.0 - p) / 200_000.0).sqrt();
            assert!((f[j] - p).abs() < 5.0 * sigma, "color {j}");
        }
    }

    #[test]
    fn two_sample_equivalent_to_voter() {
        let counts = [550u64, 300, 150];
        let fv = node_freq(&Voter, 0, &counts, 300_000, 2);
        let f2 = node_freq(&TwoSample, 0, &counts, 300_000, 3);
        for j in 0..3 {
            let sigma = (2.0 * 0.25 / 300_000.0f64).sqrt();
            assert!((fv[j] - f2[j]).abs() < 6.0 * sigma, "color {j}");
        }
    }

    #[test]
    fn two_choices_switch_probability() {
        // Own color 0; switch to 1 iff both samples are 1: (c1/n)².
        let counts = [600u64, 400];
        let f = node_freq(&TwoChoices, 0, &counts, 200_000, 4);
        let expect_switch = 0.4f64 * 0.4;
        let sigma = (expect_switch * (1.0 - expect_switch) / 200_000.0).sqrt();
        assert!(
            (f[1] - expect_switch).abs() < 5.0 * sigma,
            "switch freq {} vs {expect_switch}",
            f[1]
        );
    }

    #[test]
    fn two_choices_kernel_matches_node_rule() {
        let cur = [600u64, 300, 100];
        let d = TwoChoices;
        // Mean over many kernel rounds ≈ group-wise expectation.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        let trials = 2_000;
        let mut mean = [0.0f64; 3];
        let mut next = [0u64; 3];
        for _ in 0..trials {
            d.step_mean_field(&cur, &mut next, &mut rng);
            for (m, &x) in mean.iter_mut().zip(&next) {
                *m += x as f64;
            }
        }
        for m in &mut mean {
            *m /= trials as f64;
        }
        // Analytic expectation.
        let n = 1000.0;
        let sq: Vec<f64> = cur.iter().map(|&c| (c as f64 / n).powi(2)).collect();
        for j in 0..3 {
            let gains: f64 = (0..3)
                .filter(|&i| i != j)
                .map(|i| cur[i] as f64 * sq[j])
                .sum();
            let losses: f64 =
                cur[j] as f64 * (0..3).filter(|&i| i != j).map(|i| sq[i]).sum::<f64>();
            let expect = cur[j] as f64 + gains - losses;
            assert!(
                (mean[j] - expect).abs() < 0.02 * n,
                "color {j}: {} vs {expect}",
                mean[j]
            );
        }
    }

    #[test]
    fn two_choices_population_preserved() {
        let d = TwoChoices;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(6);
        let cur = [123u64, 456, 421];
        let mut next = [0u64; 3];
        for _ in 0..50 {
            d.step_mean_field(&cur, &mut next, &mut rng);
            assert_eq!(next.iter().sum::<u64>(), 1000);
        }
    }

    #[test]
    fn voter_round_binary_matches_kernel() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
        let trials = 5_000;
        let mut acc = 0u64;
        for _ in 0..trials {
            let (a, b) = voter_round_binary(800, 200, &mut rng);
            assert_eq!(a + b, 1000);
            acc += a;
        }
        let mean = acc as f64 / trials as f64;
        let sigma = (1000.0f64 * 0.8 * 0.2 / trials as f64).sqrt();
        assert!((mean - 800.0).abs() < 5.0 * sigma, "mean {mean}");
    }

    #[test]
    fn names() {
        assert_eq!(Voter.name(), "voter");
        assert_eq!(TwoSample.name(), "2-sample");
        assert_eq!(TwoChoices.name(), "2-choices");
    }
}
