//! The paper's protagonist: the **3-majority dynamics**, and its
//! generalization, the **h-plurality dynamics** (paper §1 and §4.3).
//!
//! * 3-majority: sample three nodes u.a.r. (self included, with
//!   repetition) and adopt the majority color of the sample; on three
//!   distinct colors, take the first (the paper notes this is equivalent
//!   to a u.a.r. tie-break).
//! * h-plurality: sample `h` nodes and adopt the plurality color of the
//!   sample, ties broken u.a.r.  `h = 1` is the voter/polling rule, and
//!   `h = 3` coincides in law with 3-majority.

use crate::dynamics::sealed::SealedDynamics;
use crate::dynamics::{
    clique_step_core, DynSampler, Dynamics, DynamicsCore, NodeScratch, SampleSource, StateSampler,
};
use crate::kernels::{h_plurality_probs, multiset_count, three_majority_probs};
use plurality_sampling::multinomial::sample_multinomial;
use rand::{Rng, RngCore};
use std::any::Any;

/// Tie-breaking rule when all three samples are distinct.
///
/// The paper (§2) observes these produce the same process law; we keep
/// both to verify that claim empirically (DESIGN.md §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TieRule {
    /// Adopt the first sampled color (the paper's stated rule).
    #[default]
    FirstSample,
    /// Adopt a uniformly random one of the three.
    UniformRandom,
}

/// The 3-majority dynamics with its exact Lemma 1 mean-field kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreeMajority {
    /// Tie handling on three distinct samples.
    pub tie_rule: TieRule,
}

impl ThreeMajority {
    /// 3-majority with the paper's first-sample tie rule.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// 3-majority breaking three-way ties uniformly at random.
    #[must_use]
    pub fn with_uniform_ties() -> Self {
        Self {
            tie_rule: TieRule::UniformRandom,
        }
    }
}

impl Dynamics for ThreeMajority {
    fn name(&self) -> String {
        "3-majority".into()
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
        let mut probs = vec![0.0f64; cur.len()];
        three_majority_probs(cur, &mut probs);
        sample_multinomial(n, &probs, next, rng);
    }

    fn has_fast_kernel(&self) -> bool {
        true
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }

    fn fixed_draws(&self) -> Option<usize> {
        match self.tie_rule {
            // Exactly three draws, tie resolved without randomness.
            TieRule::FirstSample => Some(3),
            // Three-way ties consume an extra `gen_range` — draw count is
            // fixed but RNG consumption is not.  The three draws still
            // lead: the tie-break comes after them (`leading_draws`).
            TieRule::UniformRandom => None,
        }
    }

    fn leading_draws(&self) -> Option<usize> {
        Some(3)
    }
}

impl SealedDynamics for ThreeMajority {}

impl DynamicsCore for ThreeMajority {
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
        // Majority if any two agree; otherwise the tie rule.
        if a == b || a == c {
            a
        } else if b == c {
            b
        } else {
            match self.tie_rule {
                TieRule::FirstSample => a,
                TieRule::UniformRandom => match rng.gen_range(0..3u8) {
                    0 => a,
                    1 => b,
                    _ => c,
                },
            }
        }
    }
}

/// The h-plurality dynamics: adopt the plurality among `h` u.a.r. samples,
/// ties broken u.a.r. among the most frequent sampled colors.
///
/// # Mean-field path and the enumeration-refusal threshold
///
/// A mean-field round is exact either way, but takes one of two paths:
///
/// * **Enumeration kernel** — visits all `C(h+k−1, h)` sample multisets
///   and draws one multinomial.  Used iff
///   [`HPlurality::enumeration_feasible`] holds, i.e. the multiset count
///   is at most [`crate::kernels::ENUMERATION_BUDGET`] (2·10⁶).
/// * **Per-node fallback** — simulates all `n` node updates
///   (`O(n·h)`, monomorphized via
///   [`crate::dynamics::clique_step_core`]) when the budget is exceeded.
///
/// The threshold is a pure function of `(k, h)` — never of `n` or the
/// counts — so which path a configuration takes is deterministic and
/// documented rather than an accident of the kernel internals.
#[derive(Debug, Clone, Copy)]
pub struct HPlurality {
    /// Sample size `h ≥ 1`.
    pub h: usize,
}

impl HPlurality {
    /// h-plurality with the given sample size.
    ///
    /// # Panics
    /// Panics if `h == 0`.
    #[must_use]
    pub fn new(h: usize) -> Self {
        assert!(h > 0, "h must be positive");
        Self { h }
    }

    /// Whether the exact enumeration kernel is used for a `k_colors`
    /// state space: `C(h+k−1, h) ≤` [`crate::kernels::ENUMERATION_BUDGET`].
    /// When `false`, [`Dynamics::step_mean_field`] takes the `O(n·h)`
    /// per-node fallback (still exact).
    #[must_use]
    pub fn enumeration_feasible(&self, k_colors: usize) -> bool {
        multiset_count(k_colors, self.h).is_some()
    }
}

impl Dynamics for HPlurality {
    fn name(&self) -> String {
        format!("{}-plurality", self.h)
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
        if self.enumeration_feasible(cur.len()) {
            let n: u64 = cur.iter().sum();
            let mut probs = vec![0.0f64; cur.len()];
            let enumerated = h_plurality_probs(cur, self.h, &mut probs);
            debug_assert!(enumerated, "feasibility check and kernel disagree");
            sample_multinomial(n, &probs, next, rng);
        } else {
            clique_step_core(self, cur, next, rng);
        }
    }

    fn has_fast_kernel(&self) -> bool {
        // `k` is unknown here; report conservatively.  Callers that know
        // the state count should ask `has_fast_kernel_for`.
        false
    }

    fn has_fast_kernel_for(&self, k_states: usize) -> bool {
        self.enumeration_feasible(k_states)
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }

    fn fixed_draws(&self) -> Option<usize> {
        // The argmax tie-break is a reservoir pass that consumes
        // `gen_range` even for a unique winner, so RNG consumption is
        // never limited to the `h` sampler draws.  It runs only after all
        // `h` samples are tallied, so those draws lead (`leading_draws`).
        None
    }

    fn leading_draws(&self) -> Option<usize> {
        Some(self.h)
    }
}

impl SealedDynamics for HPlurality {}

impl DynamicsCore for HPlurality {
    #[inline]
    fn node_update_core<S: SampleSource + ?Sized, R: RngCore + ?Sized>(
        &self,
        _own: u32,
        source: &mut S,
        scratch: &mut NodeScratch,
        rng: &mut R,
    ) -> u32 {
        // Tally h samples, tracking the running maximum.
        let mut best_count = 0u32;
        for _ in 0..self.h {
            let s = source.draw(rng);
            scratch.ensure_states(s as usize + 1);
            scratch.tally(s);
            let c = scratch.counts[s as usize];
            if c > best_count {
                best_count = c;
            }
        }
        // Uniform choice among the argmax colors via reservoir sampling
        // over the touched set (≤ h entries).
        let mut winner = u32::MAX;
        let mut seen = 0u32;
        for &state in &scratch.touched {
            if scratch.counts[state as usize] == best_count {
                seen += 1;
                if rng.gen_range(0..seen) == 0 {
                    winner = state;
                }
            }
        }
        scratch.clear_counts();
        debug_assert_ne!(winner, u32::MAX);
        winner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::CliqueSampler;
    use plurality_sampling::{CountSampler, Xoshiro256PlusPlus};
    use rand::SeedableRng;

    fn node_update_frequencies(
        d: &dyn Dynamics,
        counts: &[u64],
        trials: usize,
        seed: u64,
    ) -> Vec<f64> {
        let cs = CountSampler::new(counts);
        let mut sampler = CliqueSampler::new(&cs);
        let mut scratch = NodeScratch::with_states(counts.len());
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let mut freq = vec![0u64; counts.len()];
        for _ in 0..trials {
            let s = d.node_update(0, &mut sampler, &mut scratch, &mut rng);
            freq[s as usize] += 1;
        }
        freq.iter().map(|&f| f as f64 / trials as f64).collect()
    }

    #[test]
    fn three_majority_node_rule_matches_lemma1() {
        let counts = [500u64, 300, 200];
        let mut expect = [0.0; 3];
        crate::kernels::three_majority_probs(&counts, &mut expect);
        let freq = node_update_frequencies(&ThreeMajority::new(), &counts, 200_000, 1);
        for (j, (&f, &e)) in freq.iter().zip(&expect).enumerate() {
            let sigma = (e * (1.0 - e) / 200_000.0).sqrt();
            assert!((f - e).abs() < 5.0 * sigma, "color {j}: {f} vs {e}");
        }
    }

    #[test]
    fn tie_rules_agree_in_law() {
        // Paper §2: first-sample vs uniform tie-breaking is immaterial.
        let counts = [400u64, 350, 250];
        let f_first = node_update_frequencies(&ThreeMajority::new(), &counts, 300_000, 2);
        let f_unif =
            node_update_frequencies(&ThreeMajority::with_uniform_ties(), &counts, 300_000, 3);
        for (j, (&a, &b)) in f_first.iter().zip(&f_unif).enumerate() {
            // Two independent estimates of the same probability.
            let sigma = (2.0 * 0.5 * 0.5 / 300_000.0f64).sqrt();
            assert!((a - b).abs() < 6.0 * sigma, "color {j}: {a} vs {b}");
        }
    }

    #[test]
    fn h3_node_rule_matches_three_majority_law() {
        let counts = [500u64, 300, 200];
        let f3 = node_update_frequencies(&ThreeMajority::new(), &counts, 300_000, 4);
        let fh = node_update_frequencies(&HPlurality::new(3), &counts, 300_000, 5);
        for (j, (&a, &b)) in f3.iter().zip(&fh).enumerate() {
            let sigma = (2.0 * 0.5 * 0.5 / 300_000.0f64).sqrt();
            assert!((a - b).abs() < 6.0 * sigma, "color {j}: {a} vs {b}");
        }
    }

    #[test]
    fn h_plurality_node_rule_matches_enumeration_kernel() {
        let counts = [450u64, 350, 200];
        let mut expect = [0.0; 3];
        assert!(h_plurality_probs(&counts, 5, &mut expect));
        let freq = node_update_frequencies(&HPlurality::new(5), &counts, 200_000, 6);
        for (j, (&f, &e)) in freq.iter().zip(&expect).enumerate() {
            let sigma = (e.max(1e-9) * (1.0 - e) / 200_000.0).sqrt();
            assert!((f - e).abs() < 6.0 * sigma, "color {j}: {f} vs {e}");
        }
    }

    #[test]
    fn mean_field_step_preserves_population() {
        let d = ThreeMajority::new();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
        let cur = [600u64, 250, 150];
        let mut next = [0u64; 3];
        d.step_mean_field(&cur, &mut next, &mut rng);
        assert_eq!(next.iter().sum::<u64>(), 1000);
    }

    #[test]
    fn mean_field_absorbs_consensus() {
        let d = ThreeMajority::new();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(8);
        let cur = [0u64, 0, 12345];
        let mut next = [0u64; 3];
        d.step_mean_field(&cur, &mut next, &mut rng);
        assert_eq!(next, [0, 0, 12345]);
    }

    #[test]
    fn h_plurality_large_k_falls_back_and_preserves_population() {
        let d = HPlurality::new(9);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(9);
        let cur = vec![10u64; 300]; // enumeration infeasible
        let mut next = vec![0u64; 300];
        d.step_mean_field(&cur, &mut next, &mut rng);
        assert_eq!(next.iter().sum::<u64>(), 3000);
    }

    #[test]
    fn h_plurality_amplifies_with_h() {
        // One mean-field round from a biased start: larger h should give
        // the plurality a larger expected boost.
        let cur = [6_000u64, 4_000];
        let trials = 300;
        let mut mean_gain = Vec::new();
        for (h, seed) in [(3usize, 10u64), (9, 11)] {
            let d = HPlurality::new(h);
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
            let mut next = [0u64; 2];
            let mut acc = 0i64;
            for _ in 0..trials {
                d.step_mean_field(&cur, &mut next, &mut rng);
                acc += next[0] as i64 - cur[0] as i64;
            }
            mean_gain.push(acc as f64 / trials as f64);
        }
        assert!(
            mean_gain[1] > mean_gain[0],
            "9-plurality gain {} should exceed 3-plurality gain {}",
            mean_gain[1],
            mean_gain[0]
        );
    }

    #[test]
    fn enumeration_threshold_is_explicit_and_sharp() {
        // h = 7: C(k+6, 7) crosses ENUMERATION_BUDGET = 2·10⁶ between
        // k = 23 (C(29,7) = 1 560 780) and k = 24 (C(30,7) = 2 035 800).
        let d = HPlurality::new(7);
        assert_eq!(crate::kernels::multiset_count(23, 7), Some(1_560_780));
        assert_eq!(crate::kernels::multiset_count(24, 7), None);
        assert!(d.enumeration_feasible(23));
        assert!(!d.enumeration_feasible(24));
        // The advertised kernel speed agrees with the path taken.
        assert!(d.has_fast_kernel_for(23));
        assert!(!d.has_fast_kernel_for(24));
        // And the blanket `has_fast_kernel` stays conservative.
        assert!(!d.has_fast_kernel());
    }

    #[test]
    fn enumeration_threshold_depends_only_on_k_and_h() {
        // Feasibility must not depend on n or the counts: both a tiny and
        // a huge population at the same (k, h) take the same path.
        let d = HPlurality::new(9);
        for k in [2usize, 8, 300] {
            let feasible = d.enumeration_feasible(k);
            assert_eq!(
                feasible,
                crate::kernels::multiset_count(k, 9).is_some(),
                "k = {k}"
            );
            assert_eq!(d.has_fast_kernel_for(k), feasible, "k = {k}");
        }
    }

    #[test]
    fn fallback_path_matches_enumeration_law_at_the_boundary() {
        // k just below vs just above the refusal threshold for h = 3:
        // both paths are exact, so one mean-field round from the same
        // counts must produce statistically identical expectations.
        let d = HPlurality::new(3);
        let k_feasible = 200; // C(202, 3) ≈ 1.37e6 ≤ budget
        assert!(d.enumeration_feasible(k_feasible));
        let k_fallback = 300; // C(302, 3) ≈ 4.6e6 > budget
        assert!(!d.enumeration_feasible(k_fallback));
        // Exercise the fallback: population preserved, plurality favored.
        let mut counts = vec![20u64; k_fallback];
        counts[0] = 2_000;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(12);
        let mut next = vec![0u64; k_fallback];
        let trials = 60;
        let mut plurality_mean = 0.0;
        for _ in 0..trials {
            d.step_mean_field(&counts, &mut next, &mut rng);
            assert_eq!(
                next.iter().sum::<u64>(),
                counts.iter().sum::<u64>(),
                "population must be preserved on the fallback path"
            );
            plurality_mean += next[0] as f64;
        }
        plurality_mean /= trials as f64;
        assert!(
            plurality_mean > 2_000.0,
            "3-plurality must amplify the plurality, got {plurality_mean}"
        );
    }

    #[test]
    #[should_panic(expected = "h must be positive")]
    fn h_zero_rejected() {
        let _ = HPlurality::new(0);
    }

    #[test]
    fn names() {
        assert_eq!(ThreeMajority::new().name(), "3-majority");
        assert_eq!(HPlurality::new(7).name(), "7-plurality");
    }
}
