//! The class `D3(k)` of 3-input dynamics (paper §4.2) as executable
//! objects: every memoryless rule `f : [k]³ → [k]` with
//! `f(x₁,x₂,x₃) ∈ {x₁,x₂,x₃}` that is *color-symmetric* — its behavior
//! depends only on the order pattern of the sampled colors, not their
//! identities.
//!
//! A rule is described by two parts:
//!
//! * a [`ClearRule`]: what `f` returns on triples with a repeated color
//!   (Definition 2's *clear majority*);
//! * a `distinct` table of six entries: for each of the `3! = 6` order
//!   patterns of a triple of distinct colors, which *rank* (0 = smallest
//!   color index, 1 = middle, 2 = largest) wins.
//!
//! The paper's δ-counters (`δ_r, δ_g, δ_b` for a triple `r < g < b`) are
//! exactly the per-rank win counts of the `distinct` table, so Definition
//! 3's *uniform property* is `δ = (2,2,2)` and Theorem 3 says: a rule
//! solves plurality consensus iff it has `ClearRule::Majority` **and**
//! uniform δ.  The constructors below include the paper's
//! counterexamples (`δ = (1,3,2)` and `δ = (1,4,1)` from Lemma 8, the
//! median rule `δ = (0,6,0)` from Lemma 7's discussion).

use crate::dynamics::sealed::SealedDynamics;
use crate::dynamics::{
    DynSampler, Dynamics, DynamicsCore, NodeScratch, SampleSource, StateSampler,
};
use plurality_sampling::multinomial::sample_multinomial;
use rand::RngCore;

/// Behavior on triples with a repeated color (`(a,a,b)` patterns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClearRule {
    /// Return the repeated (majority) color — Definition 2's property.
    Majority,
    /// Return the single (minority) color.
    Minority,
    /// Return the first sample regardless.
    FirstSample,
}

/// A color-symmetric member of `D3(k)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableD3 {
    clear: ClearRule,
    /// `distinct[perm_index] ∈ {0,1,2}`: the winning rank for each of the
    /// six order patterns (lexicographic index over rank permutations).
    distinct: [u8; 6],
    label: &'static str,
}

/// Lexicographic list of the 6 permutations of (0,1,2); `perm_index`
/// computes positions in this list.
const PERMS: [(u8, u8, u8); 6] = [
    (0, 1, 2),
    (0, 2, 1),
    (1, 0, 2),
    (1, 2, 0),
    (2, 0, 1),
    (2, 1, 0),
];

/// Index of the rank pattern of an ordered distinct triple.
#[inline]
fn perm_index(r0: u8, r1: u8, r2: u8) -> usize {
    debug_assert_eq!(r0 + r1 + r2, 3);
    (r0 as usize) * 2 + usize::from(r1 > r2)
}

impl TableD3 {
    /// Build a rule from its clear-majority behavior and distinct table.
    ///
    /// # Panics
    /// Panics if any distinct entry exceeds 2.
    #[must_use]
    pub fn new(clear: ClearRule, distinct: [u8; 6], label: &'static str) -> Self {
        assert!(
            distinct.iter().all(|&d| d <= 2),
            "distinct entries must be ranks 0..=2"
        );
        Self {
            clear,
            distinct,
            label,
        }
    }

    /// 3-majority with the first-sample tie rule — the canonical member
    /// of the paper's class `M3` (clear majority + uniform δ).
    #[must_use]
    pub fn three_majority_first() -> Self {
        // Winner = rank at position 0 of each pattern.
        let distinct = [
            PERMS[0].0, PERMS[1].0, PERMS[2].0, PERMS[3].0, PERMS[4].0, PERMS[5].0,
        ];
        Self::new(ClearRule::Majority, distinct, "3-majority(first-tie)")
    }

    /// Median of the three samples: clear majority, δ = (0,6,0) — a
    /// non-uniform rule (the Lemma 7/Theorem 3 discussion example).
    #[must_use]
    pub fn median3() -> Self {
        Self::new(ClearRule::Majority, [1; 6], "median3-table")
    }

    /// Minimum of the three samples: δ = (6,0,0).
    #[must_use]
    pub fn min3() -> Self {
        Self::new(ClearRule::Majority, [0; 6], "min3-table")
    }

    /// Maximum of the three samples: δ = (0,0,6).
    #[must_use]
    pub fn max3() -> Self {
        Self::new(ClearRule::Majority, [2; 6], "max3-table")
    }

    /// Lemma 8's hardest case: δ = (1,3,2) with the plurality color in the
    /// δ=1 slot (experiments place the plurality at color 0 = rank 0).
    #[must_use]
    pub fn lemma8_132() -> Self {
        Self::new(ClearRule::Majority, [0, 1, 1, 1, 2, 2], "δ=(1,3,2)")
    }

    /// Lemma 8's second case: δ = (1,4,1).
    #[must_use]
    pub fn lemma8_141() -> Self {
        Self::new(ClearRule::Majority, [0, 1, 1, 1, 1, 2], "δ=(1,4,1)")
    }

    /// A rule violating the clear-majority property (Lemma 7): returns
    /// the *minority* color on 2-vs-1 triples, first rank otherwise.
    #[must_use]
    pub fn anti_majority() -> Self {
        let distinct = [
            PERMS[0].0, PERMS[1].0, PERMS[2].0, PERMS[3].0, PERMS[4].0, PERMS[5].0,
        ];
        Self::new(ClearRule::Minority, distinct, "anti-majority")
    }

    /// Build a clear-majority rule with the given δ win counts
    /// `(δ_low, δ_mid, δ_high)` — any distribution of the six distinct
    /// permutations over ranks.  Which specific permutations map to each
    /// rank is immaterial for the mean-field law (only the counts enter
    /// the kernel), so a canonical assignment is used: the first `δ_low`
    /// permutations go to rank 0, the next `δ_mid` to rank 1, the rest to
    /// rank 2.
    ///
    /// # Panics
    /// Panics unless `δ_low + δ_mid + δ_high == 6`.
    #[must_use]
    pub fn from_deltas(deltas: [u8; 3], label: &'static str) -> Self {
        assert_eq!(
            deltas.iter().map(|&d| u32::from(d)).sum::<u32>(),
            6,
            "δ counts must total 3! = 6"
        );
        let mut distinct = [0u8; 6];
        let mut idx = 0;
        for (rank, &count) in deltas.iter().enumerate() {
            for _ in 0..count {
                distinct[idx] = rank as u8;
                idx += 1;
            }
        }
        Self::new(ClearRule::Majority, distinct, label)
    }

    /// The δ win counts per rank (the paper's `(δ_r, δ_g, δ_b)` for a
    /// triple `r < g < b`).
    #[must_use]
    pub fn deltas(&self) -> [u8; 3] {
        let mut d = [0u8; 3];
        for &w in &self.distinct {
            d[w as usize] += 1;
        }
        d
    }

    /// Definition 2: does the rule return the majority color whenever the
    /// sample has one?
    #[must_use]
    pub fn has_clear_majority_property(&self) -> bool {
        self.clear == ClearRule::Majority
    }

    /// Definition 3: δ_r = δ_g = δ_b = 2.
    #[must_use]
    pub fn is_uniform(&self) -> bool {
        self.deltas() == [2, 2, 2]
    }

    /// Theorem 3's characterization: membership in `M3` (solves plurality
    /// consensus) requires both properties.
    #[must_use]
    pub fn is_plurality_solver(&self) -> bool {
        self.has_clear_majority_property() && self.is_uniform()
    }

    /// Apply the rule to an ordered sample triple.
    #[must_use]
    pub fn apply(&self, a: u32, b: u32, c: u32) -> u32 {
        // Repeated-color cases.
        if a == b && b == c {
            return a;
        }
        if a == b || a == c || b == c {
            return match self.clear {
                ClearRule::Majority => {
                    if a == b || a == c {
                        a
                    } else {
                        b
                    }
                }
                ClearRule::Minority => {
                    if a == b {
                        c
                    } else if a == c {
                        b
                    } else {
                        a
                    }
                }
                ClearRule::FirstSample => a,
            };
        }
        // Distinct triple: rank pattern lookup.
        let r0 = u8::from(a > b) + u8::from(a > c);
        let r1 = u8::from(b > a) + u8::from(b > c);
        let r2 = u8::from(c > a) + u8::from(c > b);
        let winner_rank = self.distinct[perm_index(r0, r1, r2)];
        if r0 == winner_rank {
            a
        } else if r1 == winner_rank {
            b
        } else {
            c
        }
    }

    /// Exact per-node adoption probabilities (`O(k)` via prefix sums).
    pub fn adoption_probs(&self, counts: &[u64], out: &mut [f64]) {
        let k = counts.len();
        assert_eq!(k, out.len());
        let n: u64 = counts.iter().sum();
        assert!(n > 0, "population must be positive");
        let n_f = n as f64;
        let n3 = n_f * n_f * n_f;
        let s2: f64 = counts.iter().map(|&c| (c as f64) * (c as f64)).sum();
        let deltas = self.deltas();

        // Prefix sums over color index: L_j = Σ_{i<j} c_i, QL_j = Σ_{i<j} c_i².
        let mut l = 0.0f64;
        let mut ql = 0.0f64;
        let total: f64 = n_f;
        let mut lesser = vec![(0.0f64, 0.0f64); k];
        for (j, &c) in counts.iter().enumerate() {
            lesser[j] = (l, ql);
            l += c as f64;
            ql += (c as f64) * (c as f64);
        }

        for (j, &cj) in counts.iter().enumerate() {
            let c = cj as f64;
            let (lj, qlj) = lesser[j];
            let gj = total - lj - c;
            let qgj = s2 - qlj - c * c;

            // Clear (repeated-color) part.
            let clear = match self.clear {
                ClearRule::Majority => c * c * c + 3.0 * c * c * (n_f - c),
                ClearRule::Minority => c * c * c + 3.0 * c * (s2 - c * c),
                ClearRule::FirstSample => c * c * c + 2.0 * c * c * (n_f - c) + c * (s2 - c * c),
            };

            // Distinct part: j as lowest / middle / highest rank.
            let pairs_above = (gj * gj - qgj) / 2.0;
            let pairs_straddle = lj * gj;
            let pairs_below = (lj * lj - qlj) / 2.0;
            let dist = c
                * (f64::from(deltas[0]) * pairs_above
                    + f64::from(deltas[1]) * pairs_straddle
                    + f64::from(deltas[2]) * pairs_below);

            out[j] = (clear + dist) / n3;
        }
        crate::kernels::normalize_in_place(out);
    }
}

impl Dynamics for TableD3 {
    fn name(&self) -> String {
        self.label.into()
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
        self.adoption_probs(cur, &mut probs);
        sample_multinomial(n, &probs, next, rng);
    }

    fn has_fast_kernel(&self) -> bool {
        true
    }

    fn fixed_draws(&self) -> Option<usize> {
        Some(3)
    }
}

impl SealedDynamics for TableD3 {}

impl DynamicsCore for TableD3 {
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
        self.apply(a, b, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::CliqueSampler;
    use crate::kernels::three_majority_probs;
    use crate::median::median3_of;
    use plurality_sampling::{CountSampler, Xoshiro256PlusPlus};
    use rand::SeedableRng;

    #[test]
    fn perm_index_is_a_bijection() {
        let mut seen = [false; 6];
        for &(a, b, c) in &PERMS {
            let idx = perm_index(a, b, c);
            assert!(!seen[idx], "duplicate index {idx}");
            seen[idx] = true;
            assert_eq!(PERMS[idx], (a, b, c));
        }
    }

    #[test]
    fn delta_counts() {
        assert_eq!(TableD3::three_majority_first().deltas(), [2, 2, 2]);
        assert_eq!(TableD3::median3().deltas(), [0, 6, 0]);
        assert_eq!(TableD3::min3().deltas(), [6, 0, 0]);
        assert_eq!(TableD3::max3().deltas(), [0, 0, 6]);
        assert_eq!(TableD3::lemma8_132().deltas(), [1, 3, 2]);
        assert_eq!(TableD3::lemma8_141().deltas(), [1, 4, 1]);
        // Every rule's deltas sum to 6 (all permutations assigned).
        for d in [
            TableD3::three_majority_first(),
            TableD3::median3(),
            TableD3::lemma8_132(),
            TableD3::lemma8_141(),
            TableD3::anti_majority(),
        ] {
            assert_eq!(d.deltas().iter().map(|&x| u32::from(x)).sum::<u32>(), 6);
        }
    }

    #[test]
    fn property_checkers() {
        assert!(TableD3::three_majority_first().is_plurality_solver());
        assert!(TableD3::median3().has_clear_majority_property());
        assert!(!TableD3::median3().is_uniform());
        assert!(!TableD3::median3().is_plurality_solver());
        assert!(!TableD3::anti_majority().has_clear_majority_property());
        assert!(TableD3::anti_majority().is_uniform());
        assert!(!TableD3::anti_majority().is_plurality_solver());
        assert!(!TableD3::lemma8_132().is_plurality_solver());
    }

    #[test]
    fn apply_clear_majority_cases() {
        let d = TableD3::three_majority_first();
        assert_eq!(d.apply(5, 5, 9), 5);
        assert_eq!(d.apply(5, 9, 5), 5);
        assert_eq!(d.apply(9, 5, 5), 5);
        assert_eq!(d.apply(7, 7, 7), 7);
        let m = TableD3::anti_majority();
        assert_eq!(m.apply(5, 5, 9), 9);
        assert_eq!(m.apply(5, 9, 5), 9);
        assert_eq!(m.apply(9, 5, 5), 9);
        assert_eq!(m.apply(7, 7, 7), 7);
    }

    #[test]
    fn apply_first_sample_on_distinct() {
        let d = TableD3::three_majority_first();
        // On distinct triples, first sample must win.
        for &(a, b, c) in &[
            (1u32, 2, 3),
            (3, 1, 2),
            (2, 3, 1),
            (1, 3, 2),
            (3, 2, 1),
            (2, 1, 3),
        ] {
            assert_eq!(d.apply(a, b, c), a, "({a},{b},{c})");
        }
    }

    #[test]
    fn median3_table_matches_median_fn() {
        let d = TableD3::median3();
        for a in 0..4u32 {
            for b in 0..4u32 {
                for c in 0..4u32 {
                    assert_eq!(d.apply(a, b, c), median3_of(a, b, c), "({a},{b},{c})");
                }
            }
        }
    }

    #[test]
    fn min_max_tables() {
        for a in 0..4u32 {
            for b in 0..4u32 {
                for c in 0..4u32 {
                    if a != b && b != c && a != c {
                        assert_eq!(TableD3::min3().apply(a, b, c), a.min(b).min(c));
                        assert_eq!(TableD3::max3().apply(a, b, c), a.max(b).max(c));
                    }
                }
            }
        }
    }

    #[test]
    fn uniform_table_kernel_matches_lemma1() {
        // The uniform + clear-majority member must reproduce Lemma 1.
        let counts = [500u64, 300, 150, 50];
        let mut a = [0.0; 4];
        let mut b = [0.0; 4];
        TableD3::three_majority_first().adoption_probs(&counts, &mut a);
        three_majority_probs(&counts, &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    fn node_freq(d: &TableD3, counts: &[u64], trials: usize, seed: u64) -> Vec<f64> {
        let cs = CountSampler::new(counts);
        let mut sampler = CliqueSampler::new(&cs);
        let mut scratch = NodeScratch::with_states(counts.len());
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let mut freq = vec![0u64; counts.len()];
        for _ in 0..trials {
            freq[d.node_update(0, &mut sampler, &mut scratch, &mut rng) as usize] += 1;
        }
        freq.iter().map(|&f| f as f64 / trials as f64).collect()
    }

    #[test]
    fn kernel_matches_node_rule_for_each_table() {
        let counts = [400u64, 350, 250];
        for (i, d) in [
            TableD3::three_majority_first(),
            TableD3::median3(),
            TableD3::min3(),
            TableD3::lemma8_132(),
            TableD3::lemma8_141(),
            TableD3::anti_majority(),
        ]
        .iter()
        .enumerate()
        {
            let mut expect = [0.0; 3];
            d.adoption_probs(&counts, &mut expect);
            let freq = node_freq(d, &counts, 200_000, 100 + i as u64);
            for j in 0..3 {
                let e = expect[j];
                let sigma = (e.max(1e-9) * (1.0 - e) / 200_000.0).sqrt();
                assert!(
                    (freq[j] - e).abs() < 6.0 * sigma,
                    "{}: color {j}: {} vs {e}",
                    d.name(),
                    freq[j]
                );
            }
        }
    }

    #[test]
    fn lemma8_132_probabilities_match_paper() {
        // Lemma 8 computes, for c = (n/3+s, n/3, n/3−s) with small s/n:
        // p(r) = 8/27·(1 + O(s/n)) and p(g) = 10/27·(1 − O(s²/n²)).
        let n = 3_000_000u64;
        let s = 3_000u64;
        let base = n / 3;
        let counts = [base + s, base, base - s];
        let d = TableD3::lemma8_132();
        let mut p = [0.0; 3];
        d.adoption_probs(&counts, &mut p);
        assert!((p[0] - 8.0 / 27.0).abs() < 0.01, "p(r) = {}", p[0]);
        assert!((p[1] - 10.0 / 27.0).abs() < 0.01, "p(g) = {}", p[1]);
        // The plurality color r strictly loses mass in expectation.
        assert!(p[0] * (n as f64) < (base + s) as f64);
    }

    #[test]
    fn step_preserves_population() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(9);
        let cur = [500u64, 300, 200];
        let mut next = [0u64; 3];
        for d in [TableD3::median3(), TableD3::lemma8_141()] {
            d.step_mean_field(&cur, &mut next, &mut rng);
            assert_eq!(next.iter().sum::<u64>(), 1000);
        }
    }

    #[test]
    #[should_panic(expected = "ranks 0..=2")]
    fn rejects_invalid_table() {
        let _ = TableD3::new(ClearRule::Majority, [0, 1, 2, 3, 1, 2], "bad");
    }

    #[test]
    fn from_deltas_reproduces_counts() {
        for deltas in [
            [2u8, 2, 2],
            [1, 3, 2],
            [0, 6, 0],
            [6, 0, 0],
            [1, 4, 1],
            [3, 0, 3],
        ] {
            let rule = TableD3::from_deltas(deltas, "generated");
            assert_eq!(rule.deltas(), deltas);
            assert!(rule.has_clear_majority_property());
        }
    }

    #[test]
    fn from_deltas_law_matches_named_constructors() {
        // The kernel only depends on the δ counts, so from_deltas must
        // reproduce the named rules' adoption probabilities.
        let counts = [450u64, 350, 200];
        let mut a = [0.0; 3];
        let mut b = [0.0; 3];
        TableD3::from_deltas([1, 3, 2], "x").adoption_probs(&counts, &mut a);
        TableD3::lemma8_132().adoption_probs(&counts, &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
        TableD3::from_deltas([0, 6, 0], "y").adoption_probs(&counts, &mut a);
        TableD3::median3().adoption_probs(&counts, &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "total 3!")]
    fn from_deltas_rejects_bad_total() {
        let _ = TableD3::from_deltas([2, 2, 3], "bad");
    }
}
