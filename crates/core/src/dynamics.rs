//! The [`Dynamics`] trait: one interface for every update rule in the
//! paper and its related work.
//!
//! A *dynamics* (paper §1, §4.2) is a synchronous, anonymous, memoryless
//! update rule: each round, every node samples some neighbors and recolors
//! itself as a function of the colors it sees (plus, for the
//! undecided-state baseline, one extra state).  Each implementation
//! provides:
//!
//! * [`Dynamics::node_update`] — the per-node rule, used by the
//!   agent-based engine on arbitrary topologies; and
//! * [`Dynamics::step_mean_field`] — an *exact* one-round transition on
//!   the clique.  On the clique, node updates are i.i.d. given the current
//!   configuration, so the next configuration is a (group-wise)
//!   multinomial; closed-form kernels (e.g. Lemma 1 for 3-majority) make
//!   this `O(k)` per round.  The default implementation falls back to
//!   simulating all `n` node updates explicitly, which is exact but
//!   `O(n·h)` — implementations override it whenever a closed form exists.

use crate::config::Configuration;
use plurality_sampling::CountSampler;
use rand::RngCore;
use std::any::Any;

/// Oracle handing a node the state of a uniformly random sampled peer
/// (w.r.t. the configuration at the *start* of the round — synchronous
/// semantics).
pub trait StateSampler {
    /// Draw one sampled state.
    fn sample_state(&mut self, rng: &mut dyn RngCore) -> u32;
}

/// The monomorphizable counterpart of [`StateSampler`]: `draw` is generic
/// over the RNG, so when both the source and the RNG are concrete types
/// the whole sampling chain inlines into the engine's round loop with no
/// virtual dispatch (see [`DynamicsCore`]).
///
/// Contract: for any implementation that also exists behind a
/// [`StateSampler`], `draw` must consume the RNG identically to
/// `sample_state` — the devirtualized engines are pinned bit-for-bit
/// against the dyn path by golden-trace tests.
pub trait SampleSource {
    /// Draw one sampled state.
    fn draw<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> u32;
}

/// Bridge an object-safe [`StateSampler`] into the generic
/// [`SampleSource`] world (the dyn fallback path pays one virtual call
/// per sample, exactly as before the devirtualization).
pub struct DynSampler<'a>(pub &'a mut dyn StateSampler);

impl SampleSource for DynSampler<'_> {
    #[inline]
    fn draw<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> u32 {
        // `&mut &mut R` is Sized, so it coerces to `&mut dyn RngCore`.
        let mut rng = &mut *rng;
        self.0.sample_state(&mut rng)
    }
}

/// Bridge a generic [`SampleSource`] back into an object-safe
/// [`StateSampler`] (used by [`DynDynamics`] to feed an engine core's
/// monomorphic source through `Dynamics::node_update`).
pub struct SourceSampler<'a, S: SampleSource + ?Sized>(pub &'a mut S);

impl<S: SampleSource + ?Sized> StateSampler for SourceSampler<'_, S> {
    #[inline]
    fn sample_state(&mut self, rng: &mut dyn RngCore) -> u32 {
        self.0.draw(rng)
    }
}

/// [`StateSampler`] over a clique: peers are drawn u.a.r. from all `n`
/// nodes (self included, with repetition — the paper's sampling model),
/// which is exactly a categorical draw proportional to the state counts.
pub struct CliqueSampler<'a> {
    sampler: &'a CountSampler,
}

impl<'a> CliqueSampler<'a> {
    /// Wrap a prepared [`CountSampler`] over the current state counts.
    #[must_use]
    pub fn new(sampler: &'a CountSampler) -> Self {
        Self { sampler }
    }
}

impl StateSampler for CliqueSampler<'_> {
    #[inline]
    fn sample_state(&mut self, rng: &mut dyn RngCore) -> u32 {
        self.sampler.sample(rng) as u32
    }
}

impl SampleSource for CliqueSampler<'_> {
    #[inline]
    fn draw<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> u32 {
        self.sampler.sample(rng) as u32
    }
}

/// Reusable per-thread scratch buffers for [`Dynamics::node_update`].
///
/// Node updates run `n` times per round; allocating count buffers per
/// call would dominate the runtime (see the workspace performance
/// notes in DESIGN.md).  Engines create one `NodeScratch` per worker
/// thread and pass it through.
#[derive(Debug, Default, Clone)]
pub struct NodeScratch {
    /// Occurrence counts indexed by state; only `touched` entries are
    /// guaranteed meaningful and are reset after each update.
    pub counts: Vec<u32>,
    /// States with a nonzero entry in `counts`.
    pub touched: Vec<u32>,
}

impl NodeScratch {
    /// Scratch sized for `state_count` states.
    #[must_use]
    pub fn with_states(state_count: usize) -> Self {
        Self {
            counts: vec![0; state_count],
            touched: Vec::with_capacity(16),
        }
    }

    /// Grow `counts` to cover at least `state_count` states.
    pub fn ensure_states(&mut self, state_count: usize) {
        if self.counts.len() < state_count {
            self.counts.resize(state_count, 0);
        }
    }

    /// Reset the touched counters (cheap: proportional to distinct states
    /// seen, not to `k`).
    #[inline]
    pub fn clear_counts(&mut self) {
        for &t in &self.touched {
            self.counts[t as usize] = 0;
        }
        self.touched.clear();
    }

    /// Record one sampled state into the counters.
    #[inline]
    pub fn tally(&mut self, state: u32) {
        let slot = &mut self.counts[state as usize];
        if *slot == 0 {
            self.touched.push(state);
        }
        *slot += 1;
    }
}

/// A synchronous anonymous update rule (see module docs).
///
/// Object-safe: engines and experiments hold `&dyn Dynamics` so that the
/// full zoo of rules runs through identical machinery.
pub trait Dynamics: Send + Sync {
    /// Human-readable rule name (table/plot labels).
    fn name(&self) -> String;

    /// Number of per-node *states* for `k` colors.  Color-only dynamics
    /// return `k`; the undecided-state dynamics returns `k + 1`.
    fn state_count(&self, k_colors: usize) -> usize {
        k_colors
    }

    /// Number of *colors* represented by a state vector of length
    /// `n_states` (inverse of [`Self::state_count`]).
    fn color_count(&self, n_states: usize) -> usize {
        n_states
    }

    /// Lift a color configuration into this dynamics' state space (e.g.
    /// append an empty undecided slot).
    fn lift(&self, colors: &Configuration) -> Configuration {
        colors.clone()
    }

    /// Per-node update rule: given the node's own state and a sampling
    /// oracle for random peers' states, return the node's next state.
    ///
    /// Implementations must draw *exactly* the samples the rule defines
    /// (their count may be random only if the rule says so) and must not
    /// retain state across calls other than via `scratch`, which they must
    /// leave cleared (`scratch.clear_counts()`).
    fn node_update(
        &self,
        own: u32,
        sampler: &mut dyn StateSampler,
        scratch: &mut NodeScratch,
        rng: &mut dyn RngCore,
    ) -> u32;

    /// Sample the next configuration on the clique, exactly.
    ///
    /// `cur` and `next` are state-count slices of equal length; `next` is
    /// overwritten.  The default implementation simulates every node
    /// update (exact, `O(n·h)`); closed-form kernels override this.
    fn step_mean_field(&self, cur: &[u64], next: &mut [u64], rng: &mut dyn RngCore) {
        generic_clique_step(self, cur, next, rng);
    }

    /// Whether [`Self::step_mean_field`] is a closed-form `O(k)` kernel
    /// (`true`) or the generic `O(n·h)` fallback (`false`).  Engines use
    /// this to pick sensible defaults for very large `n`.
    fn has_fast_kernel(&self) -> bool {
        false
    }

    /// Like [`Self::has_fast_kernel`], with the state count in hand.
    /// Rules whose kernel feasibility depends on `k` — h-plurality's
    /// enumeration budget — override this; everything else inherits the
    /// size-independent answer.
    fn has_fast_kernel_for(&self, k_states: usize) -> bool {
        let _ = k_states;
        self.has_fast_kernel()
    }

    /// Consensus test over a *state* configuration: `Some(color)` when
    /// every node supports that color (extra states must be empty).
    fn consensus(&self, states: &[u64]) -> Option<usize> {
        let total: u64 = states.iter().sum();
        if total == 0 {
            return None;
        }
        let k = self.color_count(states.len());
        states[..k].iter().position(|&c| c == total)
    }

    /// Concrete-type hook for the devirtualized engine cores: dynamics
    /// that participate in downcast dispatch (see
    /// [`downcast_dynamics`]) return `Some(self)`.  The default `None`
    /// routes the rule through the generic dyn fallback, which is always
    /// correct — just not monomorphized.
    fn as_any(&self) -> Option<&dyn Any> {
        None
    }

    /// `Some(s)` iff [`Self::node_update`] consumes **exactly `s` sampler
    /// draws and no other randomness**, for every input.
    ///
    /// This is a strict promise about RNG consumption, not a hint: when
    /// it holds, an engine may prefetch the `s` neighbor draws for a
    /// whole batch of nodes (in node order) and then replay them through
    /// the rule, without changing the PRNG sequence — the batched and
    /// unbatched paths stay bit-identical (see `docs/DETERMINISM.md`).
    /// Any rule that touches `rng` outside its sampler draws — uniform
    /// tie-breaking, reservoir selection, a random draw count — must
    /// return `None` (the default).
    fn fixed_draws(&self) -> Option<usize> {
        None
    }

    /// `Some(s)` iff [`Self::node_update`] makes **exactly `s` sampler
    /// draws, all before it touches `rng` for anything else**, for every
    /// input.  What it does with `rng` afterwards (a uniform tie-break,
    /// a reservoir pass) is unconstrained.
    ///
    /// Like [`Self::fixed_draws`] this is a strict promise: an engine may
    /// gather one node's `s` neighbor draws up front and then run the
    /// rule over the gathered states, without changing the PRNG sequence.
    /// Every `fixed_draws` rule has equal leading draws, which is the
    /// default; rules that draw their own randomness after the samples
    /// override this.
    fn leading_draws(&self) -> Option<usize> {
        self.fixed_draws()
    }
}

/// Recover a concrete dynamics type from a `&dyn Dynamics` (via
/// [`Dynamics::as_any`]); the engines use this to select a fully
/// monomorphized inner loop.
#[must_use]
pub fn downcast_dynamics<D: Dynamics + 'static>(dynamics: &dyn Dynamics) -> Option<&D> {
    dynamics.as_any().and_then(<dyn Any>::downcast_ref)
}

pub(crate) mod sealed {
    /// Seals [`super::DynamicsCore`]: every update rule lives in this
    /// crate, so the engines' downcast dispatch tables stay exhaustive
    /// and the bit-for-bit contract between `node_update` and
    /// `node_update_core` is enforceable here.
    pub trait SealedDynamics {}
}

/// The sealed monomorphic extension of [`Dynamics`]: the per-node rule
/// generic over the sample source and the RNG.
///
/// Engines instantiate [`DynamicsCore::node_update_core`] with concrete
/// source/RNG types (`NeighborSource<Clique>` + `Xoshiro256PlusPlus`,
/// say), collapsing the three layers of dynamic dispatch on the
/// `Θ(n·h)`-per-round hot path into straight-line inlined code.
///
/// Contract: `Dynamics::node_update` must be a thin wrapper over this
/// method (same draw sequence, same results) — every implementation in
/// this crate delegates, and golden-trace tests pin the equivalence.
pub trait DynamicsCore: Dynamics + sealed::SealedDynamics {
    /// Monomorphic form of [`Dynamics::node_update`].
    fn node_update_core<S: SampleSource + ?Sized, R: RngCore + ?Sized>(
        &self,
        own: u32,
        source: &mut S,
        scratch: &mut NodeScratch,
        rng: &mut R,
    ) -> u32;
}

/// Fallback adapter: any `&dyn Dynamics` viewed as a [`DynamicsCore`].
/// Rules outside the engines' dispatch tables run through this — one
/// virtual `node_update` per node plus a virtual call per sample,
/// exactly the pre-devirtualization cost.
pub struct DynDynamics<'a>(pub &'a dyn Dynamics);

impl Dynamics for DynDynamics<'_> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn state_count(&self, k_colors: usize) -> usize {
        self.0.state_count(k_colors)
    }

    fn color_count(&self, n_states: usize) -> usize {
        self.0.color_count(n_states)
    }

    fn lift(&self, colors: &Configuration) -> Configuration {
        self.0.lift(colors)
    }

    fn node_update(
        &self,
        own: u32,
        sampler: &mut dyn StateSampler,
        scratch: &mut NodeScratch,
        rng: &mut dyn RngCore,
    ) -> u32 {
        self.0.node_update(own, sampler, scratch, rng)
    }

    fn step_mean_field(&self, cur: &[u64], next: &mut [u64], rng: &mut dyn RngCore) {
        self.0.step_mean_field(cur, next, rng);
    }

    fn has_fast_kernel(&self) -> bool {
        self.0.has_fast_kernel()
    }

    fn has_fast_kernel_for(&self, k_states: usize) -> bool {
        self.0.has_fast_kernel_for(k_states)
    }

    fn consensus(&self, states: &[u64]) -> Option<usize> {
        self.0.consensus(states)
    }

    fn as_any(&self) -> Option<&dyn Any> {
        self.0.as_any()
    }

    fn fixed_draws(&self) -> Option<usize> {
        self.0.fixed_draws()
    }

    fn leading_draws(&self) -> Option<usize> {
        self.0.leading_draws()
    }
}

impl sealed::SealedDynamics for DynDynamics<'_> {}

impl DynamicsCore for DynDynamics<'_> {
    #[inline]
    fn node_update_core<S: SampleSource + ?Sized, R: RngCore + ?Sized>(
        &self,
        own: u32,
        source: &mut S,
        scratch: &mut NodeScratch,
        rng: &mut R,
    ) -> u32 {
        let mut rng = &mut *rng;
        self.0
            .node_update(own, &mut SourceSampler(source), scratch, &mut rng)
    }
}

/// Exact generic clique step: run every node's update against the previous
/// round's counts.  Grouping nodes by their current state avoids storing
/// per-node arrays.
///
/// This is the object-safe entry point; rules implemented in this crate
/// reach the same loop monomorphized via [`clique_step_core`] (identical
/// draw sequence — both run the node rule against a [`CliqueSampler`]
/// over the same counts).
pub fn generic_clique_step<D: Dynamics + ?Sized>(
    dynamics: &D,
    cur: &[u64],
    next: &mut [u64],
    rng: &mut dyn RngCore,
) {
    assert_eq!(cur.len(), next.len(), "state slice length mismatch");
    next.fill(0);
    let total: u64 = cur.iter().sum();
    if total == 0 {
        return;
    }
    let count_sampler = CountSampler::new(cur);
    let mut scratch = NodeScratch::with_states(cur.len());
    let mut sampler = CliqueSampler::new(&count_sampler);
    for (state, &population) in cur.iter().enumerate() {
        for _ in 0..population {
            let new = dynamics.node_update(state as u32, &mut sampler, &mut scratch, rng);
            next[new as usize] += 1;
        }
    }
    debug_assert_eq!(next.iter().sum::<u64>(), total);
}

/// Monomorphized form of [`generic_clique_step`]: the `O(n·h)` mean-field
/// fallback (h-plurality beyond the enumeration budget, say) with the
/// node rule and categorical sampler fully inlined.  Consumes the RNG
/// identically to the object-safe version.
pub fn clique_step_core<D: DynamicsCore + ?Sized, R: RngCore + ?Sized>(
    dynamics: &D,
    cur: &[u64],
    next: &mut [u64],
    rng: &mut R,
) {
    assert_eq!(cur.len(), next.len(), "state slice length mismatch");
    next.fill(0);
    let total: u64 = cur.iter().sum();
    if total == 0 {
        return;
    }
    let count_sampler = CountSampler::new(cur);
    let mut scratch = NodeScratch::with_states(cur.len());
    let mut sampler = CliqueSampler::new(&count_sampler);
    for (state, &population) in cur.iter().enumerate() {
        for _ in 0..population {
            let new = dynamics.node_update_core(state as u32, &mut sampler, &mut scratch, rng);
            next[new as usize] += 1;
        }
    }
    debug_assert_eq!(next.iter().sum::<u64>(), total);
}

#[cfg(test)]
mod tests {
    use super::*;
    use plurality_sampling::Xoshiro256PlusPlus;
    use rand::SeedableRng;

    /// A trivial dynamics for plumbing tests: always adopt the sampled
    /// state (this is the voter rule, re-declared locally on purpose).
    struct AdoptSample;

    impl Dynamics for AdoptSample {
        fn name(&self) -> String {
            "adopt-sample".into()
        }

        fn node_update(
            &self,
            _own: u32,
            sampler: &mut dyn StateSampler,
            _scratch: &mut NodeScratch,
            rng: &mut dyn RngCore,
        ) -> u32 {
            sampler.sample_state(rng)
        }
    }

    #[test]
    fn generic_step_preserves_population() {
        let d = AdoptSample;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let cur = [500u64, 300, 200];
        let mut next = [0u64; 3];
        d.step_mean_field(&cur, &mut next, &mut rng);
        assert_eq!(next.iter().sum::<u64>(), 1000);
    }

    #[test]
    fn generic_step_absorbing_on_monochromatic() {
        let d = AdoptSample;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        let cur = [0u64, 777, 0];
        let mut next = [0u64; 3];
        d.step_mean_field(&cur, &mut next, &mut rng);
        assert_eq!(next, [0, 777, 0]);
    }

    #[test]
    fn consensus_default_impl() {
        let d = AdoptSample;
        assert_eq!(d.consensus(&[0, 5, 0]), Some(1));
        assert_eq!(d.consensus(&[1, 4, 0]), None);
        assert_eq!(d.consensus(&[0, 0]), None);
    }

    #[test]
    fn scratch_tally_and_clear() {
        let mut s = NodeScratch::with_states(8);
        s.tally(3);
        s.tally(3);
        s.tally(5);
        assert_eq!(s.counts[3], 2);
        assert_eq!(s.counts[5], 1);
        assert_eq!(s.touched, vec![3, 5]);
        s.clear_counts();
        assert_eq!(s.counts[3], 0);
        assert_eq!(s.counts[5], 0);
        assert!(s.touched.is_empty());
    }

    #[test]
    fn scratch_ensure_grows() {
        let mut s = NodeScratch::default();
        s.ensure_states(4);
        assert_eq!(s.counts.len(), 4);
        s.ensure_states(2);
        assert_eq!(s.counts.len(), 4);
    }

    #[test]
    fn clique_sampler_exact_marginals() {
        let counts = [900u64, 100];
        let cs = CountSampler::new(&counts);
        let mut sampler = CliqueSampler::new(&cs);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        let trials = 50_000;
        let ones = (0..trials)
            .filter(|_| sampler.sample_state(&mut rng) == 1)
            .count();
        let expect = trials as f64 * 0.1;
        let sigma = (trials as f64 * 0.1 * 0.9).sqrt();
        assert!(
            ((ones as f64) - expect).abs() < 5.0 * sigma,
            "ones = {ones}"
        );
    }
}
