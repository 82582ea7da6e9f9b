//! Contract test for the two draw promises on [`Dynamics`]:
//!
//! * `fixed_draws() == Some(s)`: exactly `s` sampler draws and no other
//!   randomness;
//! * `leading_draws() == Some(s)`: exactly `s` sampler draws, all made
//!   before the rule takes any other word from its RNG.
//!
//! The agent engine trusts both to gather neighbor draws ahead of the
//! rule without moving the PRNG sequence, so a wrong declaration would
//! silently change trajectories.  Every rule in the crate is replayed
//! here over random inputs, through a source that records how many RNG
//! words the rule had taken at each draw.

use plurality_core::{
    DynDynamics, Dynamics, DynamicsCore, HPlurality, Median3, MedianOwn, NodeScratch,
    NoisyThreeMajority, SampleSource, TableD3, ThreeMajority, TwoChoices, TwoSample,
    UndecidedState, Voter,
};
use plurality_sampling::Xoshiro256PlusPlus;
use rand::{Rng, RngCore, SeedableRng};
use std::cell::Cell;
use std::rc::Rc;

/// The rule's own RNG: counts every word it hands out.
struct CountingRng {
    inner: Xoshiro256PlusPlus,
    words: Rc<Cell<u64>>,
}

impl RngCore for CountingRng {
    fn next_u32(&mut self) -> u32 {
        self.words.set(self.words.get() + 1);
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.words.set(self.words.get() + 1);
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.words
            .set(self.words.get() + dest.len().div_ceil(8) as u64);
        self.inner.fill_bytes(dest);
    }
}

/// Hands out random states from a generator of its own (so the rule's
/// word count stays the rule's), recording before each draw how many
/// words the rule had already taken.
struct RecordingSource {
    states: Xoshiro256PlusPlus,
    state_count: u32,
    words: Rc<Cell<u64>>,
    words_before_draw: Vec<u64>,
}

impl SampleSource for RecordingSource {
    fn draw<R: RngCore + ?Sized>(&mut self, _rng: &mut R) -> u32 {
        self.words_before_draw.push(self.words.get());
        self.states.gen_range(0..self.state_count)
    }
}

/// Every update rule in the crate, for `k` colors.
fn all_rules(k: usize) -> Vec<Box<dyn Dynamics>> {
    vec![
        Box::new(ThreeMajority::new()),
        Box::new(ThreeMajority::with_uniform_ties()),
        Box::new(HPlurality::new(1)),
        Box::new(HPlurality::new(2)),
        Box::new(HPlurality::new(5)),
        Box::new(HPlurality::new(8)),
        Box::new(Voter),
        Box::new(TwoSample),
        Box::new(TwoChoices),
        Box::new(MedianOwn),
        Box::new(Median3),
        Box::new(TableD3::three_majority_first()),
        Box::new(TableD3::median3()),
        Box::new(TableD3::min3()),
        Box::new(TableD3::max3()),
        Box::new(TableD3::lemma8_132()),
        Box::new(TableD3::lemma8_141()),
        Box::new(TableD3::anti_majority()),
        Box::new(UndecidedState::new(k)),
        Box::new(NoisyThreeMajority::new(k, 0.0)),
        Box::new(NoisyThreeMajority::new(k, 0.3)),
    ]
}

/// Replay `d` over random own states and random samples (few colors, so
/// ties and repeats are common) and check it against the promises
/// `leading` and `fixed`.
fn check_promises(
    d: &dyn Dynamics,
    k: usize,
    leading: Option<usize>,
    fixed: Option<usize>,
    seed: u64,
) -> Result<(), String> {
    let name = d.name();
    if fixed.is_some() && leading != fixed {
        return Err(format!(
            "{name}: fixed_draws {fixed:?} without equal leading_draws ({leading:?})"
        ));
    }
    let state_count = d.state_count(k);
    let words = Rc::new(Cell::new(0u64));
    let mut rng = CountingRng {
        inner: Xoshiro256PlusPlus::seed_from_u64(seed),
        words: Rc::clone(&words),
    };
    let mut source = RecordingSource {
        states: Xoshiro256PlusPlus::seed_from_u64(seed ^ 0x5eed),
        state_count: state_count as u32,
        words: Rc::clone(&words),
        words_before_draw: Vec::new(),
    };
    let mut inputs = Xoshiro256PlusPlus::seed_from_u64(seed.wrapping_add(1));
    let mut scratch = NodeScratch::with_states(state_count);
    for replay in 0..2_000 {
        let own = inputs.gen_range(0..state_count as u32);
        words.set(0);
        source.words_before_draw.clear();
        // The object-safe entry point, as the engine's dyn fallback
        // reaches it; every in-crate rule delegates to its core.
        DynDynamics(d).node_update_core(own, &mut source, &mut scratch, &mut rng);
        let drawn = &source.words_before_draw;
        if let Some(s) = leading {
            if drawn.len() != s {
                return Err(format!(
                    "{name} (replay {replay}): leading_draws promised {s} draws, made {}",
                    drawn.len()
                ));
            }
            if let Some(&w) = drawn.last().filter(|&&w| w > 0) {
                return Err(format!(
                    "{name} (replay {replay}): took {w} RNG word(s) before its last \
                     leading draw"
                ));
            }
        }
        if fixed.is_some() && words.get() > 0 {
            return Err(format!(
                "{name} (replay {replay}): fixed_draws rule took {} RNG word(s)",
                words.get()
            ));
        }
    }
    Ok(())
}

#[test]
fn every_rule_keeps_its_declared_draw_promises() {
    for k in [2usize, 3, 5] {
        for (i, d) in all_rules(k).iter().enumerate() {
            let d = d.as_ref();
            let (leading, fixed) = (d.leading_draws(), d.fixed_draws());
            let via_dyn = DynDynamics(d);
            assert_eq!(via_dyn.leading_draws(), leading, "{}", d.name());
            assert_eq!(via_dyn.fixed_draws(), fixed, "{}", d.name());
            if let Err(e) = check_promises(d, k, leading, fixed, 1_000 * k as u64 + i as u64) {
                panic!("k = {k}: {e}");
            }
        }
    }
}

#[test]
fn the_rules_the_engine_gathers_for_declare_their_draws() {
    // Which loop a rule takes in the agent engine follows from these
    // declarations; pin them so a lost override shows up here first.
    let promises = |d: &dyn Dynamics| (d.leading_draws(), d.fixed_draws());
    assert_eq!(promises(&ThreeMajority::new()), (Some(3), Some(3)));
    assert_eq!(
        promises(&ThreeMajority::with_uniform_ties()),
        (Some(3), None)
    );
    assert_eq!(promises(&HPlurality::new(5)), (Some(5), None));
    assert_eq!(promises(&Voter), (Some(1), Some(1)));
    assert_eq!(promises(&TwoSample), (Some(2), None));
    assert_eq!(promises(&TwoChoices), (Some(2), Some(2)));
    assert_eq!(promises(&MedianOwn), (Some(2), Some(2)));
    assert_eq!(promises(&Median3), (Some(3), Some(3)));
    assert_eq!(promises(&TableD3::median3()), (Some(3), Some(3)));
    assert_eq!(promises(&UndecidedState::new(3)), (Some(1), Some(1)));
    assert_eq!(promises(&NoisyThreeMajority::new(3, 0.3)), (None, None));
}

#[test]
fn the_replay_catches_false_promises() {
    // Noisy 3-majority draws its noise coin before each sample.
    let noisy = NoisyThreeMajority::new(3, 0.3);
    assert!(check_promises(&noisy, 3, Some(3), None, 7).is_err());
    // 2-sample flips a coin after its draws: leading, never fixed.
    assert!(check_promises(&TwoSample, 3, Some(2), Some(2), 7).is_err());
    // A wrong draw count.
    assert!(check_promises(&HPlurality::new(5), 3, Some(4), None, 7).is_err());
    // A fixed promise needs the equal leading promise.
    assert!(check_promises(&Voter, 3, None, Some(1), 7).is_err());
}
