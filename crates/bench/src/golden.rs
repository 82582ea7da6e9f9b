//! The golden-trace fingerprint tables: the **single source of truth**
//! for the bit-exactness pins shared by
//!
//! * `tests/agent_golden.rs` at the workspace root (fails `cargo test`
//!   on drift), and
//! * the `golden_fingerprints` binary (`--check` re-runs every case and
//!   exits nonzero on drift — the CI gate; without flags it prints
//!   regenerated rows to paste here after an *intentional* change).
//!
//! The constants were captured at PR 2's HEAD (commit ca39456, fully
//! virtual dispatch) and pin the engines' PRNG stream layout bit for
//! bit: placement shuffle, chunk→stream layout, per-sample and
//! per-message RNG consumption.  The devirtualized cores (PR 3) and the
//! failure-model layer's degenerate path (PR 5) must reproduce every
//! value exactly.

use plurality_core::{Dynamics, HPlurality, ThreeMajority, UndecidedState};
use plurality_engine::{AgentEngine, Placement, RunOptions, Trace};
use plurality_gossip::{ExchangeMode, GossipEngine, NetworkConfig, Scheduler};
use plurality_topology::{erdos_renyi, random_regular, ChungLu, Clique, ImplicitRing, Topology};

/// FNV-1a fold of a trace's `(round, plurality, second, minority, extra)`
/// tuples — the fingerprint every golden table uses.
#[must_use]
pub fn trace_fingerprint(trace: &Trace) -> u64 {
    let fnv = |acc: u64, x: u64| (acc ^ x).wrapping_mul(0x0100_0000_01b3);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in &trace.rounds {
        h = fnv(h, s.round);
        h = fnv(h, s.plurality_count);
        h = fnv(h, s.second_count);
        h = fnv(h, s.minority_mass);
        h = fnv(h, s.extra_state_mass);
    }
    h
}

/// One pinned `AgentEngine` configuration (population `biased(n, 4,
/// n/5)` on the case's topology) and its expected outcome.
pub struct AgentCase {
    /// Human-readable case name.
    pub label: &'static str,
    /// Topology constructor (cases rebuild it to stay `const`).
    pub topology: fn() -> Box<dyn Topology>,
    /// Dynamics constructor.
    pub dynamics: fn() -> Box<dyn Dynamics>,
    /// Worker threads (the chunk→stream layout is thread-invariant, but
    /// the pinned trace was captured at this setting).
    pub threads: usize,
    /// Trial seed.
    pub seed: u64,
    /// Expected rounds to absorption.
    pub rounds: u64,
    /// Expected winner.
    pub winner: Option<usize>,
    /// Expected trace fingerprint.
    pub fingerprint: u64,
}

fn clique3000() -> Box<dyn Topology> {
    Box::new(Clique::new(3_000))
}

fn clique2000() -> Box<dyn Topology> {
    Box::new(Clique::new(2_000))
}

fn er1500() -> Box<dyn Topology> {
    let er = erdos_renyi(1_500, 0.01, 7);
    assert!(er.min_degree() > 0, "ER graph has an isolated node");
    Box::new(er)
}

fn regular1200() -> Box<dyn Topology> {
    Box::new(random_regular(1_200, 8, 3))
}

fn ring_gradient1500() -> Box<dyn Topology> {
    Box::new(ImplicitRing::gradient(1_500, 1.5, 16))
}

fn chung_lu1500() -> Box<dyn Topology> {
    Box::new(ChungLu::power_law(1_500, 4.0, 100.0, 2.5))
}

fn three_majority() -> Box<dyn Dynamics> {
    Box::new(ThreeMajority::new())
}

fn three_majority_uar() -> Box<dyn Dynamics> {
    Box::new(ThreeMajority::with_uniform_ties())
}

fn plurality7() -> Box<dyn Dynamics> {
    Box::new(HPlurality::new(7))
}

fn plurality5() -> Box<dyn Dynamics> {
    Box::new(HPlurality::new(5))
}

fn undecided4() -> Box<dyn Dynamics> {
    Box::new(UndecidedState::new(4))
}

/// The pinned `AgentEngine` cases.
pub const AGENT_CASES: &[AgentCase] = &[
    AgentCase {
        label: "clique(3000) 3-majority 1 thread",
        topology: clique3000,
        dynamics: three_majority,
        threads: 1,
        seed: 11,
        rounds: 8,
        winner: Some(0),
        fingerprint: 0x52c7_3a4f_ac48_b1e4,
    },
    // The next two cases rerun the same trial (same seed, topology,
    // dynamics) at threads 2 and 4: the determinism contract says the
    // fingerprint must equal the 1-thread pin above, bit for bit.
    AgentCase {
        label: "clique(3000) 3-majority 2 threads (same trial as 1 thread)",
        topology: clique3000,
        dynamics: three_majority,
        threads: 2,
        seed: 11,
        rounds: 8,
        winner: Some(0),
        fingerprint: 0x52c7_3a4f_ac48_b1e4,
    },
    AgentCase {
        label: "clique(3000) 3-majority 4 threads (same trial as 1 thread)",
        topology: clique3000,
        dynamics: three_majority,
        threads: 4,
        seed: 11,
        rounds: 8,
        winner: Some(0),
        fingerprint: 0x52c7_3a4f_ac48_b1e4,
    },
    AgentCase {
        label: "clique(3000) 3-majority 3 threads",
        topology: clique3000,
        dynamics: three_majority,
        threads: 3,
        seed: 12,
        rounds: 10,
        winner: Some(0),
        fingerprint: 0x97f9_5b66_918f_9ada,
    },
    AgentCase {
        label: "clique(2000) 7-plurality",
        topology: clique2000,
        dynamics: plurality7,
        threads: 1,
        seed: 21,
        rounds: 4,
        winner: Some(0),
        fingerprint: 0x093a_5f16_d786_273d,
    },
    AgentCase {
        label: "clique(2000) undecided",
        topology: clique2000,
        dynamics: undecided4,
        threads: 2,
        seed: 31,
        rounds: 12,
        winner: Some(0),
        fingerprint: 0xf4bc_e390_12f9_c77f,
    },
    AgentCase {
        label: "er(1500,0.01) 3-majority",
        topology: er1500,
        dynamics: three_majority,
        threads: 1,
        seed: 41,
        rounds: 11,
        winner: Some(0),
        fingerprint: 0x8034_9ad9_b072_ba0a,
    },
    // Random-regular graphs take the uniform-degree fast path (implicit
    // offsets); it must draw exactly like the general CSR path did.
    AgentCase {
        label: "regular(1200,8) 5-plurality",
        topology: regular1200,
        dynamics: plurality5,
        threads: 2,
        seed: 51,
        rounds: 10,
        winner: Some(0),
        fingerprint: 0x0cad_b321_d4cb_5fb2,
    },
    // Implicit O(n)-memory families (PR 10).  These are *fresh* pins —
    // the implicit samplers draw a different number of times per
    // neighbor than the CSR path, so CSR-compatible fingerprints are
    // impossible by design.  Each family is pinned at 1 and 2 threads
    // with the same seed: the fingerprints must match bit for bit.
    AgentCase {
        label: "ring-gradient(1500,alpha=1.5,span=16) 3-majority 1 thread",
        topology: ring_gradient1500,
        dynamics: three_majority,
        threads: 1,
        seed: 61,
        rounds: 2605,
        winner: Some(0),
        fingerprint: 0xa630_35e7_f2c4_26b3,
    },
    AgentCase {
        label: "ring-gradient(1500,alpha=1.5,span=16) 3-majority 2 threads (same trial)",
        topology: ring_gradient1500,
        dynamics: three_majority,
        threads: 2,
        seed: 61,
        rounds: 2605,
        winner: Some(0),
        fingerprint: 0xa630_35e7_f2c4_26b3,
    },
    AgentCase {
        label: "chung-lu(1500,dmin=4,dmax=100,gamma=2.5) undecided 1 thread",
        topology: chung_lu1500,
        dynamics: undecided4,
        threads: 1,
        seed: 62,
        rounds: 13,
        winner: Some(0),
        fingerprint: 0x7f7d_0634_91db_4b0c,
    },
    AgentCase {
        label: "chung-lu(1500,dmin=4,dmax=100,gamma=2.5) undecided 2 threads (same trial)",
        topology: chung_lu1500,
        dynamics: undecided4,
        threads: 2,
        seed: 62,
        rounds: 13,
        winner: Some(0),
        fingerprint: 0x7f7d_0634_91db_4b0c,
    },
    // Rules whose neighbor draws all come before any other randomness
    // (`Dynamics::leading_draws`).  h-plurality on Chung–Lu puts the
    // data-dependent self-loop rejection inside each node's gather, and
    // uniform-tie 3-majority draws its tie-break after the three samples.
    // Both were recorded while these rules still took the one-pass pull
    // loop, so they hold the gather to the old draw order.
    AgentCase {
        label: "chung-lu(1500,dmin=4,dmax=100,gamma=2.5) 5-plurality 1 thread",
        topology: chung_lu1500,
        dynamics: plurality5,
        threads: 1,
        seed: 63,
        rounds: 5,
        winner: Some(0),
        fingerprint: 0xb143_a171_b50e_3829,
    },
    AgentCase {
        label: "chung-lu(1500,dmin=4,dmax=100,gamma=2.5) 5-plurality 2 threads (same trial)",
        topology: chung_lu1500,
        dynamics: plurality5,
        threads: 2,
        seed: 63,
        rounds: 5,
        winner: Some(0),
        fingerprint: 0xb143_a171_b50e_3829,
    },
    AgentCase {
        label: "clique(2000) 3-majority-uar 1 thread",
        topology: clique2000,
        dynamics: three_majority_uar,
        threads: 1,
        seed: 22,
        rounds: 8,
        winner: Some(0),
        fingerprint: 0xc056_0ca0_09f6_7e37,
    },
];

/// One pinned `GossipEngine` configuration (3-majority on
/// `clique(800)`, `biased(800, 3, 160)`) and its expected outcome.
pub struct GossipCase {
    /// Human-readable case name.
    pub label: &'static str,
    /// Exchange mode.
    pub mode: ExchangeMode,
    /// Activation scheduler.
    pub scheduler: Scheduler,
    /// Uniform network conditions (the degenerate failure model).
    pub network: NetworkConfig,
    /// Trial seed.
    pub seed: u64,
    /// Expected ticks to absorption.
    pub rounds: u64,
    /// Expected winner.
    pub winner: Option<usize>,
    /// Expected activation count.
    pub activations: u64,
    /// Expected message count.
    pub messages: u64,
    /// Expected trace fingerprint.
    pub fingerprint: u64,
}

/// The pinned `GossipEngine` cases.
pub const GOSSIP_CASES: &[GossipCase] = &[
    GossipCase {
        label: "poisson pull ideal",
        mode: ExchangeMode::Pull,
        scheduler: Scheduler::Poisson,
        network: NetworkConfig {
            delay_fraction: 0.0,
            loss_fraction: 0.0,
        },
        seed: 71,
        rounds: 12,
        winner: Some(0),
        activations: 9_065,
        messages: 27_195,
        fingerprint: 0x6f93_002c_a927_7acd,
    },
    GossipCase {
        label: "poisson pull delay/loss",
        mode: ExchangeMode::Pull,
        scheduler: Scheduler::Poisson,
        network: NetworkConfig {
            delay_fraction: 0.4,
            loss_fraction: 0.05,
        },
        seed: 72,
        rounds: 15,
        winner: Some(0),
        activations: 11_570,
        messages: 34_710,
        fingerprint: 0x7a40_8de9_e106_22fd,
    },
    GossipCase {
        label: "sequential push ideal",
        mode: ExchangeMode::Push,
        scheduler: Scheduler::Sequential,
        network: NetworkConfig {
            delay_fraction: 0.0,
            loss_fraction: 0.0,
        },
        seed: 81,
        rounds: 30,
        winner: Some(0),
        activations: 23_351,
        messages: 23_351,
        fingerprint: 0xa74d_cbca_959d_c569,
    },
    GossipCase {
        label: "poisson push-pull delay/loss",
        mode: ExchangeMode::PushPull,
        scheduler: Scheduler::Poisson,
        network: NetworkConfig {
            delay_fraction: 0.4,
            loss_fraction: 0.05,
        },
        seed: 91,
        rounds: 15,
        winner: Some(0),
        activations: 11_262,
        messages: 18_600,
        fingerprint: 0x73cf_9691_afc5_b98e,
    },
];

/// What one case actually produced when re-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observed {
    /// Rounds (agent) or ticks (gossip) to absorption.
    pub rounds: u64,
    /// Winning color.
    pub winner: Option<usize>,
    /// Activations (gossip only; 0 for agent cases).
    pub activations: u64,
    /// Messages (gossip only; 0 for agent cases).
    pub messages: u64,
    /// Trace fingerprint.
    pub fingerprint: u64,
}

/// Re-run one agent case.
#[must_use]
pub fn run_agent_case(case: &AgentCase) -> Observed {
    let topo = (case.topology)();
    let d = (case.dynamics)();
    let n = topo.n() as u64;
    let cfg = plurality_core::builders::biased(n, 4, n / 5);
    let engine = AgentEngine::new(topo.as_ref())
        .with_threads(case.threads)
        .with_chunk_size(512);
    let opts = RunOptions::with_max_rounds(50_000).traced();
    let r = engine.run(d.as_ref(), &cfg, Placement::Shuffled, &opts, case.seed);
    Observed {
        rounds: r.rounds,
        winner: r.winner,
        activations: 0,
        messages: 0,
        fingerprint: trace_fingerprint(&r.trace.unwrap()),
    }
}

/// Re-run one gossip case.
#[must_use]
pub fn run_gossip_case(case: &GossipCase) -> Observed {
    let clique = Clique::new(800);
    let cfg = plurality_core::builders::biased(800, 3, 160);
    let engine = GossipEngine::new(&clique)
        .with_mode(case.mode)
        .with_scheduler(case.scheduler)
        .with_network(case.network);
    let opts = RunOptions::with_max_rounds(100_000).traced();
    let (r, s) = engine.run_detailed(
        &ThreeMajority::new(),
        &cfg,
        Placement::Shuffled,
        &opts,
        case.seed,
    );
    Observed {
        rounds: r.rounds,
        winner: r.winner,
        activations: s.activations,
        messages: s.messages,
        fingerprint: trace_fingerprint(&r.trace.unwrap()),
    }
}

fn agent_expected(case: &AgentCase) -> Observed {
    Observed {
        rounds: case.rounds,
        winner: case.winner,
        activations: 0,
        messages: 0,
        fingerprint: case.fingerprint,
    }
}

fn gossip_expected(case: &GossipCase) -> Observed {
    Observed {
        rounds: case.rounds,
        winner: case.winner,
        activations: case.activations,
        messages: case.messages,
        fingerprint: case.fingerprint,
    }
}

/// Re-run every pinned case and report each drift as one description.
/// `Ok(())` means the engines are still bit-identical to the captured
/// goldens.
///
/// # Errors
/// One entry per drifted case: label, expected, and observed values.
pub fn check_all() -> Result<(), Vec<String>> {
    let mut drifts = Vec::new();
    for case in AGENT_CASES {
        let got = run_agent_case(case);
        let want = agent_expected(case);
        if got != want {
            drifts.push(format!(
                "agent '{}': expected {want:?}, observed {got:?}",
                case.label
            ));
        }
    }
    for case in GOSSIP_CASES {
        let got = run_gossip_case(case);
        let want = gossip_expected(case);
        if got != want {
            drifts.push(format!(
                "gossip '{}': expected {want:?}, observed {got:?}",
                case.label
            ));
        }
    }
    if drifts.is_empty() {
        Ok(())
    } else {
        Err(drifts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_well_formed() {
        assert_eq!(AGENT_CASES.len(), 15);
        assert_eq!(GOSSIP_CASES.len(), 4);
        for c in AGENT_CASES {
            assert!(!c.label.is_empty());
            assert!(c.threads > 0);
        }
    }

    #[test]
    fn fingerprint_folds_every_field() {
        use plurality_engine::Trace;
        let mut a = Trace::new();
        let mut b = Trace::new();
        // Not permutations of each other: the trace summary is
        // order-invariant, so only genuinely different count profiles
        // may fingerprint differently.
        a.record(0, &[5u64, 3, 2], 3, false);
        b.record(0, &[6u64, 2, 2], 3, false);
        assert_ne!(trace_fingerprint(&a), trace_fingerprint(&b));
        assert_eq!(trace_fingerprint(&a), trace_fingerprint(&a));
    }
}
