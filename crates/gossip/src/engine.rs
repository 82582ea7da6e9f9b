//! The asynchronous gossip engine.
//!
//! One trial is a deterministic function of `(seed, mode, scheduler,
//! rates, network, topology, dynamics, placement)`.  PRNG stream layout
//! (per trial seed, all streams derived with
//! `plurality_sampling::stream_rng`):
//!
//! | stream | used for |
//! |---|---|
//! | 0 | initial placement shuffle (same convention as `AgentEngine`) |
//! | 1 | the activation clock (node choices / exponential waiting times) |
//! | 2 | rule-internal randomness passed to `Dynamics::node_update` |
//! | 3 | master for per-message streams (see [`crate::network`]) |
//! | 4 | failure-model chains (Gilbert–Elliott / outage holding times) |
//! | 5 | inbox overflow draws (only [`InboxPolicy::RandomReplace`]) |
//! | 6 | churn processes (event times, victims, anchors, init colors) |
//!
//! # Telemetry
//!
//! [`GossipEngine::run_recorded`] threads a
//! [`plurality_telemetry::Recorder`] through the monomorphized core.
//! Recording **consumes no randomness** and never branches the
//! simulation, so a trial's trajectory is independent of the recorder;
//! with [`NoopRecorder`] the instrumentation compiles away entirely
//! (that is what `run` / `run_detailed` use).  Message counters are
//! attributed per failure layer ([`DropLayer`]) and obey the exact
//! conservation laws documented on [`Counter`].
//!
//! # Event processing order
//!
//! Activations are drawn directly from the [`ActivationClock`]; delayed
//! recolor commits and in-flight pushed colors wait in the lazy-deletion
//! [`EventQueue`].  The engine merges the two sources by firing time,
//! with a documented deterministic rule at exact timestamp ties: **queued
//! network events fire before the activation sharing their timestamp**,
//! and queued events among themselves fire FIFO by insertion sequence
//! number.  (This reproduces PR 1's behavior, where the pending
//! activation always carried a later sequence number than any queued
//! commit — pinned bit-for-bit by the golden PULL traces in
//! `tests/gossip_modes.rs`.)
//!
//! # One activation, by exchange mode
//!
//! * **Pull** — the node draws its rule's samples as PULL requests
//!   (loss ⇒ own-color fallback; delay ⇒ the recolor commits when the
//!   slowest response lands, superseded if the node activates again).
//! * **Push** — the node sends its current color to one random peer
//!   (per-message loss/delay apply), then applies its rule against its
//!   own inbox of previously received colors; if the inbox cannot supply
//!   every sample the rule draws, the update is *starved* and skipped
//!   (the inbox is left untouched).
//! * **PushPull** — the node serves its rule's samples from its inbox
//!   first and issues one bidirectional exchange per remaining sample:
//!   the pull leg answers the sample, the push leg carries the node's
//!   (pre-update) color into the contacted peer's inbox, with loss and
//!   delay striking each leg independently.

use crate::churn::{ChurnEvent, ChurnModel, ChurnState, InitPolicy};
use crate::failure::{DropLayer, FailureModel, FailureState};
use crate::modes::{ExchangeMode, Inbox, InboxAdmit, InboxPolicy};
use crate::network::{ExchangeFate, LegFate, MessageFate, MessageStreams, NetworkConfig};
use crate::scheduler::{ActivationClock, EventKind, EventQueue, RatedActivation, Scheduler};
use plurality_core::{
    downcast_dynamics, Configuration, DynDynamics, Dynamics, DynamicsCore, HPlurality, NodeScratch,
    SampleSource, ThreeMajority, UndecidedState, Voter,
};
use plurality_engine::{
    evaluate_stop, layout_initial_states, unique_initial_plurality, Placement, RunOptions,
    StopReason, Trace, TraceLevel, TrialResult,
};
use plurality_sampling::{derive_stream, stream_rng, Xoshiro256PlusPlus};
use plurality_telemetry::{ticks_to_fp, Counter, Gauge, Hist, NoopRecorder, Phase, Recorder};
use plurality_topology::{
    downcast_topology, ChungLu, Clique, CsrGraph, DynTopology, ImplicitRing, Membership, Topology,
    TopologyCore, MAX_DEAD_REDRAWS,
};
use rand::{Rng, RngCore};
use std::sync::Arc;

// Stream 0 is the placement shuffle, consumed inside
// `plurality_engine::layout_initial_states`.
const STREAM_SCHEDULER: u64 = 1;
const STREAM_UPDATE: u64 = 2;
const STREAM_MESSAGES: u64 = 3;
/// Failure-model chain randomness (Gilbert–Elliott / outage holding
/// times).  Never consumed by the degenerate uniform model, so plain
/// `NetworkConfig` runs stay bit-identical to PR 2/3.
const STREAM_FAILURE: u64 = 4;
/// Inbox overflow randomness.  Consumed only by
/// [`InboxPolicy::RandomReplace`] (one draw per overflow), so runs under
/// every other inbox policy stay bit-identical to PR 2/3.
const STREAM_INBOX: u64 = 5;
/// Churn-process randomness (event times, victim/anchor choices, arrival
/// init colors).  Consumed only when a [`ChurnModel`] is configured, so
/// churn-free runs stay bit-identical to earlier PRs — and a configured
/// model whose rates are all zero never draws from it either.
const STREAM_CHURN: u64 = 6;

/// Event-driven asynchronous simulator over a [`Topology`].
///
/// Implements the same run contract as the synchronous engines
/// ([`RunOptions`] in, [`TrialResult`] out), so it drops into
/// `MonteCarlo`, the experiments, and the CLI unchanged.
pub struct GossipEngine<'t> {
    topology: &'t dyn Topology,
    mode: ExchangeMode,
    scheduler: Scheduler,
    failure: FailureModel,
    /// Dense `(loss, delay)` per directed CSR edge slot — precomputed
    /// once in [`GossipEngine::with_failure_model`] when the model has
    /// genuinely per-edge parameters and the topology is a [`CsrGraph`],
    /// shared read-only by every trial.  Held behind an `Arc` so a
    /// spec-keyed cache (the job server) can build the table once and
    /// share it across engines on different worker threads.
    edge_table: Option<Arc<[(f64, f64)]>>,
    /// Directed-slot count for the flat Gilbert–Elliott chain table —
    /// `Some` when the model has a GE component and the topology is a
    /// [`CsrGraph`], so per-edge chains live in a dense `Vec` indexed by
    /// CSR slot instead of a `HashMap` (bit-identical fates: a chain's
    /// trajectory is a pure function of its unordered-edge seed).
    ge_slots: Option<usize>,
    inbox_policy: InboxPolicy,
    rates: Option<Arc<[f64]>>,
    /// Prebuilt alias sampler over `rates` — constructed once in
    /// [`GossipEngine::with_node_rates`] and shared by every trial (and,
    /// behind the `Arc`, across engines on different worker threads).
    rated: Option<Arc<RatedActivation>>,
    rate_weighted_time: bool,
    churn: Option<ChurnModel>,
}

/// Side statistics of one gossip trial (beyond the shared
/// [`TrialResult`] contract).
///
/// `messages` counts initiated calls (= per-message RNG streams): PULL
/// sample requests, PUSH sends, or PUSH-PULL exchanges.  For PUSH-PULL,
/// `lost_messages` / `delayed_messages` count *legs* (an exchange can
/// contribute up to two of each).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GossipStats {
    /// Node activations executed.
    pub activations: u64,
    /// Calls initiated (PULL requests / PUSH sends / PUSH-PULL exchanges).
    pub messages: u64,
    /// Messages (or exchange legs) dropped by the network.
    pub lost_messages: u64,
    /// Messages (or exchange legs) that arrived late.
    pub delayed_messages: u64,
    /// Pending recolors invalidated by a newer activation of the same
    /// node before their delayed responses arrived.
    pub superseded_commits: u64,
    /// Pushed colors that landed in an inbox (instantly or late).
    pub pushes_delivered: u64,
    /// Update-rule samples answered from the node's inbox.
    pub inbox_served: u64,
    /// PUSH-mode activations whose update was skipped because the inbox
    /// could not supply every sample the rule draws.
    pub starved_updates: u64,
    /// Buffered colors evicted because an inbox hit [`crate::INBOX_CAP`].
    pub inbox_dropped: u64,
    /// Spares that joined the population (churn only).
    pub churn_joins: u64,
    /// Alive nodes that crashed (churn only).
    pub churn_crashes: u64,
    /// Alive nodes that left gracefully (churn only).
    pub churn_leaves: u64,
    /// Dead members that rejoined (churn only).
    pub churn_rejoins: u64,
    /// In-flight events voided by a departure: queued recolor commits
    /// cancelled at crash/leave time plus delayed pushes that arrived at
    /// a dead node (churn only).
    pub orphaned_events: u64,
    /// Dead peers hit (and redrawn around) by neighbor sampling (churn
    /// only).
    pub dead_peer_samples: u64,
    /// Alive nodes when the trial stopped (= `n` without churn).
    pub final_alive: u64,
    /// Simulated clock at stop time, in ticks.
    pub final_time: f64,
}

/// Draws one node's PULL samples, routing every request through the
/// network-condition model.  The engine's `update_rng` (passed to
/// `node_update_core` for rule-internal randomness such as tie-breaks)
/// is deliberately *not* used here: message randomness lives in
/// per-message streams.  Monomorphic over the topology so the peer draw
/// inlines into the activation loop.
struct GossipSampler<'a, 'm, T, Rec> {
    topology: &'a T,
    states: &'a [u32],
    node: usize,
    own: u32,
    now: f64,
    fstate: &'a mut FailureState<'m>,
    streams: &'a mut MessageStreams,
    rec: &'a mut Rec,
    /// Churn membership overlay; `None` runs the static-topology draw
    /// unchanged (bit-identical to earlier PRs).
    membership: Option<&'a Membership>,
    max_extra_ticks: f64,
    // Per-activation tallies, flushed into the recorder (and
    // `GossipStats`) once the update returns: register increments in
    // the draw loop instead of per-message recorder traffic.  Only the
    // cold branches (loss attribution, delay histogram) touch `rec`
    // directly.  `sent - lost` = delivered, so nothing else is needed.
    sent: u64,
    lost: u64,
    delayed: u64,
    dead_hits: u64,
}

impl<T: TopologyCore, Rec: Recorder> SampleSource for GossipSampler<'_, '_, T, Rec> {
    fn draw<R: RngCore + ?Sized>(&mut self, _rng: &mut R) -> u32 {
        let topology = self.topology;
        let node = self.node;
        let fate = match self.membership {
            None => self
                .streams
                .next_fate_in(self.fstate, self.now, node, |mrng| {
                    topology.sample_neighbor_edge_core(node, mrng)
                }),
            Some(m) => {
                let mut hits = 0u64;
                let fate = self
                    .streams
                    .next_fate_in(self.fstate, self.now, node, |mrng| {
                        m.sample_alive_neighbor_edge(topology, node, &mut hits, mrng)
                    });
                self.dead_hits += hits;
                if hits >= MAX_DEAD_REDRAWS {
                    // The redraw budget ran dry on dead peers: the
                    // sample is lost to the churn layer (whatever the
                    // network would have done with it).
                    MessageFate::Lost {
                        layer: DropLayer::DeadPeer,
                    }
                } else {
                    fate
                }
            }
        };
        self.sent += 1;
        match fate {
            MessageFate::Lost { layer } => {
                self.rec.incr(lost_counter(layer));
                self.lost += 1;
                self.own
            }
            MessageFate::Delivered { peer } => self.states[peer],
            MessageFate::Delayed { peer, extra_ticks } => {
                if Rec::ENABLED {
                    self.rec
                        .observe(Hist::DelayExtraFp, ticks_to_fp(extra_ticks));
                }
                self.delayed += 1;
                if extra_ticks > self.max_extra_ticks {
                    self.max_extra_ticks = extra_ticks;
                }
                self.states[peer]
            }
        }
    }
}

/// Serves a PUSH-mode update from the node's own inbox only.  Runs in
/// *probe* style: if the inbox runs dry the sampler answers with the
/// node's own color and flags starvation, and the engine discards the
/// whole update without consuming the inbox.
struct InboxSampler<'a> {
    inbox: &'a Inbox,
    cursor: usize,
    own: u32,
    starved: bool,
}

impl SampleSource for InboxSampler<'_> {
    fn draw<R: RngCore + ?Sized>(&mut self, _rng: &mut R) -> u32 {
        match self.inbox.peek(self.cursor) {
            Some(color) => {
                self.cursor += 1;
                color
            }
            None => {
                self.starved = true;
                self.own
            }
        }
    }
}

/// Serves a PUSH-PULL update: inbox first, then bidirectional exchanges.
/// Instant push-leg deliveries and delayed legs are buffered (the
/// engine applies them after the update returns — same timestamp, no
/// aliasing of the inbox table mid-update).
struct PushPullSampler<'a, 'm, T, Rec> {
    topology: &'a T,
    states: &'a [u32],
    node: usize,
    own: u32,
    now: f64,
    fstate: &'a mut FailureState<'m>,
    streams: &'a mut MessageStreams,
    rec: &'a mut Rec,
    /// Churn membership overlay; `None` runs the static-topology draw
    /// unchanged (bit-identical to earlier PRs).
    membership: Option<&'a Membership>,
    inbox: &'a Inbox,
    cursor: usize,
    instant_pushes: &'a mut Vec<(usize, u32)>,
    delayed_pushes: &'a mut Vec<(usize, u32, f64)>,
    max_extra_ticks: f64,
    // Per-activation tallies flushed once the update returns (see
    // [`GossipSampler`]); legs tally separately so the flush can split
    // pull/push counters exactly.  Per-leg delivered = `sent - *_lost`.
    sent: u64,
    pull_lost: u64,
    push_lost: u64,
    pull_delayed: u64,
    push_delayed: u64,
    inbox_served: u64,
    dead_hits: u64,
}

impl<T: TopologyCore, Rec: Recorder> SampleSource for PushPullSampler<'_, '_, T, Rec> {
    fn draw<R: RngCore + ?Sized>(&mut self, _rng: &mut R) -> u32 {
        if let Some(color) = self.inbox.peek(self.cursor) {
            self.cursor += 1;
            self.inbox_served += 1;
            return color;
        }
        let topology = self.topology;
        let node = self.node;
        let ExchangeFate { peer, pull, push } = match self.membership {
            None => self
                .streams
                .next_exchange_in(self.fstate, self.now, node, |mrng| {
                    topology.sample_neighbor_edge_core(node, mrng)
                }),
            Some(m) => {
                let mut hits = 0u64;
                let fate = self
                    .streams
                    .next_exchange_in(self.fstate, self.now, node, |mrng| {
                        m.sample_alive_neighbor_edge(topology, node, &mut hits, mrng)
                    });
                self.dead_hits += hits;
                if hits >= MAX_DEAD_REDRAWS {
                    // Redraw budget exhausted on dead peers: the whole
                    // exchange is void — both legs lost to the churn
                    // layer.
                    ExchangeFate {
                        peer: fate.peer,
                        pull: LegFate::Lost {
                            layer: DropLayer::DeadPeer,
                        },
                        push: LegFate::Lost {
                            layer: DropLayer::DeadPeer,
                        },
                    }
                } else {
                    fate
                }
            }
        };
        self.sent += 1;
        match push {
            LegFate::Lost { layer } => {
                self.rec.incr(lost_counter(layer));
                self.push_lost += 1;
            }
            LegFate::Instant => {
                self.instant_pushes.push((peer, self.own));
            }
            LegFate::Delayed { extra_ticks } => {
                if Rec::ENABLED {
                    self.rec
                        .observe(Hist::DelayExtraFp, ticks_to_fp(extra_ticks));
                }
                self.push_delayed += 1;
                self.delayed_pushes.push((peer, self.own, extra_ticks));
            }
        }
        match pull {
            LegFate::Lost { layer } => {
                self.rec.incr(lost_counter(layer));
                self.pull_lost += 1;
                self.own
            }
            LegFate::Instant => self.states[peer],
            LegFate::Delayed { extra_ticks } => {
                if Rec::ENABLED {
                    self.rec
                        .observe(Hist::DelayExtraFp, ticks_to_fp(extra_ticks));
                }
                self.pull_delayed += 1;
                if extra_ticks > self.max_extra_ticks {
                    self.max_extra_ticks = extra_ticks;
                }
                self.states[peer]
            }
        }
    }
}

impl<'t> GossipEngine<'t> {
    /// Engine on a topology with PULL exchanges, the sequential scheduler
    /// and an ideal network.
    #[must_use]
    pub fn new(topology: &'t dyn Topology) -> Self {
        Self {
            topology,
            mode: ExchangeMode::Pull,
            scheduler: Scheduler::Sequential,
            failure: FailureModel::default(),
            edge_table: None,
            ge_slots: None,
            inbox_policy: InboxPolicy::default(),
            rates: None,
            rated: None,
            rate_weighted_time: false,
            churn: None,
        }
    }

    /// Choose the exchange mode (who learns whose color per activation).
    #[must_use]
    pub fn with_mode(mut self, mode: ExchangeMode) -> Self {
        self.mode = mode;
        self
    }

    /// Choose the activation scheduler.
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: Scheduler) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Apply uniform i.i.d. network conditions (shorthand for
    /// [`Self::with_failure_model`] on [`FailureModel::uniform`]).
    #[must_use]
    pub fn with_network(mut self, network: NetworkConfig) -> Self {
        self.failure = FailureModel::uniform(network);
        self.edge_table = None;
        self.ge_slots = None;
        self
    }

    /// Apply a structured [`FailureModel`] (per-edge, time-varying,
    /// correlated failures — see [`crate::failure`]).  When the model
    /// has genuinely per-edge parameters and the topology is a
    /// [`CsrGraph`], the per-edge `(loss, delay)` table is precomputed
    /// here, once, over the dense directed edge slots and shared by
    /// every trial (the values are identical to the on-the-fly per-edge
    /// stream draws used for implicit topologies, so trajectories do
    /// not depend on the cache).
    #[must_use]
    pub fn with_failure_model(self, model: FailureModel) -> Self {
        let edge_table = Self::build_edge_table(&model, self.topology).map(Arc::from);
        let ge_slots = Self::ge_slot_count(&model, self.topology);
        self.with_prebuilt_failure_model(model, edge_table, ge_slots)
    }

    /// The dense per-directed-CSR-slot `(loss, delay)` table
    /// [`Self::with_failure_model`] would precompute for `model` on
    /// `topology` — `None` unless the model has genuinely per-edge
    /// parameters and the topology advertises dense edge slots
    /// ([`Topology::dense_edge_slots`]).  Implicit topologies (ring
    /// kernels, Chung–Lu) report no slots and degrade gracefully: every
    /// per-edge value is recomputed on the fly from the hashed per-edge
    /// streams, which produce the same numbers.  Exposed so a spec-keyed
    /// cache can build the table once and hand it to many engines
    /// through [`Self::with_prebuilt_failure_model`].
    #[must_use]
    pub fn build_edge_table(
        model: &FailureModel,
        topology: &dyn Topology,
    ) -> Option<Vec<(f64, f64)>> {
        if !model.needs_edge_params() {
            return None;
        }
        topology.dense_edge_slots()?;
        downcast_topology::<CsrGraph>(topology).map(|g| {
            let n = g.n();
            let mut table = Vec::with_capacity(g.directed_edge_count());
            for v in 0..n {
                for &w in g.neighbors(v) {
                    table.push(model.edge_params(n, v, w as usize));
                }
            }
            table
        })
    }

    /// The directed-slot count [`Self::with_failure_model`] would use for
    /// the flat Gilbert–Elliott chain table — `None` unless the model
    /// has a GE component and the topology advertises dense edge slots
    /// ([`Topology::dense_edge_slots`]); without slots the per-edge GE
    /// chains fall back to hash-keyed lazy state instead of panicking.
    #[must_use]
    pub fn ge_slot_count(model: &FailureModel, topology: &dyn Topology) -> Option<usize> {
        model.gilbert_elliott()?;
        topology.dense_edge_slots()
    }

    /// [`Self::with_failure_model`] with externally prebuilt per-edge
    /// state, so one [`Self::build_edge_table`] /
    /// [`Self::ge_slot_count`] result can be shared (`Arc`) by engines
    /// on many worker threads.  Trajectories are identical to the
    /// self-building path as long as the prebuilt state matches what
    /// those helpers return for this model and topology.
    ///
    /// # Panics
    /// Panics if an edge table is supplied whose length differs from the
    /// topology's directed CSR slot count.
    #[must_use]
    pub fn with_prebuilt_failure_model(
        mut self,
        model: FailureModel,
        edge_table: Option<Arc<[(f64, f64)]>>,
        ge_slots: Option<usize>,
    ) -> Self {
        if let Some(table) = &edge_table {
            let slots = self.topology.dense_edge_slots().unwrap_or(0);
            assert_eq!(
                table.len(),
                slots,
                "edge table length must match the topology's dense edge slot count"
            );
        }
        self.edge_table = edge_table;
        self.ge_slots = ge_slots;
        self.failure = model;
        self
    }

    /// Choose what a full PUSH/PUSH-PULL inbox does with the next
    /// incoming color (default: [`InboxPolicy::DropOldest`]).
    #[must_use]
    pub fn with_inbox_policy(mut self, policy: InboxPolicy) -> Self {
        self.inbox_policy = policy;
        self
    }

    /// Give every node its own activation rate (default: unit rates).
    /// Under the Poisson scheduler rates scale each node's clock; under
    /// the sequential scheduler they weight the per-step node choice
    /// (the Poisson jump chain), leaving step times at `i/n`.
    ///
    /// The rate-proportional alias sampler is built here, once, and
    /// shared by every trial.
    ///
    /// # Panics
    /// Panics unless `rates` holds one strictly positive finite entry
    /// per topology node (per-entry validation lives in
    /// [`RatedActivation::new`]).
    #[must_use]
    pub fn with_node_rates(self, rates: Vec<f64>) -> Self {
        assert_eq!(
            rates.len(),
            self.topology.n(),
            "need one activation rate per node"
        );
        let rated = Arc::new(RatedActivation::new(&rates));
        self.with_prebuilt_node_rates(Arc::from(rates), rated)
    }

    /// [`Self::with_node_rates`] with an externally prebuilt alias
    /// sampler, so one rate vector and its [`RatedActivation`] can be
    /// shared (`Arc`) by engines on many worker threads.  Trajectories
    /// are identical to the self-building path as long as `rated` was
    /// built over exactly `rates`.
    ///
    /// # Panics
    /// Panics unless `rates` holds one entry per topology node and
    /// `rated` covers the same number of nodes.
    #[must_use]
    pub fn with_prebuilt_node_rates(
        mut self,
        rates: Arc<[f64]>,
        rated: Arc<RatedActivation>,
    ) -> Self {
        assert_eq!(
            rates.len(),
            self.topology.n(),
            "need one activation rate per node"
        );
        assert_eq!(
            rated.len(),
            rates.len(),
            "alias sampler must cover the same nodes as the rate vector"
        );
        self.rated = Some(rated);
        self.rates = Some(rates);
        self
    }

    /// Make the population dynamic: Poisson crash / graceful-leave /
    /// rejoin / join processes mutate a membership overlay on the base
    /// topology while the trial runs (see [`crate::churn`]).  All churn
    /// randomness lives on its own per-trial stream, so a model whose
    /// rates are all zero is bit-identical to no churn at all.
    ///
    /// Not composable with [`Self::with_node_rates`] (heterogeneous
    /// activation rates assume a fixed population); the run entry point
    /// panics on the combination.
    ///
    /// Requires a topology with indexed neighbor access
    /// ([`Topology::supports_indexed_neighbors`]): the membership
    /// overlay rejects dead peers by drawing a uniform neighbor index
    /// and redrawing, which cannot reproduce the non-uniform neighbor
    /// law of implicit topologies.  Surfaces that accept user specs
    /// (CLI, server) check the capability first and return a structured
    /// error; this builder is the last line of defense.
    ///
    /// # Panics
    /// Panics if the model fails [`ChurnModel::validate`], or if the
    /// topology does not support indexed neighbor access.
    #[must_use]
    pub fn with_churn_model(mut self, model: ChurnModel) -> Self {
        if let Err(e) = model.validate() {
            panic!("invalid churn model: {e}");
        }
        assert!(
            self.topology.supports_indexed_neighbors(),
            "churn is not supported on topology '{}': the membership overlay needs \
             indexed neighbor access, which implicit topologies cannot provide",
            self.topology.name()
        );
        self.churn = Some(model);
        self
    }

    /// The configured churn model, if any.
    #[must_use]
    pub fn churn_model(&self) -> Option<&ChurnModel> {
        self.churn.as_ref()
    }

    /// The configured exchange mode.
    #[must_use]
    pub fn mode(&self) -> ExchangeMode {
        self.mode
    }

    /// The configured scheduler.
    #[must_use]
    pub fn scheduler(&self) -> Scheduler {
        self.scheduler
    }

    /// The configured uniform baseline network conditions.
    #[must_use]
    pub fn network(&self) -> NetworkConfig {
        self.failure.base()
    }

    /// The configured failure model.
    #[must_use]
    pub fn failure_model(&self) -> &FailureModel {
        &self.failure
    }

    /// The configured inbox overflow policy.
    #[must_use]
    pub fn inbox_policy(&self) -> InboxPolicy {
        self.inbox_policy
    }

    /// The configured per-node activation rates, if heterogeneous.
    #[must_use]
    pub fn node_rates(&self) -> Option<&[f64]> {
        self.rates.as_deref()
    }

    /// Stamp *sequential* activations at rate-weighted parallel time
    /// `i / Σ r_v` (expectation-matched to the Poisson clock) instead of
    /// the uniform `i / n`.  Only observable with heterogeneous rates
    /// under the sequential scheduler; see the scheduler module docs.
    #[must_use]
    pub fn with_rate_weighted_time(mut self, on: bool) -> Self {
        self.rate_weighted_time = on;
        self
    }

    /// Whether sequential activations use rate-weighted timestamps.
    #[must_use]
    pub fn rate_weighted_time(&self) -> bool {
        self.rate_weighted_time
    }

    /// Run one trial; see [`Self::run_detailed`].
    pub fn run(
        &self,
        dynamics: &dyn Dynamics,
        initial: &Configuration,
        placement: Placement,
        opts: &RunOptions,
        seed: u64,
    ) -> TrialResult {
        self.run_detailed(dynamics, initial, placement, opts, seed)
            .0
    }

    /// Run one trial, also returning gossip-specific statistics.
    ///
    /// `opts.max_rounds` caps parallel time in ticks (1 tick = `n`
    /// activations); `opts.max_events` additionally caps processed events
    /// (activations plus fired network events).  Exhausting either
    /// reports [`StopReason::MaxRounds`].
    ///
    /// # Panics
    /// Panics if the configuration population differs from the topology
    /// size, the initial plurality is tied, or (PUSH mode) the dynamics
    /// draws more than [`crate::INBOX_CAP`] samples per update — such a
    /// rule can never complete a push-served update and would otherwise
    /// livelock until `max_rounds`.
    pub fn run_detailed(
        &self,
        dynamics: &dyn Dynamics,
        initial: &Configuration,
        placement: Placement,
        opts: &RunOptions,
        seed: u64,
    ) -> (TrialResult, GossipStats) {
        self.run_recorded(dynamics, initial, placement, opts, seed, &mut NoopRecorder)
    }

    /// Run one trial with a telemetry [`Recorder`] threaded through the
    /// monomorphized core.  Recording consumes no randomness and never
    /// branches the simulation, so for any recorder the trajectory is
    /// bit-identical to [`Self::run_detailed`] (which is exactly this
    /// call with [`NoopRecorder`]).  Counters accumulate — reuse one
    /// `MetricsRecorder` across trials to aggregate.
    pub fn run_recorded<Rec: Recorder>(
        &self,
        dynamics: &dyn Dynamics,
        initial: &Configuration,
        placement: Placement,
        opts: &RunOptions,
        seed: u64,
        rec: &mut Rec,
    ) -> (TrialResult, GossipStats) {
        // Devirtualize (same scheme as `AgentEngine::run`): resolve the
        // topology, then the dynamics, to concrete types and run a mode
        // step monomorphized over both; unknown types take the dyn
        // fallback wrappers with identical draw sequences.
        if let Some(t) = downcast_topology::<Clique>(self.topology) {
            self.run_with_topology(t, dynamics, initial, placement, opts, seed, rec)
        } else if let Some(t) = downcast_topology::<CsrGraph>(self.topology) {
            self.run_with_topology(t, dynamics, initial, placement, opts, seed, rec)
        } else if let Some(t) = downcast_topology::<ImplicitRing>(self.topology) {
            self.run_with_topology(t, dynamics, initial, placement, opts, seed, rec)
        } else if let Some(t) = downcast_topology::<ChungLu>(self.topology) {
            self.run_with_topology(t, dynamics, initial, placement, opts, seed, rec)
        } else {
            self.run_with_topology(
                &DynTopology(self.topology),
                dynamics,
                initial,
                placement,
                opts,
                seed,
                rec,
            )
        }
    }

    /// Second dispatch level: resolve the dynamics to a concrete type.
    #[allow(clippy::too_many_arguments)]
    fn run_with_topology<T: TopologyCore, Rec: Recorder>(
        &self,
        topology: &T,
        dynamics: &dyn Dynamics,
        initial: &Configuration,
        placement: Placement,
        opts: &RunOptions,
        seed: u64,
        rec: &mut Rec,
    ) -> (TrialResult, GossipStats) {
        if let Some(d) = downcast_dynamics::<ThreeMajority>(dynamics) {
            self.run_core(topology, d, initial, placement, opts, seed, rec)
        } else if let Some(d) = downcast_dynamics::<HPlurality>(dynamics) {
            self.run_core(topology, d, initial, placement, opts, seed, rec)
        } else if let Some(d) = downcast_dynamics::<UndecidedState>(dynamics) {
            self.run_core(topology, d, initial, placement, opts, seed, rec)
        } else if let Some(d) = downcast_dynamics::<Voter>(dynamics) {
            self.run_core(topology, d, initial, placement, opts, seed, rec)
        } else {
            self.run_core(
                topology,
                &DynDynamics(dynamics),
                initial,
                placement,
                opts,
                seed,
                rec,
            )
        }
    }

    /// The monomorphized event loop.
    #[allow(clippy::too_many_arguments, clippy::too_many_lines)]
    fn run_core<T: TopologyCore, D: DynamicsCore, Rec: Recorder>(
        &self,
        topology: &T,
        dynamics: &D,
        initial: &Configuration,
        placement: Placement,
        opts: &RunOptions,
        seed: u64,
        rec: &mut Rec,
    ) -> (TrialResult, GossipStats) {
        rec.phase_start(Phase::Setup);
        let n = topology.n();
        assert_eq!(
            initial.n() as usize,
            n,
            "configuration population must match topology size"
        );
        assert!(
            self.churn.is_none() || self.rated.is_none(),
            "churn is not supported with heterogeneous node rates \
             (the alias sampler assumes a fixed population)"
        );
        let initial_plurality = unique_initial_plurality(initial);
        let k_colors = initial.k();
        let lifted = dynamics.lift(initial);
        let state_count = lifted.k();
        if let Some(model) = &self.churn {
            if model.uses_init() && model.init == InitPolicy::Undecided {
                assert!(
                    state_count > k_colors,
                    "churn init=undecided requires a dynamics with an undecided state \
                     (dynamics '{}' has none)",
                    dynamics.name()
                );
            }
        }
        // Spares occupy node ids `n..total`, dead until they join; every
        // per-node structure (states, clock, queue, inboxes, failure
        // chains) is sized over `total` so a join never reallocates.
        let spare = self.churn.as_ref().map_or(0, |m| m.spare);
        let total = n + spare;

        let mut states = layout_initial_states(&lifted, placement, seed);
        states.resize(total, 0);
        let mut counts: Vec<u64> = lifted.counts().to_vec();

        let mut trace = match opts.trace {
            TraceLevel::Off => None,
            _ => Some(Trace::new()),
        };
        let full = opts.trace == TraceLevel::Full;
        if let Some(t) = trace.as_mut() {
            t.record(0, &counts, k_colors, full);
        }

        let mut stats = GossipStats {
            final_alive: n as u64,
            ..GossipStats::default()
        };

        if let Some(winner) = evaluate_stop(opts.stop, dynamics, &counts, initial_plurality) {
            let result = TrialResult {
                rounds: 0,
                reason: StopReason::Stopped,
                winner: Some(winner),
                initial_plurality,
                success: winner == initial_plurality,
                trace,
            };
            rec.phase_end(Phase::Setup);
            return (result, stats);
        }

        let mut sched_rng = stream_rng(seed, STREAM_SCHEDULER);
        let mut update_rng = stream_rng(seed, STREAM_UPDATE);
        let mut streams = MessageStreams::new(derive_stream(seed, STREAM_MESSAGES));
        let mut fstate = FailureState::new(
            &self.failure,
            total,
            self.edge_table.as_deref(),
            derive_stream(seed, STREAM_FAILURE),
        );
        if let Some(slots) = self.ge_slots {
            fstate = fstate.with_dense_ge_slots(slots);
        }
        let mut inbox_rng = stream_rng(seed, STREAM_INBOX);
        let mut scratch = NodeScratch::with_states(state_count);
        let mut queue = EventQueue::new(total);
        let mut clock = match &self.rated {
            Some(rated) => ActivationClock::with_rated(self.scheduler, total, rated),
            None => ActivationClock::new(self.scheduler, total, None),
        }
        .with_rate_weighted_time(self.rate_weighted_time);
        let mut inboxes: Vec<Inbox> = match self.mode {
            ExchangeMode::Pull => Vec::new(),
            ExchangeMode::Push | ExchangeMode::PushPull => {
                vec![Inbox::with_policy(self.inbox_policy); total]
            }
        };
        let mut instant_pushes: Vec<(usize, u32)> = Vec::new();
        let mut delayed_pushes: Vec<(usize, u32, f64)> = Vec::new();
        let mut membership = self.churn.as_ref().map(|_| Membership::new(n, spare));
        let mut churn_state = self.churn.as_ref().map(|model| {
            let mut cs = ChurnState::new(model.clone(), stream_rng(seed, STREAM_CHURN));
            cs.schedule(
                0.0,
                membership.as_ref().expect("membership built with churn"),
            );
            cs
        });

        let max_events = opts.max_events.unwrap_or(u64::MAX);
        let mut events: u64 = 0;
        let mut ticks: u64 = 0;
        // Clock draws, dead-node no-ops included: `total` draws = one
        // tick of parallel time (equal to `stats.activations` without
        // churn).
        let mut draws: u64 = 0;
        // Delayed pushes scheduled but not yet arrived (telemetry only).
        let mut pushes_in_flight: u64 = 0;
        let mut next_act = clock.next(&mut sched_rng);
        rec.phase_end(Phase::Setup);
        rec.phase_start(Phase::Run);

        loop {
            // Event-source merge.  Queued network events fire before an
            // activation sharing their timestamp (see the module docs on
            // tie-breaking); churn events fire before both — a churn
            // event is a population change, and anything resolving at
            // the same instant already sees the new membership.
            let churn_next = churn_state
                .as_ref()
                .map_or(f64::INFINITY, ChurnState::next_time);
            let queue_t = queue.peek_time();
            let fire_churn = churn_next <= next_act.0 && queue_t.is_none_or(|t| churn_next <= t);
            let fire_queue = !fire_churn && matches!(queue_t, Some(t) if t <= next_act.0);
            if fire_churn {
                let cs = churn_state.as_mut().expect("churn fired without state");
                let m = membership.as_mut().expect("churn fired without membership");
                let model = self.churn.as_ref().expect("churn fired without model");
                let now = churn_next;
                events += 1;
                stats.final_time = now;
                match cs.pick(m) {
                    Some(ev @ (ChurnEvent::Crash | ChurnEvent::Leave)) => {
                        let v = if ev == ChurnEvent::Crash {
                            stats.churn_crashes += 1;
                            rec.incr(Counter::ChurnCrashes);
                            m.crash_random(cs.rng_mut())
                        } else {
                            stats.churn_leaves += 1;
                            rec.incr(Counter::ChurnLeaves);
                            m.leave_random(cs.rng_mut())
                        };
                        // The node's color mass leaves the tally; its
                        // stale state stays in `states[v]` for a
                        // possible `state=stale` rejoin.
                        counts[states[v] as usize] -= 1;
                        if queue.cancel(v as u32) {
                            stats.orphaned_events += 1;
                            rec.incr(Counter::OrphanedCommits);
                        }
                        if let Some(inbox) = inboxes.get_mut(v) {
                            let cleared = inbox.clear();
                            if cleared > 0 {
                                rec.add(Counter::InboxClearedChurn, cleared as u64);
                            }
                        }
                    }
                    Some(ChurnEvent::Rejoin) => {
                        // Fresh color drawn before the member re-enters
                        // the alive set, so copy-random-alive cannot
                        // copy the rejoiner's own stale color.
                        let fresh = if model.rejoin_fresh {
                            Some(draw_init_color(
                                model.init,
                                k_colors,
                                m,
                                &states,
                                cs.rng_mut(),
                            ))
                        } else {
                            None
                        };
                        let v = m.rejoin_random(cs.rng_mut());
                        if let Some(color) = fresh {
                            states[v] = color;
                        }
                        counts[states[v] as usize] += 1;
                        stats.churn_rejoins += 1;
                        rec.incr(Counter::ChurnRejoins);
                    }
                    Some(ChurnEvent::Join) => {
                        // Color drawn before the spare enters the alive
                        // set, so copy-random-alive cannot copy the
                        // arrival itself.
                        let color = draw_init_color(model.init, k_colors, m, &states, cs.rng_mut());
                        let v = m.join_spare(model.attach, cs.rng_mut());
                        states[v] = color;
                        counts[color as usize] += 1;
                        stats.churn_joins += 1;
                        rec.incr(Counter::ChurnJoins);
                    }
                    None => {}
                }
                // A departure can remove the last dissenter (and an
                // arrival can complete a fraction-based stop), so the
                // stop rule is evaluated after every membership change —
                // but never over an empty population.
                if m.alive_count() > 0 {
                    if let Some(winner) =
                        evaluate_stop(opts.stop, dynamics, &counts, initial_plurality)
                    {
                        stats.messages = streams.issued();
                        stats.final_alive = m.alive_count() as u64;
                        rec.phase_end(Phase::Run);
                        record_stop(
                            rec,
                            &queue,
                            &inboxes,
                            pushes_in_flight,
                            completed_ticks(draws, total),
                            stats.final_time,
                        );
                        rec.phase_start(Phase::Finalize);
                        let out = finish(
                            winner,
                            initial_plurality,
                            draws,
                            total,
                            trace,
                            &counts,
                            k_colors,
                            full,
                            stats,
                        );
                        rec.phase_end(Phase::Finalize);
                        return out;
                    }
                }
                cs.schedule(now, m);
            } else if fire_queue {
                let ev = queue.pop().expect("peeked event vanished");
                events += 1;
                stats.final_time = ev.time;
                match ev.kind {
                    EventKind::Commit { state } => {
                        rec.incr(Counter::CommitsApplied);
                        if apply(&mut states, &mut counts, ev.node as usize, state) {
                            if let Some(winner) =
                                evaluate_stop(opts.stop, dynamics, &counts, initial_plurality)
                            {
                                stats.messages = streams.issued();
                                stats.final_alive =
                                    membership.as_ref().map_or(n, Membership::alive_count) as u64;
                                rec.phase_end(Phase::Run);
                                record_stop(
                                    rec,
                                    &queue,
                                    &inboxes,
                                    pushes_in_flight,
                                    completed_ticks(draws, total),
                                    stats.final_time,
                                );
                                rec.phase_start(Phase::Finalize);
                                let out = finish(
                                    winner,
                                    initial_plurality,
                                    draws,
                                    total,
                                    trace,
                                    &counts,
                                    k_colors,
                                    full,
                                    stats,
                                );
                                rec.phase_end(Phase::Finalize);
                                return out;
                            }
                        }
                    }
                    EventKind::PushArrival { color } => {
                        if Rec::ENABLED {
                            pushes_in_flight -= 1;
                        }
                        if membership
                            .as_ref()
                            .is_some_and(|m| !m.is_alive(ev.node as usize))
                        {
                            // The target departed while the push was in
                            // flight: orphaned, never delivered.
                            stats.orphaned_events += 1;
                            rec.incr(Counter::OrphanedPushes);
                        } else {
                            stats.pushes_delivered += 1;
                            deliver_to_inbox(
                                &mut inboxes[ev.node as usize],
                                color,
                                ev.time,
                                &mut inbox_rng,
                                rec,
                                &mut stats,
                            );
                        }
                    }
                }
            } else {
                let (now, node) = next_act;
                let v = node as usize;
                events += 1;
                stats.final_time = now;
                // Clock draws — not applied activations — advance
                // parallel time: a dead node keeps its slot in the
                // superposed clock (Poisson thinning), so time flows at
                // the same rate however much of the population is down.
                draws += 1;
                if membership.as_ref().is_some_and(|m| !m.is_alive(v)) {
                    // A dead node's activation is a no-op.
                    rec.incr(Counter::DeadActivationsSkipped);
                } else {
                    stats.activations += 1;
                    rec.incr(Counter::Activations);
                    if Rec::ENABLED {
                        rec.observe(Hist::QueueDepth, queue.len() as u64);
                    }
                    if queue.cancel(node) {
                        stats.superseded_commits += 1;
                        rec.incr(Counter::SupersededCommits);
                    }
                    let own = states[v];

                    // Run the mode-specific exchange + update; `outcome` is
                    // the new state (None = starved push update) plus the
                    // slowest pull-leg delay gating the recolor commit.
                    let (outcome, max_extra) = match self.mode {
                        ExchangeMode::Pull => {
                            let mut sampler = GossipSampler {
                                topology,
                                states: &states,
                                node: v,
                                own,
                                now,
                                fstate: &mut fstate,
                                streams: &mut streams,
                                rec: &mut *rec,
                                membership: membership.as_ref(),
                                max_extra_ticks: 0.0,
                                sent: 0,
                                lost: 0,
                                delayed: 0,
                                dead_hits: 0,
                            };
                            let new = dynamics.node_update_core(
                                own,
                                &mut sampler,
                                &mut scratch,
                                &mut update_rng,
                            );
                            let (sent, lost, delayed) =
                                (sampler.sent, sampler.lost, sampler.delayed);
                            let max_extra = sampler.max_extra_ticks;
                            let dead_hits = sampler.dead_hits;
                            stats.lost_messages += lost;
                            stats.delayed_messages += delayed;
                            if dead_hits > 0 {
                                stats.dead_peer_samples += dead_hits;
                                rec.add(Counter::DeadPeerSamples, dead_hits);
                            }
                            if Rec::ENABLED {
                                rec.add(Counter::PullSent, sent);
                                rec.add(Counter::PullDelivered, sent - lost);
                                rec.add(Counter::PullLost, lost);
                                rec.add(Counter::PullDelayed, delayed);
                            }
                            (Some(new), max_extra)
                        }
                        ExchangeMode::Push => {
                            // The activation's one call: push own color out.
                            let mut dead_hits = 0u64;
                            let fate = next_push_fate(
                                topology,
                                membership.as_ref(),
                                &mut fstate,
                                now,
                                v,
                                &mut streams,
                                &mut dead_hits,
                            );
                            if dead_hits > 0 {
                                stats.dead_peer_samples += dead_hits;
                                rec.add(Counter::DeadPeerSamples, dead_hits);
                            }
                            rec.incr(Counter::PushSent);
                            match fate {
                                MessageFate::Lost { layer } => {
                                    rec.incr(Counter::PushLost);
                                    rec.incr(lost_counter(layer));
                                    stats.lost_messages += 1;
                                }
                                MessageFate::Delivered { peer } => {
                                    rec.incr(Counter::PushDelivered);
                                    stats.pushes_delivered += 1;
                                    deliver_to_inbox(
                                        &mut inboxes[peer],
                                        own,
                                        now,
                                        &mut inbox_rng,
                                        rec,
                                        &mut stats,
                                    );
                                }
                                MessageFate::Delayed { peer, extra_ticks } => {
                                    rec.incr(Counter::PushDelivered);
                                    rec.incr(Counter::PushDelayed);
                                    if Rec::ENABLED {
                                        rec.observe(Hist::DelayExtraFp, ticks_to_fp(extra_ticks));
                                        pushes_in_flight += 1;
                                    }
                                    stats.delayed_messages += 1;
                                    queue.push(
                                        now + extra_ticks,
                                        peer as u32,
                                        EventKind::PushArrival { color: own },
                                    );
                                }
                            }
                            // Expire overstayed colors before the update can
                            // serve them (no-op under non-TTL policies).
                            let expired = inboxes[v].purge_expired(now);
                            if expired > 0 {
                                rec.add(Counter::InboxExpiredTtl, expired as u64);
                            }
                            // Then try to update from the inbox.
                            let mut sampler = InboxSampler {
                                inbox: &inboxes[v],
                                cursor: 0,
                                own,
                                starved: false,
                            };
                            let new = dynamics.node_update_core(
                                own,
                                &mut sampler,
                                &mut scratch,
                                &mut update_rng,
                            );
                            let (starved, consumed) = (sampler.starved, sampler.cursor);
                            if starved {
                                // A starved update with a *full* inbox can
                                // never be satisfied: the rule draws more
                                // samples than the inbox can ever hold, and
                                // the trial would silently livelock until
                                // max_rounds.  Fail loudly instead.
                                assert!(
                                    inboxes[v].len() < crate::modes::INBOX_CAP,
                                    "dynamics '{}' draws more than INBOX_CAP = {} samples per \
                                 update; PUSH mode cannot serve it (use PULL or PUSH-PULL)",
                                    dynamics.name(),
                                    crate::modes::INBOX_CAP
                                );
                                stats.starved_updates += 1;
                                rec.incr(Counter::StarvedActivations);
                                (None, 0.0)
                            } else {
                                stats.inbox_served += consumed as u64;
                                rec.add(Counter::InboxServed, consumed as u64);
                                if Rec::ENABLED {
                                    for i in 0..consumed {
                                        if let Some((_, arrival)) = inboxes[v].peek_entry(i) {
                                            rec.observe(
                                                Hist::InboxStalenessFp,
                                                ticks_to_fp(now - arrival),
                                            );
                                        }
                                    }
                                }
                                inboxes[v].consume(consumed);
                                (Some(new), 0.0)
                            }
                        }
                        ExchangeMode::PushPull => {
                            instant_pushes.clear();
                            delayed_pushes.clear();
                            // Expire overstayed colors before the update can
                            // serve them (no-op under non-TTL policies).
                            let expired = inboxes[v].purge_expired(now);
                            if expired > 0 {
                                rec.add(Counter::InboxExpiredTtl, expired as u64);
                            }
                            let mut sampler = PushPullSampler {
                                topology,
                                states: &states,
                                node: v,
                                own,
                                now,
                                fstate: &mut fstate,
                                streams: &mut streams,
                                rec: &mut *rec,
                                membership: membership.as_ref(),
                                inbox: &inboxes[v],
                                cursor: 0,
                                instant_pushes: &mut instant_pushes,
                                delayed_pushes: &mut delayed_pushes,
                                max_extra_ticks: 0.0,
                                sent: 0,
                                pull_lost: 0,
                                push_lost: 0,
                                pull_delayed: 0,
                                push_delayed: 0,
                                inbox_served: 0,
                                dead_hits: 0,
                            };
                            let new = dynamics.node_update_core(
                                own,
                                &mut sampler,
                                &mut scratch,
                                &mut update_rng,
                            );
                            let max_extra = sampler.max_extra_ticks;
                            let consumed = sampler.cursor;
                            let served = sampler.inbox_served;
                            let sent = sampler.sent;
                            let (pull_lost, push_lost) = (sampler.pull_lost, sampler.push_lost);
                            let (pull_delayed, push_delayed) =
                                (sampler.pull_delayed, sampler.push_delayed);
                            let dead_hits = sampler.dead_hits;
                            stats.lost_messages += pull_lost + push_lost;
                            stats.delayed_messages += pull_delayed + push_delayed;
                            if dead_hits > 0 {
                                stats.dead_peer_samples += dead_hits;
                                rec.add(Counter::DeadPeerSamples, dead_hits);
                            }
                            if Rec::ENABLED {
                                rec.add(Counter::PullSent, sent);
                                rec.add(Counter::PushSent, sent);
                                rec.add(Counter::PullDelivered, sent - pull_lost);
                                rec.add(Counter::PushDelivered, sent - push_lost);
                                rec.add(Counter::PullLost, pull_lost);
                                rec.add(Counter::PushLost, push_lost);
                                rec.add(Counter::PullDelayed, pull_delayed);
                                rec.add(Counter::PushDelayed, push_delayed);
                            }
                            stats.inbox_served += served;
                            rec.add(Counter::InboxServed, served);
                            if Rec::ENABLED {
                                for i in 0..consumed {
                                    if let Some((_, arrival)) = inboxes[v].peek_entry(i) {
                                        rec.observe(
                                            Hist::InboxStalenessFp,
                                            ticks_to_fp(now - arrival),
                                        );
                                    }
                                }
                            }
                            inboxes[v].consume(consumed);
                            for &(peer, color) in instant_pushes.iter() {
                                stats.pushes_delivered += 1;
                                deliver_to_inbox(
                                    &mut inboxes[peer],
                                    color,
                                    now,
                                    &mut inbox_rng,
                                    rec,
                                    &mut stats,
                                );
                            }
                            for &(peer, color, extra) in delayed_pushes.iter() {
                                if Rec::ENABLED {
                                    pushes_in_flight += 1;
                                }
                                queue.push(
                                    now + extra,
                                    peer as u32,
                                    EventKind::PushArrival { color },
                                );
                            }
                            (Some(new), max_extra)
                        }
                    };

                    if let Some(new) = outcome {
                        if max_extra == 0.0 {
                            rec.incr(Counter::CommitsApplied);
                            if apply(&mut states, &mut counts, v, new) {
                                if let Some(winner) =
                                    evaluate_stop(opts.stop, dynamics, &counts, initial_plurality)
                                {
                                    stats.messages = streams.issued();
                                    stats.final_alive =
                                        membership.as_ref().map_or(n, Membership::alive_count)
                                            as u64;
                                    rec.phase_end(Phase::Run);
                                    record_stop(
                                        rec,
                                        &queue,
                                        &inboxes,
                                        pushes_in_flight,
                                        completed_ticks(draws, total),
                                        stats.final_time,
                                    );
                                    rec.phase_start(Phase::Finalize);
                                    let out = finish(
                                        winner,
                                        initial_plurality,
                                        draws,
                                        total,
                                        trace,
                                        &counts,
                                        k_colors,
                                        full,
                                        stats,
                                    );
                                    rec.phase_end(Phase::Finalize);
                                    return out;
                                }
                            }
                        } else {
                            queue.push(now + max_extra, node, EventKind::Commit { state: new });
                        }
                    }
                }

                next_act = clock.next(&mut sched_rng);

                // Tick boundary: `total` clock draws (dead-node no-ops
                // included) = one unit of parallel time.
                if draws.is_multiple_of(total as u64) {
                    ticks += 1;
                    if let Some(t) = trace.as_mut() {
                        t.record(ticks, &counts, k_colors, full);
                    }
                    if ticks >= opts.max_rounds {
                        break;
                    }
                }
            }
            if events >= max_events {
                break;
            }
        }

        stats.messages = streams.issued();
        stats.final_alive = membership.as_ref().map_or(n, Membership::alive_count) as u64;
        rec.phase_end(Phase::Run);
        record_stop(
            rec,
            &queue,
            &inboxes,
            pushes_in_flight,
            completed_ticks(draws, total),
            stats.final_time,
        );
        let result = TrialResult {
            rounds: completed_ticks(draws, total),
            reason: StopReason::MaxRounds,
            winner: None,
            initial_plurality,
            success: false,
            trace,
        };
        (result, stats)
    }
}

/// The per-layer loss-attribution counter for a dropped message or leg.
fn lost_counter(layer: DropLayer) -> Counter {
    match layer {
        DropLayer::Baseline => Counter::LostBaseline,
        DropLayer::PerEdge => Counter::LostPerEdge,
        DropLayer::Window => Counter::LostWindow,
        DropLayer::GeChain => Counter::LostGeChain,
        DropLayer::Outage => Counter::LostOutage,
        DropLayer::Partition => Counter::LostPartition,
        DropLayer::DeadPeer => Counter::LostDeadPeer,
    }
}

/// Offer a pushed color to `inbox` at time `now`, with full admission
/// accounting.  `rng` is the dedicated inbox stream — consumed only by
/// the random-replace policy, so the default policies stay bit-identical
/// to earlier PRs.
fn deliver_to_inbox<Rec: Recorder>(
    inbox: &mut Inbox,
    color: u32,
    now: f64,
    rng: &mut Xoshiro256PlusPlus,
    rec: &mut Rec,
    stats: &mut GossipStats,
) {
    // Expired colors leave before the offer so they neither inflate the
    // occupancy observation nor absorb the eviction.
    let expired = inbox.purge_expired(now);
    if expired > 0 {
        rec.add(Counter::InboxExpiredTtl, expired as u64);
    }
    rec.incr(Counter::InboxOffered);
    if Rec::ENABLED {
        rec.observe(Hist::InboxOccupancy, inbox.len() as u64);
    }
    let admit = inbox.receive(color, now, rng);
    match admit {
        InboxAdmit::Accepted => rec.incr(Counter::InboxAccepted),
        InboxAdmit::EvictedOldest => {
            rec.incr(Counter::InboxAccepted);
            rec.incr(Counter::InboxEvictedOldest);
        }
        InboxAdmit::RejectedNewest => rec.incr(Counter::InboxEvictedNewest),
        InboxAdmit::EvictedRandom => {
            rec.incr(Counter::InboxAccepted);
            rec.incr(Counter::InboxEvictedRandom);
        }
    }
    if admit.dropped() {
        stats.inbox_dropped += 1;
    }
}

/// Stop-time telemetry: lifetime queue accounting, unresolved residuals
/// (live events, buffered colors, in-flight pushes) and the final clock.
fn record_stop<Rec: Recorder>(
    rec: &mut Rec,
    queue: &EventQueue,
    inboxes: &[Inbox],
    pushes_in_flight: u64,
    rounds: u64,
    final_time: f64,
) {
    if !Rec::ENABLED {
        return;
    }
    rec.add(Counter::QueuePushed, queue.pushed());
    rec.add(Counter::QueueSkippedStale, queue.skipped_stale());
    rec.gauge_set(Gauge::QueueLenAtStop, queue.len() as u64);
    rec.gauge_set(
        Gauge::InboxResidentAtStop,
        inboxes.iter().map(|b| b.len() as u64).sum(),
    );
    rec.gauge_set(Gauge::PushInFlightAtStop, pushes_in_flight);
    rec.gauge_set(Gauge::CompletedTicks, rounds);
    rec.gauge_set(Gauge::FinalTimeFp, ticks_to_fp(final_time));
}

/// Draw the fate of a PUSH-mode send from node `v` (loss, peer,
/// delay — the same per-message stream layout as a PULL request).
/// With a churn `membership`, the peer draw rejects dead peers within
/// the redraw budget; an exhausted budget loses the send to the
/// `dead_peer` layer.
fn next_push_fate<T: TopologyCore>(
    topology: &T,
    membership: Option<&Membership>,
    fstate: &mut FailureState<'_>,
    now: f64,
    v: usize,
    streams: &mut MessageStreams,
    dead_hits: &mut u64,
) -> MessageFate {
    match membership {
        None => streams.next_fate_in(fstate, now, v, |mrng| {
            topology.sample_neighbor_edge_core(v, mrng)
        }),
        Some(m) => {
            let mut hits = 0u64;
            let fate = streams.next_fate_in(fstate, now, v, |mrng| {
                m.sample_alive_neighbor_edge(topology, v, &mut hits, mrng)
            });
            *dead_hits += hits;
            if hits >= MAX_DEAD_REDRAWS {
                MessageFate::Lost {
                    layer: DropLayer::DeadPeer,
                }
            } else {
                fate
            }
        }
    }
}

/// Initial color for an arriving node (a fresh join, or a rejoin with
/// `state=fresh`), drawn from the churn stream.  Copy-random-alive falls
/// back to a fresh uniform draw when nobody is alive to copy from.
fn draw_init_color(
    init: InitPolicy,
    k_colors: usize,
    membership: &Membership,
    states: &[u32],
    rng: &mut Xoshiro256PlusPlus,
) -> u32 {
    match init {
        InitPolicy::FreshUniform => rng.gen_range(0..k_colors as u32),
        InitPolicy::CopyRandomAlive => {
            if membership.alive_count() == 0 {
                rng.gen_range(0..k_colors as u32)
            } else {
                states[membership.random_alive(rng)]
            }
        }
        // Lifted undecided state = index `k_colors` (checked against the
        // dynamics at setup).
        InitPolicy::Undecided => k_colors as u32,
    }
}

/// Parallel time consumed by `draws` activation-clock draws over a
/// population of `total` clock slots, in whole ticks (a partial tick
/// counts as one).  Without churn `draws` = applied activations and
/// `total` = `n`.
fn completed_ticks(draws: u64, total: usize) -> u64 {
    draws.div_ceil(total as u64)
}

/// Recolor node `v`; returns whether the configuration changed.
#[inline]
fn apply(states: &mut [u32], counts: &mut [u64], v: usize, new: u32) -> bool {
    let old = states[v];
    if old == new {
        return false;
    }
    counts[old as usize] -= 1;
    counts[new as usize] += 1;
    states[v] = new;
    true
}

#[allow(clippy::too_many_arguments)]
fn finish(
    winner: usize,
    initial_plurality: usize,
    draws: u64,
    total: usize,
    mut trace: Option<Trace>,
    counts: &[u64],
    k_colors: usize,
    full: bool,
    stats: GossipStats,
) -> (TrialResult, GossipStats) {
    let ticks = completed_ticks(draws, total);
    if let Some(t) = trace.as_mut() {
        // The trace must end with the stopping configuration at index
        // `ticks` (the same contract as the synchronous engines).  If a
        // record for this tick already exists it is stale — it was taken
        // at the tick boundary, before a delayed commit changed the
        // counts — so replace it.
        if t.rounds.last().map(|s| s.round) == Some(ticks) {
            t.rounds.pop();
            if full {
                t.full_states.pop();
            }
        }
        t.record(ticks, counts, k_colors, full);
    }
    let result = TrialResult {
        rounds: ticks,
        reason: StopReason::Stopped,
        winner: Some(winner),
        initial_plurality,
        success: winner == initial_plurality,
        trace,
    };
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use plurality_core::{builders, ThreeMajority, UndecidedState, Voter};
    use plurality_engine::StopRule;
    use plurality_topology::{ring, Clique};

    fn clique_engine(n: usize) -> (Clique, Configuration) {
        (
            Clique::new(n),
            builders::biased(n as u64, 4, (n / 3) as u64),
        )
    }

    const ALL_MODES: [ExchangeMode; 3] = [
        ExchangeMode::Pull,
        ExchangeMode::Push,
        ExchangeMode::PushPull,
    ];

    #[test]
    fn converges_on_clique_with_bias() {
        let (clique, cfg) = clique_engine(2_000);
        let engine = GossipEngine::new(&clique);
        let d = ThreeMajority::new();
        let mut wins = 0;
        for trial in 0..5 {
            let r = engine.run(
                &d,
                &cfg,
                Placement::Shuffled,
                &RunOptions::with_max_rounds(5_000),
                1000 + trial,
            );
            assert_eq!(r.reason, StopReason::Stopped);
            if r.success {
                wins += 1;
            }
        }
        assert!(wins >= 4, "won only {wins}/5");
    }

    #[test]
    fn every_mode_converges_on_clique_with_bias() {
        let (clique, cfg) = clique_engine(1_500);
        let d = ThreeMajority::new();
        for mode in ALL_MODES {
            let engine = GossipEngine::new(&clique).with_mode(mode);
            let r = engine.run(
                &d,
                &cfg,
                Placement::Shuffled,
                &RunOptions::with_max_rounds(20_000),
                2024,
            );
            assert_eq!(
                r.reason,
                StopReason::Stopped,
                "{} did not stop",
                mode.name()
            );
            assert!(r.success, "{} lost the plurality", mode.name());
        }
    }

    #[test]
    fn poisson_scheduler_converges() {
        let (clique, cfg) = clique_engine(1_500);
        let engine = GossipEngine::new(&clique).with_scheduler(Scheduler::Poisson);
        let r = engine.run(
            &ThreeMajority::new(),
            &cfg,
            Placement::Shuffled,
            &RunOptions::with_max_rounds(5_000),
            42,
        );
        assert_eq!(r.reason, StopReason::Stopped);
        assert!(r.success);
    }

    #[test]
    fn deterministic_same_seed_same_trajectory() {
        let (clique, cfg) = clique_engine(800);
        let engine = GossipEngine::new(&clique)
            .with_scheduler(Scheduler::Poisson)
            .with_network(NetworkConfig::new(0.3, 0.05));
        let opts = RunOptions::with_max_rounds(5_000).traced();
        let d = ThreeMajority::new();
        let (a, sa) = engine.run_detailed(&d, &cfg, Placement::Shuffled, &opts, 9);
        let (b, sb) = engine.run_detailed(&d, &cfg, Placement::Shuffled, &opts, 9);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.winner, b.winner);
        assert_eq!(sa, sb);
        let (ta, tb) = (a.trace.unwrap(), b.trace.unwrap());
        assert_eq!(ta.rounds.len(), tb.rounds.len());
        for (x, y) in ta.rounds.iter().zip(&tb.rounds) {
            assert_eq!(x, y, "trajectories must be identical");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let (clique, cfg) = clique_engine(800);
        let engine = GossipEngine::new(&clique);
        let d = ThreeMajority::new();
        let opts = RunOptions::with_max_rounds(5_000);
        let (_, sa) = engine.run_detailed(&d, &cfg, Placement::Shuffled, &opts, 1);
        let (_, sb) = engine.run_detailed(&d, &cfg, Placement::Shuffled, &opts, 2);
        assert_ne!(
            (sa.activations, sa.messages),
            (sb.activations, sb.messages),
            "distinct seeds should yield distinct trajectories"
        );
    }

    #[test]
    fn ideal_network_issues_no_loss_or_delay() {
        let (clique, cfg) = clique_engine(500);
        let engine = GossipEngine::new(&clique);
        let (r, stats) = engine.run_detailed(
            &ThreeMajority::new(),
            &cfg,
            Placement::Shuffled,
            &RunOptions::with_max_rounds(5_000),
            3,
        );
        assert_eq!(r.reason, StopReason::Stopped);
        assert_eq!(stats.lost_messages, 0);
        assert_eq!(stats.delayed_messages, 0);
        assert_eq!(stats.superseded_commits, 0);
        assert_eq!(
            stats.messages,
            3 * stats.activations,
            "3-majority pulls 3 samples"
        );
    }

    #[test]
    fn push_mode_sends_one_message_per_activation() {
        let (clique, cfg) = clique_engine(600);
        let engine = GossipEngine::new(&clique).with_mode(ExchangeMode::Push);
        let (r, stats) = engine.run_detailed(
            &ThreeMajority::new(),
            &cfg,
            Placement::Shuffled,
            &RunOptions::with_max_rounds(50_000),
            21,
        );
        assert_eq!(r.reason, StopReason::Stopped);
        assert_eq!(stats.messages, stats.activations, "one push per activation");
        assert!(stats.starved_updates > 0, "early updates must starve");
        // Every completed 3-majority update consumed 3 inbox colors.
        assert_eq!(stats.inbox_served % 3, 0);
        assert!(stats.inbox_served > 0);
    }

    #[test]
    fn push_pull_mode_saves_fresh_calls() {
        let (clique, cfg) = clique_engine(900);
        let engine = GossipEngine::new(&clique).with_mode(ExchangeMode::PushPull);
        let (r, stats) = engine.run_detailed(
            &ThreeMajority::new(),
            &cfg,
            Placement::Shuffled,
            &RunOptions::with_max_rounds(20_000),
            22,
        );
        assert_eq!(r.reason, StopReason::Stopped);
        assert!(r.success);
        // Each activation draws 3 samples; inbox-served samples need no
        // fresh exchange, so traffic sits strictly between 0 and 3/act.
        assert_eq!(stats.messages + stats.inbox_served, 3 * stats.activations);
        assert!(stats.inbox_served > 0, "push legs never got consumed");
        assert!(stats.pushes_delivered > 0);
    }

    #[test]
    fn heterogeneous_rates_accepted_by_both_schedulers() {
        let (clique, cfg) = clique_engine(400);
        let mut rates = vec![1.0; 400];
        for r in rates.iter_mut().take(200) {
            *r = 5.0;
        }
        for scheduler in [Scheduler::Sequential, Scheduler::Poisson] {
            let engine = GossipEngine::new(&clique)
                .with_scheduler(scheduler)
                .with_node_rates(rates.clone());
            let r = engine.run(
                &ThreeMajority::new(),
                &cfg,
                Placement::Shuffled,
                &RunOptions::with_max_rounds(20_000),
                33,
            );
            assert_eq!(r.reason, StopReason::Stopped, "{}", scheduler.name());
            assert!(r.success, "{}", scheduler.name());
        }
    }

    #[test]
    #[should_panic(expected = "one activation rate per node")]
    fn rate_vector_length_checked_against_topology() {
        let clique = Clique::new(10);
        let _ = GossipEngine::new(&clique).with_node_rates(vec![1.0; 9]);
    }

    #[test]
    fn lossy_network_still_converges_and_counts() {
        let (clique, cfg) = clique_engine(1_000);
        let engine = GossipEngine::new(&clique).with_network(NetworkConfig::new(0.0, 0.2));
        let (r, stats) = engine.run_detailed(
            &ThreeMajority::new(),
            &cfg,
            Placement::Shuffled,
            &RunOptions::with_max_rounds(10_000),
            5,
        );
        assert_eq!(r.reason, StopReason::Stopped);
        assert!(stats.lost_messages > 0);
        let rate = stats.lost_messages as f64 / stats.messages as f64;
        assert!((rate - 0.2).abs() < 0.05, "loss rate {rate}");
    }

    #[test]
    fn delayed_network_produces_delays() {
        let (clique, cfg) = clique_engine(1_000);
        let engine = GossipEngine::new(&clique).with_network(NetworkConfig::new(0.5, 0.0));
        let (r, stats) = engine.run_detailed(
            &ThreeMajority::new(),
            &cfg,
            Placement::Shuffled,
            &RunOptions::with_max_rounds(10_000),
            6,
        );
        assert_eq!(r.reason, StopReason::Stopped);
        assert!(stats.delayed_messages > 0);
        assert!(r.success);
    }

    #[test]
    fn delayed_push_legs_arrive_late_but_arrive() {
        let (clique, cfg) = clique_engine(700);
        for mode in [ExchangeMode::Push, ExchangeMode::PushPull] {
            let engine = GossipEngine::new(&clique)
                .with_mode(mode)
                .with_network(NetworkConfig::new(0.6, 0.0));
            let (r, stats) = engine.run_detailed(
                &ThreeMajority::new(),
                &cfg,
                Placement::Shuffled,
                &RunOptions::with_max_rounds(50_000),
                27,
            );
            assert_eq!(r.reason, StopReason::Stopped, "{}", mode.name());
            assert!(stats.delayed_messages > 0, "{}", mode.name());
            assert!(stats.pushes_delivered > 0, "{}", mode.name());
        }
    }

    #[test]
    fn max_rounds_reported() {
        // Balanced two-color voter on a big clique will not absorb fast.
        let clique = Clique::new(10_000);
        let cfg = builders::biased(10_000, 2, 2);
        let engine = GossipEngine::new(&clique);
        let r = engine.run(
            &Voter,
            &cfg,
            Placement::Shuffled,
            &RunOptions::with_max_rounds(3),
            7,
        );
        assert_eq!(r.reason, StopReason::MaxRounds);
        assert_eq!(r.rounds, 3);
        assert_eq!(r.winner, None);
    }

    #[test]
    fn max_events_caps_work() {
        let (clique, cfg) = clique_engine(1_000);
        let engine = GossipEngine::new(&clique);
        let opts = RunOptions::with_max_rounds(10_000).with_max_events(500);
        let (r, stats) =
            engine.run_detailed(&ThreeMajority::new(), &cfg, Placement::Shuffled, &opts, 8);
        assert_eq!(r.reason, StopReason::MaxRounds);
        assert!(stats.activations <= 500);
    }

    #[test]
    fn already_monochromatic_stops_at_zero() {
        let clique = Clique::new(100);
        let cfg = Configuration::new(vec![100, 0]);
        let engine = GossipEngine::new(&clique);
        let r = engine.run(
            &ThreeMajority::new(),
            &cfg,
            Placement::Shuffled,
            &RunOptions::default(),
            1,
        );
        assert_eq!(r.rounds, 0);
        assert_eq!(r.winner, Some(0));
    }

    #[test]
    fn mplurality_stop_rule_respected() {
        let (clique, cfg) = clique_engine(2_000);
        let engine = GossipEngine::new(&clique);
        let opts = RunOptions {
            stop: StopRule::MPlurality(50),
            ..RunOptions::with_max_rounds(10_000)
        };
        let full = engine.run(
            &ThreeMajority::new(),
            &cfg,
            Placement::Shuffled,
            &RunOptions::with_max_rounds(10_000),
            11,
        );
        let early = engine.run(&ThreeMajority::new(), &cfg, Placement::Shuffled, &opts, 11);
        assert!(early.rounds <= full.rounds);
        assert!(early.success);
    }

    #[test]
    fn undecided_dynamics_supported() {
        let clique = Clique::new(1_500);
        let cfg = builders::biased(1_500, 3, 500);
        let engine = GossipEngine::new(&clique);
        let r = engine.run(
            &UndecidedState::new(3),
            &cfg,
            Placement::Shuffled,
            &RunOptions::with_max_rounds(20_000),
            13,
        );
        assert_eq!(r.reason, StopReason::Stopped);
        assert!(r.success);
    }

    #[test]
    fn voter_push_matches_classic_push_voter() {
        // 1-sample voter under push: every delivered color is adopted at
        // the receiver's next activation — the classic push voter model
        // absorbs on a biased clique.  Inbox staleness low-pass filters
        // the voter's fluctuations, so absorption is much slower than
        // classic pull voter — keep n small.
        let clique = Clique::new(100);
        let cfg = builders::biased(100, 2, 25);
        let engine = GossipEngine::new(&clique).with_mode(ExchangeMode::Push);
        let r = engine.run(
            &Voter,
            &cfg,
            Placement::Shuffled,
            &RunOptions::with_max_rounds(200_000),
            15,
        );
        assert_eq!(r.reason, StopReason::Stopped, "push voter must absorb");
    }

    #[test]
    fn runs_on_sparse_topology() {
        let g = ring(301);
        let cfg = builders::biased(301, 2, 101);
        let engine = GossipEngine::new(&g);
        let r = engine.run(
            &Voter,
            &cfg,
            Placement::Shuffled,
            &RunOptions::with_max_rounds(200_000),
            17,
        );
        assert_eq!(r.reason, StopReason::Stopped, "voter on a ring must absorb");
    }

    #[test]
    fn trace_ends_with_the_stopping_configuration() {
        // Regression: the final trace entry must reflect the absorbed
        // state and carry index == rounds, including when absorption
        // lands exactly on a tick boundary or a stale boundary record
        // was taken before a delayed commit finished the run.
        for seed in 0..20 {
            for network in [NetworkConfig::default(), NetworkConfig::new(0.6, 0.05)] {
                let clique = Clique::new(200);
                let cfg = builders::biased(200, 3, 80);
                let engine = GossipEngine::new(&clique).with_network(network);
                let r = engine.run(
                    &ThreeMajority::new(),
                    &cfg,
                    Placement::Shuffled,
                    &RunOptions::with_max_rounds(10_000).traced(),
                    seed,
                );
                assert_eq!(r.reason, StopReason::Stopped, "seed {seed}");
                let trace = r.trace.unwrap();
                let last = trace.rounds.last().unwrap();
                assert_eq!(last.round, r.rounds, "seed {seed}: trace index mismatch");
                assert_eq!(
                    last.minority_mass, 0,
                    "seed {seed}: final trace entry is not the absorbed state"
                );
                // Tick indices strictly increase (no duplicate entries).
                for w in trace.rounds.windows(2) {
                    assert!(w[0].round < w[1].round, "seed {seed}: duplicate tick");
                }
            }
        }
    }

    #[test]
    fn trace_counts_match_population() {
        for mode in ALL_MODES {
            let (clique, cfg) = clique_engine(900);
            let engine = GossipEngine::new(&clique)
                .with_mode(mode)
                .with_network(NetworkConfig::new(0.4, 0.1));
            let r = engine.run(
                &ThreeMajority::new(),
                &cfg,
                Placement::Shuffled,
                &RunOptions::with_max_rounds(10_000).traced(),
                19,
            );
            let trace = r.trace.unwrap();
            assert!(!trace.rounds.is_empty());
            for s in &trace.rounds {
                assert_eq!(
                    s.plurality_count + s.minority_mass + s.extra_state_mass,
                    900,
                    "{} tick {}",
                    mode.name(),
                    s.round
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "more than INBOX_CAP")]
    fn push_mode_rejects_rules_drawing_more_samples_than_the_inbox_holds() {
        // h-plurality with h > INBOX_CAP can never complete a push-served
        // update; the engine must fail loudly instead of livelocking.
        let clique = Clique::new(200);
        let cfg = builders::biased(200, 3, 50);
        let engine = GossipEngine::new(&clique).with_mode(ExchangeMode::Push);
        let _ = engine.run(
            &plurality_core::HPlurality::new(crate::modes::INBOX_CAP + 1),
            &cfg,
            Placement::Shuffled,
            &RunOptions::with_max_rounds(1_000),
            5,
        );
    }

    #[test]
    fn per_edge_fixed_model_is_bit_identical_to_uniform_network() {
        // The degenerate-case contract at engine level: a per-edge model
        // whose distributions are Fixed reduces to the plain uniform
        // NetworkConfig, event for event.
        use crate::failure::{EdgeDists, FailureModel, ParamDist};
        let (clique, cfg) = clique_engine(700);
        let net = NetworkConfig::new(0.4, 0.1);
        let model = FailureModel::uniform(NetworkConfig::default()).with_per_edge(EdgeDists {
            loss: ParamDist::Fixed(0.1),
            delay: ParamDist::Fixed(0.4),
        });
        let d = ThreeMajority::new();
        let opts = RunOptions::with_max_rounds(10_000).traced();
        for mode in ALL_MODES {
            let uniform = GossipEngine::new(&clique).with_mode(mode).with_network(net);
            let modeled = GossipEngine::new(&clique)
                .with_mode(mode)
                .with_failure_model(model.clone());
            let (ra, sa) = uniform.run_detailed(&d, &cfg, Placement::Shuffled, &opts, 77);
            let (rb, sb) = modeled.run_detailed(&d, &cfg, Placement::Shuffled, &opts, 77);
            assert_eq!(ra.rounds, rb.rounds, "{}", mode.name());
            assert_eq!(ra.winner, rb.winner, "{}", mode.name());
            assert_eq!(sa, sb, "{}: stats diverged", mode.name());
        }
    }

    #[test]
    fn gilbert_elliott_model_converges_with_bursty_losses() {
        use crate::failure::FailureModel;
        let (clique, cfg) = clique_engine(1_000);
        let model =
            FailureModel::parse("ge:up=2,down=2,loss=0.8", NetworkConfig::default()).unwrap();
        for mode in ALL_MODES {
            let engine = GossipEngine::new(&clique)
                .with_mode(mode)
                .with_failure_model(model.clone());
            let (r, stats) = engine.run_detailed(
                &ThreeMajority::new(),
                &cfg,
                Placement::Shuffled,
                &RunOptions::with_max_rounds(100_000),
                61,
            );
            assert_eq!(r.reason, StopReason::Stopped, "{}", mode.name());
            assert!(stats.lost_messages > 0, "{}: no bursty losses", mode.name());
        }
    }

    #[test]
    fn partition_window_freezes_cross_traffic_then_recovers() {
        use crate::failure::FailureModel;
        let (clique, cfg) = clique_engine(800);
        // Total cross-cut silence for the first 3 ticks; the baseline is
        // otherwise ideal, so after the partition heals the run must
        // still converge and win.
        let model =
            FailureModel::parse("partition:parts=2,0..3", NetworkConfig::default()).unwrap();
        let engine = GossipEngine::new(&clique).with_failure_model(model);
        let (r, stats) = engine.run_detailed(
            &ThreeMajority::new(),
            &cfg,
            Placement::Shuffled,
            &RunOptions::with_max_rounds(50_000),
            62,
        );
        assert_eq!(r.reason, StopReason::Stopped);
        assert!(r.success);
        assert!(
            stats.lost_messages > 0,
            "cross-cut traffic should have been silenced"
        );
        assert!(r.rounds >= 3, "cannot finish inside the partition window");
    }

    #[test]
    fn total_loss_window_stalls_exactly_until_it_ends() {
        use crate::failure::FailureModel;
        let clique = Clique::new(300);
        let cfg = builders::biased(300, 3, 100);
        let model =
            FailureModel::parse("window:0..2,loss=1,delay=0", NetworkConfig::default()).unwrap();
        let engine = GossipEngine::new(&clique).with_failure_model(model);
        let r = engine.run(
            &ThreeMajority::new(),
            &cfg,
            Placement::Shuffled,
            &RunOptions::with_max_rounds(20_000).traced(),
            63,
        );
        assert_eq!(r.reason, StopReason::Stopped);
        let trace = r.trace.unwrap();
        // While every message is lost, 3-majority samples only its own
        // color and never recolors: ticks 0..2 are frozen.
        for s in trace.rounds.iter().take_while(|s| s.round < 2) {
            assert_eq!(
                s.plurality_count,
                cfg.counts()[0],
                "state drifted inside the total-loss window (tick {})",
                s.round
            );
        }
        assert!(r.rounds > 2, "convergence cannot predate the window end");
    }

    #[test]
    fn outage_model_runs_and_counts_losses() {
        use crate::failure::FailureModel;
        let (clique, cfg) = clique_engine(800);
        let model =
            FailureModel::parse("outage:frac=0.3,up=2,down=2", NetworkConfig::default()).unwrap();
        let engine = GossipEngine::new(&clique).with_failure_model(model);
        let (r, stats) = engine.run_detailed(
            &ThreeMajority::new(),
            &cfg,
            Placement::Shuffled,
            &RunOptions::with_max_rounds(50_000),
            64,
        );
        assert_eq!(r.reason, StopReason::Stopped);
        assert!(stats.lost_messages > 0, "down nodes must lose traffic");
    }

    #[test]
    fn failure_model_trials_are_deterministic() {
        use crate::failure::FailureModel;
        let (clique, cfg) = clique_engine(600);
        let model = FailureModel::parse(
            "edge:loss=0..0.3;ge:up=3,down=1,loss=0.9;outage:frac=0.2,up=4,down=1",
            NetworkConfig::new(0.2, 0.02),
        )
        .unwrap();
        for scheduler in [Scheduler::Sequential, Scheduler::Poisson] {
            let engine = GossipEngine::new(&clique)
                .with_scheduler(scheduler)
                .with_failure_model(model.clone());
            let opts = RunOptions::with_max_rounds(50_000);
            let d = ThreeMajority::new();
            let (ra, sa) = engine.run_detailed(&d, &cfg, Placement::Shuffled, &opts, 65);
            let (rb, sb) = engine.run_detailed(&d, &cfg, Placement::Shuffled, &opts, 65);
            assert_eq!(ra.rounds, rb.rounds, "{}", scheduler.name());
            assert_eq!(sa, sb, "{}", scheduler.name());
            let (_, sc) = engine.run_detailed(&d, &cfg, Placement::Shuffled, &opts, 66);
            assert_ne!(sa, sc, "distinct seeds must differ");
        }
    }

    #[test]
    fn drop_newest_inbox_policy_changes_push_trajectories() {
        // Half the nodes push 8× as often: slow receivers overflow their
        // caps, so the overflow policy is actually exercised.
        let (clique, cfg) = clique_engine(600);
        let rates: Vec<f64> = (0..600)
            .map(|v| if v % 2 == 0 { 8.0 } else { 1.0 })
            .collect();
        let d = ThreeMajority::new();
        let opts = RunOptions::with_max_rounds(400_000);
        let engine = |policy| {
            GossipEngine::new(&clique)
                .with_mode(ExchangeMode::Push)
                .with_node_rates(rates.clone())
                .with_inbox_policy(policy)
        };
        let oldest = engine(InboxPolicy::DropOldest);
        assert_eq!(
            GossipEngine::new(&clique).inbox_policy(),
            InboxPolicy::DropOldest,
            "drop-oldest must stay the default"
        );
        let newest = engine(InboxPolicy::DropNewest);
        let (ra, sa) = oldest.run_detailed(&d, &cfg, Placement::Shuffled, &opts, 67);
        let (rb, sb) = newest.run_detailed(&d, &cfg, Placement::Shuffled, &opts, 67);
        assert_eq!(ra.reason, StopReason::Stopped);
        assert_eq!(
            rb.reason,
            StopReason::Stopped,
            "drop-newest must still converge"
        );
        assert!(sa.inbox_dropped > 0, "cap never engaged for drop-oldest");
        assert!(sb.inbox_dropped > 0, "cap never engaged for drop-newest");
        assert_ne!(sa, sb, "policies must produce different processes");
    }

    #[test]
    fn random_replace_and_ttl_policies_run_and_differ() {
        // Same rate-skewed overload as the drop-newest test: the cap
        // engages, so every policy actually exercises its branch.
        let (clique, cfg) = clique_engine(600);
        let rates: Vec<f64> = (0..600)
            .map(|v| if v % 2 == 0 { 8.0 } else { 1.0 })
            .collect();
        let d = ThreeMajority::new();
        let opts = RunOptions::with_max_rounds(400_000).traced();
        let run = |policy| {
            GossipEngine::new(&clique)
                .with_mode(ExchangeMode::Push)
                .with_node_rates(rates.clone())
                .with_inbox_policy(policy)
                .run_detailed(&d, &cfg, Placement::Shuffled, &opts, 67)
        };
        let (ro, so) = run(InboxPolicy::DropOldest);
        let (rr, sr) = run(InboxPolicy::RandomReplace);
        let (rt, st) = run(InboxPolicy::Ttl { ticks: 0.75 });
        for (r, s, name) in [(&ro, &so, "drop-oldest"), (&rr, &sr, "random-replace")] {
            assert_eq!(r.reason, StopReason::Stopped, "{name}");
            assert!(s.inbox_dropped > 0, "{name}: cap never engaged");
        }
        assert_eq!(rt.reason, StopReason::Stopped, "ttl must still converge");
        // Eviction policy changes inbox *contents*, never lengths, and in
        // PUSH mode the aggregate stats are schedule/length functionals —
        // so the distinguishing observable is the color trajectory.
        let (to, tr) = (ro.trace.unwrap(), rr.trace.unwrap());
        assert_ne!(
            to.rounds, tr.rounds,
            "random-replace must change the color trajectory"
        );
        // TTL purging changes inbox lengths too, so its stats diverge.
        assert_ne!(so, st, "ttl must change the process");
        assert_ne!(sr, st, "random-replace and ttl must differ");
    }

    #[test]
    fn recording_does_not_perturb_the_trajectory() {
        // run_recorded with a live MetricsRecorder must reproduce the
        // NoopRecorder trial bit for bit: recording consumes no
        // randomness and never branches the simulation.
        use crate::failure::FailureModel;
        use plurality_telemetry::MetricsRecorder;
        let (clique, cfg) = clique_engine(500);
        let model = FailureModel::parse(
            "edge:loss=0..0.3;ge:up=3,down=1,loss=0.9",
            NetworkConfig::new(0.2, 0.1),
        )
        .unwrap();
        let d = ThreeMajority::new();
        let opts = RunOptions::with_max_rounds(50_000).traced();
        for mode in ALL_MODES {
            let engine = GossipEngine::new(&clique)
                .with_mode(mode)
                .with_failure_model(model.clone());
            let (ra, sa) = engine.run_detailed(&d, &cfg, Placement::Shuffled, &opts, 91);
            let mut rec = MetricsRecorder::new();
            let (rb, sb) = engine.run_recorded(&d, &cfg, Placement::Shuffled, &opts, 91, &mut rec);
            assert_eq!(sa, sb, "{}: stats diverged under recording", mode.name());
            assert_eq!(ra.rounds, rb.rounds, "{}", mode.name());
            assert_eq!(ra.winner, rb.winner, "{}", mode.name());
            let (ta, tb) = (ra.trace.unwrap(), rb.trace.unwrap());
            assert_eq!(ta.rounds, tb.rounds, "{}: traces diverged", mode.name());
            assert!(rec.counter(Counter::Activations) > 0);
        }
    }

    /// The exact conservation laws documented on [`Counter`], checked
    /// against both the recorder's own books and the engine's legacy
    /// [`GossipStats`] ground truth.
    fn assert_reconciles(
        rec: &plurality_telemetry::MetricsRecorder,
        stats: &GossipStats,
        label: &str,
    ) {
        let c = |x| rec.counter(x);
        assert_eq!(
            c(Counter::PullSent),
            c(Counter::PullDelivered) + c(Counter::PullLost),
            "{label}: pull flow"
        );
        assert_eq!(
            c(Counter::PushSent),
            c(Counter::PushDelivered) + c(Counter::PushLost),
            "{label}: push flow"
        );
        let layered: u64 = DropLayer::ALL.iter().map(|&l| c(lost_counter(l))).sum();
        assert_eq!(
            c(Counter::PullLost) + c(Counter::PushLost),
            layered,
            "{label}: loss attribution"
        );
        assert_eq!(
            c(Counter::PullLost) + c(Counter::PushLost),
            stats.lost_messages,
            "{label}: lost vs stats"
        );
        assert_eq!(
            c(Counter::PullDelayed) + c(Counter::PushDelayed),
            stats.delayed_messages,
            "{label}: delayed vs stats"
        );
        assert_eq!(
            c(Counter::InboxOffered),
            c(Counter::InboxAccepted) + c(Counter::InboxEvictedNewest),
            "{label}: inbox admission"
        );
        assert_eq!(
            c(Counter::InboxAccepted),
            c(Counter::InboxServed)
                + c(Counter::InboxExpiredTtl)
                + c(Counter::InboxEvictedOldest)
                + c(Counter::InboxEvictedRandom)
                + rec.gauge(Gauge::InboxResidentAtStop),
            "{label}: inbox exit"
        );
        assert_eq!(
            c(Counter::PushDelivered),
            c(Counter::InboxOffered) + rec.gauge(Gauge::PushInFlightAtStop),
            "{label}: push delivery"
        );
        assert_eq!(
            c(Counter::InboxOffered),
            stats.pushes_delivered,
            "{label}: offers vs stats"
        );
        assert_eq!(
            c(Counter::InboxEvictedOldest)
                + c(Counter::InboxEvictedNewest)
                + c(Counter::InboxEvictedRandom),
            stats.inbox_dropped,
            "{label}: evictions vs stats"
        );
        assert_eq!(c(Counter::Activations), stats.activations, "{label}");
        assert_eq!(c(Counter::InboxServed), stats.inbox_served, "{label}");
        assert_eq!(
            c(Counter::StarvedActivations),
            stats.starved_updates,
            "{label}"
        );
        assert_eq!(
            c(Counter::SupersededCommits),
            stats.superseded_commits,
            "{label}"
        );
    }

    #[test]
    fn counters_reconcile_across_modes_and_failure_layers() {
        use crate::failure::FailureModel;
        use plurality_telemetry::MetricsRecorder;
        let (clique, cfg) = clique_engine(500);
        let d = ThreeMajority::new();
        let opts = RunOptions::with_max_rounds(50_000);
        let models = [
            FailureModel::uniform(NetworkConfig::new(0.3, 0.25)),
            FailureModel::parse(
                "edge:loss=0..0.4;window:0..2,loss=0.9,delay=0.1;ge:up=2,down=2,loss=0.8;\
                 outage:frac=0.2,up=3,down=1;partition:parts=2,1..3",
                NetworkConfig::new(0.2, 0.05),
            )
            .unwrap(),
        ];
        for model in &models {
            for mode in ALL_MODES {
                let engine = GossipEngine::new(&clique)
                    .with_mode(mode)
                    .with_failure_model(model.clone());
                let mut rec = MetricsRecorder::new();
                let (_, stats) =
                    engine.run_recorded(&d, &cfg, Placement::Shuffled, &opts, 93, &mut rec);
                let label = format!("{}/{}", mode.name(), model.label());
                assert_reconciles(&rec, &stats, &label);
                // Per-mode message-accounting identities.
                match mode {
                    ExchangeMode::Pull => {
                        assert_eq!(rec.counter(Counter::PullSent), stats.messages, "{label}");
                        assert_eq!(rec.counter(Counter::PushSent), 0, "{label}");
                    }
                    ExchangeMode::Push => {
                        assert_eq!(rec.counter(Counter::PushSent), stats.messages, "{label}");
                        assert_eq!(rec.counter(Counter::PullSent), 0, "{label}");
                    }
                    ExchangeMode::PushPull => {
                        assert_eq!(rec.counter(Counter::PullSent), stats.messages, "{label}");
                        assert_eq!(rec.counter(Counter::PushSent), stats.messages, "{label}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "match topology size")]
    fn size_mismatch_rejected() {
        let clique = Clique::new(10);
        let cfg = builders::biased(11, 2, 3);
        let _ = GossipEngine::new(&clique).run(
            &ThreeMajority::new(),
            &cfg,
            Placement::Shuffled,
            &RunOptions::default(),
            1,
        );
    }
}
