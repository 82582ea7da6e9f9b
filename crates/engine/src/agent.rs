//! The agent-based engine: explicit per-node simulation on arbitrary
//! topologies.
//!
//! Where the mean-field engine exploits the clique's exchangeability, this
//! engine keeps one state per node and executes every sample the dynamics
//! draws — `O(n·h)` per round — which is what makes non-clique topologies
//! (and cross-validation of the mean-field engine) possible.
//!
//! # Determinism under parallelism
//!
//! Rounds are parallelized over *fixed-size node chunks*; chunk `c` of
//! round `r` always draws from the PRNG stream `1 + r·C + c` of the trial
//! seed (`C` = number of chunks), regardless of how chunks are assigned
//! to threads.  A run is therefore bit-for-bit identical for any
//! `threads` setting — the property the determinism tests pin down.  The
//! full draw-order contract, including the batched-draw and state-width
//! invariances below, is written down in `docs/DETERMINISM.md`.
//!
//! # Worker pool
//!
//! With `threads > 1` the round loop runs on a persistent pool: workers
//! are spawned once per trial and synchronize on a [`Barrier`] twice per
//! round (once after writing their span of the next-state array, once
//! after the coordinator has merged counts and evaluated the stop rule).
//! Node states live in two shared buffers of relaxed atomics — each node
//! is written by exactly one worker and reads only the previous round's
//! buffer, so the barrier provides all the ordering the round needs.
//!
//! One worker runs a sequential loop over plain state arrays instead.
//! The pool handles one worker too, but running T = 1 on it made the
//! clique's node update (`engine.ns_per_update_t1.agent-clique` in
//! perfbench) about 12% slower on a 2-CPU host, so the plain loop stays.
//!
//! # Narrow state words
//!
//! The per-node state arrays store `u8`/`u16`/`u32` words, picked by the
//! dynamics' state count (`k ≤ 256` → `u8`, `k ≤ 65 536` → `u16`).  All
//! randomness is consumed sampling *node indices*, never states, so the
//! trajectory is independent of the word width; a pin test forces each
//! width over the same seed and compares traces.
//!
//! # Gathered neighbor draws
//!
//! Rules that declare [`Dynamics::leading_draws`]`= Some(s)` (exactly `s`
//! sampler draws, made before any other randomness) run a
//! gather-then-evaluate chunk loop: first a tight gather of `s` neighbor
//! states per node in node order, then the branchy rule evaluation over
//! the gathered states.  The gather has no branch on a loaded state, so
//! the neighbor reads of one gather overlap in the memory system instead
//! of waiting on each other.
//!
//! * A rule that draws nothing else ([`Dynamics::fixed_draws`]) gathers
//!   `BATCH_NODES` nodes at a time.
//! * A rule that draws more randomness after its samples (h-plurality's
//!   tie-break, uniform-tie 3-majority, 2-sample's coin) gathers one node
//!   at a time, so its own draws keep their place in the chunk stream.
//! * A rule without leading draws (noisy 3-majority, whose noise coin
//!   comes before each sample) takes the one-pass pull loop.
//!
//! The PRNG sequence is identical on every path — the draws happen in the
//! same order — so golden fingerprints pin all of them.
//!
//! # Devirtualization
//!
//! The public constructors still take `&dyn Topology` / `&dyn Dynamics`
//! so the CLI, experiments, and adversary hooks compose unchanged, but
//! [`AgentEngine::run`] resolves both to concrete types up front
//! (`downcast_topology` / `downcast_dynamics`) and runs a round loop
//! monomorphized over `(Topology, Dynamics, Xoshiro256PlusPlus)` — the
//! three layers of per-sample virtual dispatch inline away.  Types
//! outside the dispatch tables fall back to [`DynTopology`] /
//! [`DynDynamics`] wrappers, which cost exactly what the pre-refactor
//! engine cost.  Both paths consume the PRNG identically; golden-trace
//! tests (`tests/agent_golden.rs`) pin them bit-for-bit.
//!
//! # Telemetry
//!
//! [`AgentEngine::run_recorded`] threads a
//! [`plurality_telemetry::Recorder`] through the round loop: samples
//! drawn, per-round wall-clock, leading-color occupancy, and phase
//! timers.  Recording consumes no randomness and never branches the
//! simulation, so the trajectory is independent of the recorder; the
//! disabled ([`NoopRecorder`]) instantiation — what [`AgentEngine::run`]
//! uses — compiles the instrumentation away.

use crate::run::{
    evaluate_stop, unique_initial_plurality, RunOptions, StopReason, TraceLevel, TrialResult,
};
use crate::trace::Trace;
use plurality_core::{
    downcast_dynamics, Configuration, DynDynamics, Dynamics, DynamicsCore, HPlurality, NodeScratch,
    SampleSource, ThreeMajority, UndecidedState, Voter,
};
use plurality_sampling::stream_rng;
use plurality_telemetry::{ticks_to_fp, Counter, Gauge, Hist, NoopRecorder, Phase, Recorder};
use plurality_topology::{
    downcast_topology, ChungLu, Clique, CsrGraph, DynTopology, ImplicitRing, Topology, TopologyCore,
};
use rand::{Rng, RngCore};
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU32, AtomicU8, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// How initial colors are laid onto nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Random assignment (uniform over placements with the given counts).
    /// The right default: on non-clique topologies adversarial placements
    /// change the process.
    #[default]
    Shuffled,
    /// Contiguous blocks of equal color (worst-case-ish for sparse
    /// topologies; useful for placement-sensitivity experiments).
    Blocks,
}

/// Storage width of the per-node state array.
///
/// [`StateWidth::Auto`] (the default) picks the narrowest word the
/// dynamics' state count fits; the explicit widths exist for the
/// width-equivalence pin tests and benchmarks.  The trajectory is
/// independent of the width — randomness samples node indices, never
/// state words — so forcing a wider word changes memory traffic only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StateWidth {
    /// Narrowest word that fits the state count (`u8`, `u16`, or `u32`).
    #[default]
    Auto,
    /// Force `u8` words (panics at run time if the state count exceeds 256).
    U8,
    /// Force `u16` words (panics at run time if the state count exceeds 65 536).
    U16,
    /// Force `u32` words (always fits).
    U32,
}

impl StateWidth {
    /// The concrete width (never `Auto`) a run over `state_count` states
    /// uses.
    ///
    /// # Panics
    /// Panics if a forced width cannot hold `state_count` states.
    fn resolve(self, state_count: usize) -> Self {
        let capacity = match self {
            Self::Auto if state_count <= u8::CAPACITY => return Self::U8,
            Self::Auto if state_count <= u16::CAPACITY => return Self::U16,
            Self::Auto | Self::U32 => return Self::U32,
            Self::U8 => u8::CAPACITY,
            Self::U16 => u16::CAPACITY,
        };
        assert!(
            state_count <= capacity,
            "state count {state_count} does not fit forced StateWidth::{self:?}"
        );
        self
    }
}

/// Lay a (lifted) state configuration onto nodes: contiguous blocks per
/// state, Fisher–Yates-shuffled on PRNG stream 0 of the trial seed when
/// `placement` is [`Placement::Shuffled`].
///
/// This is the one layout convention shared by every per-node engine
/// (the agent engine here and the asynchronous gossip engine), so that
/// their trials start from identically distributed placements.
#[must_use]
pub fn layout_initial_states(lifted: &Configuration, placement: Placement, seed: u64) -> Vec<u32> {
    let mut states: Vec<u32> = Vec::with_capacity(lifted.n() as usize);
    for (state, &count) in lifted.counts().iter().enumerate() {
        states.extend(std::iter::repeat_n(state as u32, count as usize));
    }
    if placement == Placement::Shuffled {
        let mut rng = stream_rng(seed, 0);
        for i in (1..states.len()).rev() {
            let j = rng.gen_range(0..=i);
            states.swap(i, j);
        }
    }
    states
}

/// Per-node simulator over a [`Topology`].
pub struct AgentEngine<'t> {
    topology: &'t dyn Topology,
    threads: usize,
    chunk_size: usize,
    width: StateWidth,
}

/// Nodes per gather for rules with [`Dynamics::fixed_draws`]; bounds the
/// gather buffer at `BATCH_NODES · s` words so it stays cache-resident.
const BATCH_NODES: usize = 1024;

/// How [`process_span`] gathers a rule's leading neighbor draws: `draws`
/// per node for `nodes` nodes, before it evaluates any of them.
#[derive(Debug, Clone, Copy)]
struct Gather {
    draws: usize,
    nodes: usize,
}

impl Gather {
    /// `None` for a rule without leading draws, which takes the pull
    /// loop.  Only a rule that draws nothing but its samples may gather
    /// ahead of other nodes' evaluations; any other gathers one node.
    fn for_rule<D: Dynamics>(dynamics: &D) -> Option<Self> {
        let draws = dynamics.leading_draws().filter(|&s| s > 0)?;
        let nodes = if dynamics.fixed_draws() == Some(draws) {
            BATCH_NODES
        } else {
            1
        };
        Some(Self { draws, nodes })
    }
}

/// A state word narrow enough for the dynamics' state count, with the
/// atomic twin the shared (parallel) buffers use.  All loads/stores are
/// `Relaxed`: each node is written by exactly one worker per round and
/// the per-round [`Barrier`] orders rounds against each other.
trait StateWord: Copy + Send + Sync + 'static {
    /// The matching atomic cell type.
    type Atomic: Send + Sync;
    /// Largest representable state count.
    const CAPACITY: usize;
    fn from_u32(v: u32) -> Self;
    fn to_u32(self) -> u32;
    fn atomic_from(v: u32) -> Self::Atomic;
    fn atomic_load(a: &Self::Atomic) -> u32;
    fn atomic_store(a: &Self::Atomic, v: u32);
}

macro_rules! impl_state_word {
    ($word:ty, $atomic:ty) => {
        impl StateWord for $word {
            type Atomic = $atomic;
            const CAPACITY: usize = (<$word>::MAX as usize) + 1;

            #[inline(always)]
            fn from_u32(v: u32) -> Self {
                v as $word
            }

            #[inline(always)]
            fn to_u32(self) -> u32 {
                self as u32
            }

            #[inline(always)]
            fn atomic_from(v: u32) -> Self::Atomic {
                <$atomic>::new(v as $word)
            }

            #[inline(always)]
            fn atomic_load(a: &Self::Atomic) -> u32 {
                a.load(Ordering::Relaxed) as u32
            }

            #[inline(always)]
            fn atomic_store(a: &Self::Atomic, v: u32) {
                a.store(v as $word, Ordering::Relaxed);
            }
        }
    };
}

impl_state_word!(u8, AtomicU8);
impl_state_word!(u16, AtomicU16);
impl_state_word!(u32, AtomicU32);

/// Read access to the current round's state array, abstracting over the
/// plain (sequential) and atomic (shared) buffers so the chunk processor
/// is written once.
trait ReadStates: Sync {
    fn read(&self, i: usize) -> u32;
}

struct PlainStates<'a, W>(&'a [W]);

impl<W: StateWord> ReadStates for PlainStates<'_, W> {
    #[inline(always)]
    fn read(&self, i: usize) -> u32 {
        self.0[i].to_u32()
    }
}

struct SharedStates<'a, W: StateWord>(&'a [W::Atomic]);

impl<W: StateWord> ReadStates for SharedStates<'_, W> {
    #[inline(always)]
    fn read(&self, i: usize) -> u32 {
        W::atomic_load(&self.0[i])
    }
}

/// Draws the state of a random neighbor of one node; monomorphic over
/// the topology and state buffer so the whole sampling chain inlines.
struct NeighborSource<'a, T, S: ?Sized> {
    topology: &'a T,
    states: &'a S,
    node: usize,
}

impl<T: TopologyCore, S: ReadStates + ?Sized> SampleSource for NeighborSource<'_, T, S> {
    #[inline]
    fn draw<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> u32 {
        self.states
            .read(self.topology.sample_neighbor_core(self.node, rng))
    }
}

/// Replays gathered neighbor states to the rule.  Consumes no randomness:
/// the gather already drew every sample, in node order, from the chunk's
/// stream.
struct SliceSource<'a> {
    buf: &'a [u32],
    pos: usize,
}

impl SampleSource for SliceSource<'_> {
    #[inline(always)]
    fn draw<R: RngCore + ?Sized>(&mut self, _rng: &mut R) -> u32 {
        let v = self.buf[self.pos];
        self.pos += 1;
        v
    }
}

/// Counts draws on the way through to an inner source.  Used only on the
/// recorder-enabled path, so the disabled engine keeps the bare source.
struct CountingSource<S> {
    inner: S,
    drawn: u64,
}

impl<S: SampleSource> SampleSource for CountingSource<S> {
    #[inline]
    fn draw<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> u32 {
        self.drawn += 1;
        self.inner.draw(rng)
    }
}

/// Per-worker reusable buffers: the dynamics scratch plus the gather
/// buffer.
struct WorkerScratch {
    scratch: NodeScratch,
    batch: Vec<u32>,
}

impl WorkerScratch {
    fn new(state_count: usize, gather: Option<Gather>) -> Self {
        Self {
            scratch: NodeScratch::with_states(state_count),
            batch: Vec::with_capacity(gather.map_or(0, |g| g.nodes * g.draws)),
        }
    }
}

/// Process a contiguous span of chunks `[first_chunk, last_chunk)` for
/// one round: read states through `src`, write each node's next state
/// through `write`, tally into `counts`.  Returns the number of neighbor
/// samples drawn (always 0 when `Rec` is disabled — counting rides the
/// recorder-enabled instantiation only, so the disabled hot loop stays
/// untouched).
///
/// Chunk `c` always draws from stream `stream_base + c` of the trial
/// seed, and, with a `gather`, the gather draws the same samples in the
/// same node order as the pull loop — both halves of the determinism
/// contract (see the module docs).
#[allow(clippy::too_many_arguments)]
fn process_span<T, D, S, Rec, Out>(
    topology: &T,
    dynamics: &D,
    src: &S,
    n: usize,
    first_chunk: usize,
    last_chunk: usize,
    chunk: usize,
    stream_base: u64,
    seed: u64,
    gather: Option<Gather>,
    ws: &mut WorkerScratch,
    counts: &mut [u64],
    write: &mut Out,
) -> u64
where
    T: TopologyCore,
    D: DynamicsCore,
    S: ReadStates,
    Rec: Recorder,
    Out: FnMut(usize, u32),
{
    let mut drawn = 0u64;
    for chunk_index in first_chunk..last_chunk {
        let start = chunk_index * chunk;
        if start >= n {
            break;
        }
        let end = ((chunk_index + 1) * chunk).min(n);
        let mut rng = stream_rng(seed, stream_base + chunk_index as u64);
        if let Some(Gather { draws: s, nodes }) = gather {
            // Gather `nodes` nodes' leading draws, then evaluate them.
            let mut node = start;
            while node < end {
                let batch_end = (node + nodes).min(end);
                ws.batch.clear();
                for node_i in node..batch_end {
                    for _ in 0..s {
                        let idx = topology.sample_neighbor_core(node_i, &mut rng);
                        ws.batch.push(src.read(idx));
                    }
                }
                let mut pos = 0usize;
                for node_i in node..batch_end {
                    let own = src.read(node_i);
                    let slice = SliceSource {
                        buf: &ws.batch,
                        pos,
                    };
                    // `Rec::ENABLED` is a monomorphization-time constant:
                    // the disabled arm compiles to the bare source chain.
                    let new = if Rec::ENABLED {
                        let mut counting = CountingSource {
                            inner: slice,
                            drawn: 0,
                        };
                        let new = dynamics.node_update_core(
                            own,
                            &mut counting,
                            &mut ws.scratch,
                            &mut rng,
                        );
                        drawn += counting.drawn;
                        pos = counting.inner.pos;
                        new
                    } else {
                        let mut slice = slice;
                        let new =
                            dynamics.node_update_core(own, &mut slice, &mut ws.scratch, &mut rng);
                        pos = slice.pos;
                        new
                    };
                    debug_assert_eq!(
                        pos,
                        (node_i - node + 1) * s,
                        "leading_draws promised exactly {s} draws per node"
                    );
                    write(node_i, new);
                    counts[new as usize] += 1;
                }
                node = batch_end;
            }
        } else {
            for node_i in start..end {
                let own = src.read(node_i);
                let source = NeighborSource {
                    topology,
                    states: src,
                    node: node_i,
                };
                let new = if Rec::ENABLED {
                    let mut counting = CountingSource {
                        inner: source,
                        drawn: 0,
                    };
                    let new =
                        dynamics.node_update_core(own, &mut counting, &mut ws.scratch, &mut rng);
                    drawn += counting.drawn;
                    new
                } else {
                    let mut source = source;
                    dynamics.node_update_core(own, &mut source, &mut ws.scratch, &mut rng)
                };
                write(node_i, new);
                counts[new as usize] += 1;
            }
        }
    }
    drawn
}

/// Per-round bookkeeping shared by the sequential and pooled drivers:
/// recorder updates, trace recording, stop evaluation.  Returns
/// `Some(result)` when the trial ends this round.
#[allow(clippy::too_many_arguments)]
fn after_round<D: DynamicsCore, Rec: Recorder>(
    dynamics: &D,
    opts: &RunOptions,
    rec: &mut Rec,
    trace: &mut Option<Trace>,
    full: bool,
    k_colors: usize,
    initial_plurality: usize,
    counts: &[u64],
    drawn: u64,
    rounds: u64,
    round_t0: Option<Instant>,
) -> Option<TrialResult> {
    if Rec::ENABLED {
        if let Some(t0) = round_t0 {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            rec.observe(Hist::RoundWallNanos, ns);
        }
        rec.incr(Counter::Rounds);
        rec.add(Counter::SamplesDrawn, drawn);
        let leader = counts[..k_colors].iter().copied().max().unwrap_or(0);
        rec.observe(Hist::LeaderOccupancy, leader);
    }
    if let Some(t) = trace.as_mut() {
        t.record(rounds, counts, k_colors, full);
    }
    if let Some(winner) = evaluate_stop(opts.stop, dynamics, counts, initial_plurality) {
        rec.phase_end(Phase::Run);
        record_stop(rec, rounds);
        let out = TrialResult {
            rounds,
            reason: StopReason::Stopped,
            winner: Some(winner),
            initial_plurality,
            success: winner == initial_plurality,
            trace: trace.take(),
        };
        rec.phase_end(Phase::Finalize);
        return Some(out);
    }
    if rounds >= opts.max_rounds {
        rec.phase_end(Phase::Run);
        record_stop(rec, rounds);
        let out = TrialResult {
            rounds,
            reason: StopReason::MaxRounds,
            winner: None,
            initial_plurality,
            success: false,
            trace: trace.take(),
        };
        rec.phase_end(Phase::Finalize);
        return Some(out);
    }
    None
}

/// A trial after setup, as the round loop takes it: the lifted layout
/// and counts, and what [`after_round`] needs to close each round.
struct Trial<'o> {
    layout: Vec<u32>,
    counts: Vec<u64>,
    opts: &'o RunOptions,
    seed: u64,
    trace: Option<Trace>,
    full: bool,
    k_colors: usize,
    initial_plurality: usize,
}

impl<'t> AgentEngine<'t> {
    /// Default chunk granularity (nodes per RNG stream).
    pub const DEFAULT_CHUNK: usize = 4096;

    /// Single-threaded engine on a topology.
    #[must_use]
    pub fn new(topology: &'t dyn Topology) -> Self {
        Self {
            topology,
            threads: 1,
            chunk_size: Self::DEFAULT_CHUNK,
            width: StateWidth::Auto,
        }
    }

    /// Use up to `threads` worker threads per round.
    ///
    /// The trajectory is bit-identical for every value — see the module
    /// docs and `docs/DETERMINISM.md`.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        self.threads = threads;
        self
    }

    /// Override the chunk granularity (testing/benchmarking only; changes
    /// the random stream layout and therefore exact trajectories).
    #[must_use]
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        self.chunk_size = chunk_size;
        self
    }

    /// Override the state-array word width (testing/benchmarking only;
    /// the trajectory is width-independent, unlike
    /// [`AgentEngine::with_chunk_size`] which *does* move trajectories).
    ///
    /// # Panics
    /// The subsequent run panics if the dynamics' state count does not
    /// fit the forced width.
    #[must_use]
    pub fn with_state_width(mut self, width: StateWidth) -> Self {
        self.width = width;
        self
    }

    /// Run one trial.  `seed` fully determines the trajectory.
    ///
    /// Dispatches to a round loop monomorphized over the concrete
    /// topology and dynamics (see the module docs); unknown types run
    /// through dyn fallback wrappers with identical results.
    ///
    /// # Panics
    /// Panics if the configuration population differs from the topology
    /// size.
    pub fn run(
        &self,
        dynamics: &dyn Dynamics,
        initial: &Configuration,
        placement: Placement,
        opts: &RunOptions,
        seed: u64,
    ) -> TrialResult {
        self.run_recorded(dynamics, initial, placement, opts, seed, &mut NoopRecorder)
    }

    /// [`AgentEngine::run`] with a telemetry [`Recorder`].
    ///
    /// Records [`Counter::Rounds`], [`Counter::SamplesDrawn`],
    /// [`Hist::RoundWallNanos`], [`Hist::LeaderOccupancy`], the
    /// completed-ticks gauge, and setup/run/finalize phase timers.
    /// Recording consumes no randomness and never branches the
    /// simulation: the trajectory is identical for every recorder, and
    /// the [`NoopRecorder`] instantiation is the uninstrumented engine.
    ///
    /// # Panics
    /// Panics if the configuration population differs from the topology
    /// size.
    pub fn run_recorded<Rec: Recorder>(
        &self,
        dynamics: &dyn Dynamics,
        initial: &Configuration,
        placement: Placement,
        opts: &RunOptions,
        seed: u64,
        rec: &mut Rec,
    ) -> TrialResult {
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
    ) -> TrialResult {
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

    /// Third dispatch level: trial setup, then resolve the state-word
    /// width and enter the monomorphized round loop.
    #[allow(clippy::too_many_arguments)]
    fn run_core<T: TopologyCore, D: DynamicsCore, Rec: Recorder>(
        &self,
        topology: &T,
        dynamics: &D,
        initial: &Configuration,
        placement: Placement,
        opts: &RunOptions,
        seed: u64,
        rec: &mut Rec,
    ) -> TrialResult {
        rec.phase_start(Phase::Setup);
        let n = topology.n();
        assert_eq!(
            initial.n() as usize,
            n,
            "configuration population must match topology size"
        );
        let initial_plurality = unique_initial_plurality(initial);
        let k_colors = initial.k();
        let lifted = dynamics.lift(initial);
        let state_count = lifted.k();

        let layout = layout_initial_states(&lifted, placement, seed);
        let counts: Vec<u64> = lifted.counts().to_vec();

        let mut trace = match opts.trace {
            TraceLevel::Off => None,
            _ => Some(Trace::new()),
        };
        let full = opts.trace == TraceLevel::Full;
        if let Some(t) = trace.as_mut() {
            t.record(0, &counts, k_colors, full);
        }
        rec.phase_end(Phase::Setup);

        if let Some(winner) = evaluate_stop(opts.stop, dynamics, &counts, initial_plurality) {
            record_stop(rec, 0);
            let out = TrialResult {
                rounds: 0,
                reason: StopReason::Stopped,
                winner: Some(winner),
                initial_plurality,
                success: winner == initial_plurality,
                trace,
            };
            rec.phase_end(Phase::Finalize);
            return out;
        }

        let trial = Trial {
            layout,
            counts,
            opts,
            seed,
            trace,
            full,
            k_colors,
            initial_plurality,
        };
        match self.width.resolve(state_count) {
            StateWidth::U8 => self.run_sized::<T, D, u8, Rec>(topology, dynamics, trial, rec),
            StateWidth::U16 => self.run_sized::<T, D, u16, Rec>(topology, dynamics, trial, rec),
            _ => self.run_sized::<T, D, u32, Rec>(topology, dynamics, trial, rec),
        }
    }

    /// The monomorphized round loop: sequential double-buffer when
    /// `threads == 1` (or a single chunk), persistent barrier-synced
    /// worker pool otherwise.
    ///
    /// Never inlined: each width reaches it from one call site, and
    /// inlining all 75 topology × dynamics × width loops into their
    /// callers grew the release CLI binary from 96 MB to 114 MB.
    #[inline(never)]
    fn run_sized<T: TopologyCore, D: DynamicsCore, W: StateWord, Rec: Recorder>(
        &self,
        topology: &T,
        dynamics: &D,
        trial: Trial<'_>,
        rec: &mut Rec,
    ) -> TrialResult {
        let Trial {
            layout,
            mut counts,
            opts,
            seed,
            mut trace,
            full,
            k_colors,
            initial_plurality,
        } = trial;
        let n = layout.len();
        let state_count = counts.len();
        let chunk = self.chunk_size;
        let num_chunks = n.div_ceil(chunk);
        let gather = Gather::for_rule(dynamics);
        rec.phase_start(Phase::Run);

        if self.threads <= 1 || num_chunks <= 1 {
            let mut cur: Vec<W> = layout.iter().map(|&s| W::from_u32(s)).collect();
            let mut nxt: Vec<W> = vec![W::from_u32(0); n];
            let mut ws = WorkerScratch::new(state_count, gather);
            let mut rounds = 0u64;
            loop {
                let round_t0 = if Rec::ENABLED {
                    Some(Instant::now())
                } else {
                    None
                };
                counts.fill(0);
                let stream_base = 1 + rounds * num_chunks as u64;
                let drawn = process_span::<T, D, _, Rec, _>(
                    topology,
                    dynamics,
                    &PlainStates::<W>(&cur),
                    n,
                    0,
                    num_chunks,
                    chunk,
                    stream_base,
                    seed,
                    gather,
                    &mut ws,
                    &mut counts,
                    &mut |i, v| nxt[i] = W::from_u32(v),
                );
                std::mem::swap(&mut cur, &mut nxt);
                rounds += 1;
                if let Some(out) = after_round(
                    dynamics,
                    opts,
                    rec,
                    &mut trace,
                    full,
                    k_colors,
                    initial_plurality,
                    &counts,
                    drawn,
                    rounds,
                    round_t0,
                ) {
                    return out;
                }
            }
        }

        // Persistent worker pool.  Worker `w` owns the contiguous chunk
        // range [w·chunks_per, (w+1)·chunks_per) — the same static
        // partition as the sequential path walks, so the chunk→stream
        // mapping (and hence the trajectory) is thread-count independent.
        let workers = self.threads.min(num_chunks);
        let chunks_per = num_chunks.div_ceil(workers);
        let bufs: [Vec<W::Atomic>; 2] = [
            layout.iter().map(|&s| W::atomic_from(s)).collect(),
            (0..n).map(|_| W::atomic_from(0)).collect(),
        ];
        let barrier = Barrier::new(workers);
        let done = AtomicBool::new(false);
        // One slot per helper worker: (state counts, samples drawn).
        // Each lock is touched once per round by its owner and once by
        // the coordinator after the barrier — never contended.
        let slots: Vec<Mutex<(Vec<u64>, u64)>> = (1..workers)
            .map(|_| Mutex::new((vec![0u64; state_count], 0u64)))
            .collect();

        std::thread::scope(|scope| {
            for w in 1..workers {
                let slot = &slots[w - 1];
                let bufs = &bufs;
                let barrier = &barrier;
                let done = &done;
                scope.spawn(move || {
                    let first_chunk = w * chunks_per;
                    let last_chunk = ((w + 1) * chunks_per).min(num_chunks);
                    let mut ws = WorkerScratch::new(state_count, gather);
                    let mut local = vec![0u64; state_count];
                    let mut round = 0u64;
                    loop {
                        let (cur, nxt) = if round.is_multiple_of(2) {
                            (&bufs[0], &bufs[1])
                        } else {
                            (&bufs[1], &bufs[0])
                        };
                        local.fill(0);
                        let drawn = process_span::<T, D, _, Rec, _>(
                            topology,
                            dynamics,
                            &SharedStates::<W>(cur),
                            n,
                            first_chunk,
                            last_chunk,
                            chunk,
                            1 + round * num_chunks as u64,
                            seed,
                            gather,
                            &mut ws,
                            &mut local,
                            &mut |i, v| W::atomic_store(&nxt[i], v),
                        );
                        {
                            let mut s = slot.lock().expect("coordinator panicked");
                            s.0.copy_from_slice(&local);
                            s.1 = drawn;
                        }
                        // Barrier 1: all next-state writes visible.
                        barrier.wait();
                        // Barrier 2: coordinator merged counts and
                        // decided whether to stop.
                        barrier.wait();
                        if done.load(Ordering::Relaxed) {
                            break;
                        }
                        round += 1;
                    }
                });
            }

            // The coordinator is worker 0: it processes the first span,
            // then merges counts and runs the bookkeeping between the
            // two barriers.
            let mut ws = WorkerScratch::new(state_count, gather);
            let mut rounds = 0u64;
            loop {
                let round_t0 = if Rec::ENABLED {
                    Some(Instant::now())
                } else {
                    None
                };
                let (cur, nxt) = if rounds.is_multiple_of(2) {
                    (&bufs[0], &bufs[1])
                } else {
                    (&bufs[1], &bufs[0])
                };
                counts.fill(0);
                let mut drawn = process_span::<T, D, _, Rec, _>(
                    topology,
                    dynamics,
                    &SharedStates::<W>(cur),
                    n,
                    0,
                    chunks_per,
                    chunk,
                    1 + rounds * num_chunks as u64,
                    seed,
                    gather,
                    &mut ws,
                    &mut counts,
                    &mut |i, v| W::atomic_store(&nxt[i], v),
                );
                barrier.wait();
                for slot in &slots {
                    let s = slot.lock().expect("worker panicked");
                    for (dst, &x) in counts.iter_mut().zip(&s.0) {
                        *dst += x;
                    }
                    drawn += s.1;
                }
                rounds += 1;
                let outcome = after_round(
                    dynamics,
                    opts,
                    rec,
                    &mut trace,
                    full,
                    k_colors,
                    initial_plurality,
                    &counts,
                    drawn,
                    rounds,
                    round_t0,
                );
                if outcome.is_some() {
                    done.store(true, Ordering::Relaxed);
                }
                barrier.wait();
                if let Some(out) = outcome {
                    break out;
                }
            }
        })
    }
}

/// Close the books at stop: completed-round gauges, then open the
/// finalize phase (the caller closes it once the result is assembled).
fn record_stop<Rec: Recorder>(rec: &mut Rec, rounds: u64) {
    if Rec::ENABLED {
        rec.gauge_set(Gauge::CompletedTicks, rounds);
        rec.gauge_set(Gauge::FinalTimeFp, ticks_to_fp(rounds as f64));
    }
    rec.phase_start(Phase::Finalize);
}

#[cfg(test)]
mod tests {
    use super::*;
    use plurality_core::{builders, ThreeMajority, UndecidedState, Voter};
    use plurality_topology::{ring, torus, Clique};

    #[test]
    fn converges_on_clique_with_bias() {
        let clique = Clique::new(2_000);
        let engine = AgentEngine::new(&clique);
        let cfg = builders::biased(2_000, 4, 800);
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
    fn deterministic_across_thread_counts() {
        let clique = Clique::new(3_000);
        let cfg = builders::biased(3_000, 3, 600);
        let d = ThreeMajority::new();
        let opts = RunOptions::with_max_rounds(2_000).traced();
        let r1 = AgentEngine::new(&clique).run(&d, &cfg, Placement::Shuffled, &opts, 7);
        let r4 =
            AgentEngine::new(&clique)
                .with_threads(4)
                .run(&d, &cfg, Placement::Shuffled, &opts, 7);
        assert_eq!(r1.rounds, r4.rounds);
        assert_eq!(r1.winner, r4.winner);
        let t1 = r1.trace.unwrap();
        let t4 = r4.trace.unwrap();
        for (a, b) in t1.rounds.iter().zip(&t4.rounds) {
            assert_eq!(a, b, "trajectories must be identical");
        }
    }

    #[test]
    fn deterministic_across_state_widths() {
        // The width pin: u8, u16, and u32 state arrays must walk the
        // same trajectory (randomness samples node indices, not words).
        let clique = Clique::new(2_500);
        let cfg = builders::biased(2_500, 3, 500);
        let d = ThreeMajority::new();
        let opts = RunOptions::with_max_rounds(2_000).traced();
        let narrow = AgentEngine::new(&clique)
            .with_state_width(StateWidth::U8)
            .run(&d, &cfg, Placement::Shuffled, &opts, 21);
        for width in [StateWidth::U16, StateWidth::U32, StateWidth::Auto] {
            let wide = AgentEngine::new(&clique).with_state_width(width).run(
                &d,
                &cfg,
                Placement::Shuffled,
                &opts,
                21,
            );
            assert_eq!(narrow.rounds, wide.rounds, "{width:?}");
            assert_eq!(narrow.winner, wide.winner, "{width:?}");
            assert_eq!(
                narrow.trace.as_ref().unwrap().rounds,
                wide.trace.as_ref().unwrap().rounds,
                "{width:?}: trajectory must be width-independent"
            );
        }
    }

    #[test]
    #[should_panic(expected = "does not fit forced StateWidth::U8")]
    fn forced_narrow_width_rejects_large_state_counts() {
        let clique = Clique::new(600);
        let mut counts = vec![1u64; 300];
        counts[0] = 301;
        let cfg = Configuration::new(counts);
        let _ = AgentEngine::new(&clique)
            .with_state_width(StateWidth::U8)
            .run(
                &ThreeMajority::new(),
                &cfg,
                Placement::Shuffled,
                &RunOptions::with_max_rounds(1),
                1,
            );
    }

    #[test]
    fn deterministic_same_seed_same_result() {
        let clique = Clique::new(1_000);
        let cfg = builders::biased(1_000, 3, 300);
        let d = ThreeMajority::new();
        let opts = RunOptions::with_max_rounds(2_000);
        let a = AgentEngine::new(&clique).run(&d, &cfg, Placement::Shuffled, &opts, 9);
        let b = AgentEngine::new(&clique).run(&d, &cfg, Placement::Shuffled, &opts, 9);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.winner, b.winner);
    }

    #[test]
    fn works_on_torus() {
        let g = torus(20, 20);
        let engine = AgentEngine::new(&g);
        let cfg = builders::biased(400, 2, 200);
        let d = ThreeMajority::new();
        let r = engine.run(
            &d,
            &cfg,
            Placement::Shuffled,
            &RunOptions::with_max_rounds(20_000),
            11,
        );
        assert_eq!(r.reason, StopReason::Stopped, "torus run did not settle");
        assert!(r.success, "heavily biased start should win on the torus");
    }

    #[test]
    fn voter_on_odd_ring_eventually_absorbs() {
        // Odd ring on purpose: on an *even* cycle the synchronous voter
        // can reach the perfectly alternating configuration, where both
        // neighbors of every node hold the opposite color and the whole
        // ring flips deterministically forever (a genuine oscillation
        // trap of the synchronous model; observed at ring(60), seed 13).
        // No alternating trap exists when n is odd.
        let g = ring(61);
        let engine = AgentEngine::new(&g);
        let cfg = builders::biased(61, 2, 21);
        let r = engine.run(
            &Voter,
            &cfg,
            Placement::Shuffled,
            &RunOptions::with_max_rounds(200_000),
            13,
        );
        assert_eq!(
            r.reason,
            StopReason::Stopped,
            "voter on odd ring must absorb"
        );
    }

    #[test]
    fn undecided_state_on_clique_agents() {
        let clique = Clique::new(2_000);
        let engine = AgentEngine::new(&clique);
        let cfg = builders::biased(2_000, 3, 700);
        let d = UndecidedState::new(3);
        let r = engine.run(
            &d,
            &cfg,
            Placement::Shuffled,
            &RunOptions::with_max_rounds(50_000),
            17,
        );
        assert_eq!(r.reason, StopReason::Stopped);
        assert!(r.success);
    }

    #[test]
    fn blocks_placement_supported() {
        let clique = Clique::new(500);
        let engine = AgentEngine::new(&clique);
        let cfg = builders::biased(500, 2, 200);
        let d = ThreeMajority::new();
        let r = engine.run(
            &d,
            &cfg,
            Placement::Blocks,
            &RunOptions::with_max_rounds(5_000),
            19,
        );
        // On the clique placement is irrelevant; it must still converge.
        assert_eq!(r.reason, StopReason::Stopped);
    }

    #[test]
    #[should_panic(expected = "match topology size")]
    fn size_mismatch_rejected() {
        let clique = Clique::new(10);
        let engine = AgentEngine::new(&clique);
        let cfg = builders::biased(11, 2, 3);
        let _ = engine.run(
            &ThreeMajority::new(),
            &cfg,
            Placement::Shuffled,
            &RunOptions::default(),
            1,
        );
    }

    #[test]
    fn recording_does_not_perturb_the_trajectory() {
        use plurality_telemetry::MetricsRecorder;
        let clique = Clique::new(1_500);
        let cfg = builders::biased(1_500, 3, 450);
        let d = ThreeMajority::new();
        let opts = RunOptions::with_max_rounds(2_000).traced();
        let engine = AgentEngine::new(&clique);
        let plain = engine.run(&d, &cfg, Placement::Shuffled, &opts, 31);
        let mut rec = MetricsRecorder::new();
        let recorded = engine.run_recorded(&d, &cfg, Placement::Shuffled, &opts, 31, &mut rec);
        assert_eq!(plain.rounds, recorded.rounds);
        assert_eq!(plain.winner, recorded.winner);
        assert_eq!(
            plain.trace.unwrap().rounds,
            recorded.trace.unwrap().rounds,
            "recording must not perturb the trajectory"
        );
    }

    #[test]
    fn counters_reconcile_with_known_sample_budgets() {
        use plurality_telemetry::{Counter, Gauge, Hist, MetricsRecorder, Phase};
        let clique = Clique::new(600);
        let cfg = builders::biased(600, 3, 220);
        let opts = RunOptions::with_max_rounds(40);
        // Three-majority draws exactly 3 samples per node per round;
        // voter exactly 1 — samples_drawn is an identity, not an estimate.
        let mut rec = MetricsRecorder::new();
        let r = AgentEngine::new(&clique).run_recorded(
            &ThreeMajority::new(),
            &cfg,
            Placement::Shuffled,
            &opts,
            37,
            &mut rec,
        );
        assert_eq!(rec.counter(Counter::Rounds), r.rounds);
        assert_eq!(rec.counter(Counter::SamplesDrawn), 3 * 600 * r.rounds);
        assert_eq!(rec.gauge(Gauge::CompletedTicks), r.rounds);
        assert_eq!(rec.hist(Hist::RoundWallNanos).count(), r.rounds);
        assert_eq!(rec.hist(Hist::LeaderOccupancy).count(), r.rounds);
        assert!(rec.hist(Hist::LeaderOccupancy).max() <= 600);
        assert!(rec.phase_nanos(Phase::Run) > 0, "run phase must be timed");

        let mut vrec = MetricsRecorder::new();
        let vr = AgentEngine::new(&clique).run_recorded(
            &Voter,
            &cfg,
            Placement::Shuffled,
            &RunOptions::with_max_rounds(25),
            41,
            &mut vrec,
        );
        assert_eq!(vrec.counter(Counter::SamplesDrawn), 600 * vr.rounds);

        // h-plurality counts through the one-node gather: still exactly h.
        let mut hrec = MetricsRecorder::new();
        let hr = AgentEngine::new(&clique).run_recorded(
            &HPlurality::new(5),
            &cfg,
            Placement::Shuffled,
            &RunOptions::with_max_rounds(25),
            43,
            &mut hrec,
        );
        assert_eq!(hrec.counter(Counter::SamplesDrawn), 5 * 600 * hr.rounds);
    }

    #[test]
    fn counters_identical_across_thread_counts() {
        use plurality_telemetry::{Counter, MetricsRecorder};
        let clique = Clique::new(9_000);
        let cfg = builders::biased(9_000, 4, 2_600);
        let d = ThreeMajority::new();
        let opts = RunOptions::with_max_rounds(400);
        let mut r1 = MetricsRecorder::new();
        let mut r4 = MetricsRecorder::new();
        AgentEngine::new(&clique)
            .with_chunk_size(1024)
            .run_recorded(&d, &cfg, Placement::Shuffled, &opts, 43, &mut r1);
        AgentEngine::new(&clique)
            .with_chunk_size(1024)
            .with_threads(4)
            .run_recorded(&d, &cfg, Placement::Shuffled, &opts, 43, &mut r4);
        for c in [Counter::Rounds, Counter::SamplesDrawn] {
            assert_eq!(r1.counter(c), r4.counter(c), "{}", c.name());
        }
    }

    #[test]
    fn trace_counts_match_population() {
        let clique = Clique::new(800);
        let engine = AgentEngine::new(&clique);
        let cfg = builders::biased(800, 3, 300);
        let d = ThreeMajority::new();
        let r = engine.run(
            &d,
            &cfg,
            Placement::Shuffled,
            &RunOptions::with_max_rounds(3_000).traced(),
            23,
        );
        let trace = r.trace.unwrap();
        for stats in &trace.rounds {
            assert_eq!(
                stats.plurality_count + stats.minority_mass + stats.extra_state_mass,
                800,
                "round {}",
                stats.round
            );
        }
    }
}
