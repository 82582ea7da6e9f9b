//! Metric identifiers and the [`Recorder`] abstraction.
//!
//! Engines are generic over `R: Recorder`.  The two implementations are
//! [`NoopRecorder`] — every method an empty `#[inline(always)]` body, so
//! monomorphized engine cores compile the instrumentation away entirely —
//! and [`MetricsRecorder`] — dense arrays indexed by the metric enums, so
//! an enabled hot-path event costs one array add.
//!
//! Call sites that must *compute* something before recording (a
//! timestamp, a queue depth) gate on the associated const:
//!
//! ```
//! use plurality_telemetry::{Hist, NoopRecorder, Recorder};
//! fn observe_depth<R: Recorder>(rec: &mut R, depth: usize) {
//!     if R::ENABLED {
//!         rec.observe(Hist::QueueDepth, depth as u64);
//!     }
//! }
//! observe_depth(&mut NoopRecorder, 3); // compiles to nothing
//! ```

use crate::histogram::LogHistogram;
use crate::report::MetricsReport;
use std::time::Instant;

macro_rules! metric_enum {
    ($(#[$m:meta])* $name:ident { $($(#[$vm:meta])* $variant:ident => $label:literal,)+ }) => {
        $(#[$m])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $name { $($(#[$vm])* $variant,)+ }

        impl $name {
            /// Number of variants.
            pub const COUNT: usize = [$($name::$variant),+].len();
            /// Every variant, in declaration order.
            pub const ALL: [$name; Self::COUNT] = [$($name::$variant),+];

            /// Stable snake-case label (the JSONL key).
            #[must_use]
            pub const fn name(self) -> &'static str {
                match self { $($name::$variant => $label),+ }
            }

            /// Dense index in declaration order.
            #[must_use]
            pub const fn idx(self) -> usize {
                self as usize
            }
        }
    };
}

metric_enum! {
    /// Monotonic event counters.
    ///
    /// The gossip counters obey exact conservation laws (pinned by the
    /// reconciliation proptests):
    ///
    /// * `pull_sent == pull_delivered + pull_lost` (delayed ⊆ delivered);
    /// * `push_sent == push_delivered + push_lost`;
    /// * `pull_lost + push_lost == Σ lost_*` over the seven failure
    ///   layers (including `lost_dead_peer` under churn);
    /// * `inbox_offered == inbox_accepted + inbox_evicted_newest` (a
    ///   drop-newest rejection is the only way an offer is not accepted);
    /// * `inbox_accepted == inbox_served + inbox_expired_ttl +
    ///   inbox_evicted_oldest + inbox_evicted_random +
    ///   inbox_cleared_churn + inbox_resident_at_stop` (every accepted
    ///   entry leaves the buffer exactly once, or is resident at stop —
    ///   the gauge);
    /// * `push_delivered == inbox_offered + orphaned_pushes +
    ///   push_in_flight_at_stop` (a delayed push scheduled for a node
    ///   that departs before it lands is orphaned, never offered).
    Counter {
        /// Node activations processed by the gossip event loop.
        Activations => "activations",
        /// PULL sample requests issued (one per sample the rule draws).
        PullSent => "pull_sent",
        /// PULL responses that arrive (instantly or late).
        PullDelivered => "pull_delivered",
        /// PULL responses that arrive late (subset of delivered).
        PullDelayed => "pull_delayed",
        /// PULL responses dropped by the network (requester falls back
        /// to its own color).
        PullLost => "pull_lost",
        /// Push payloads sent (PUSH activations and PUSH-PULL push legs).
        PushSent => "push_sent",
        /// Push payloads scheduled to reach the peer's inbox.
        PushDelivered => "push_delivered",
        /// Push payloads that arrive late (subset of delivered).
        PushDelayed => "push_delayed",
        /// Push payloads dropped by the network.
        PushLost => "push_lost",
        /// Drops attributed to the uniform baseline loss coin.
        LostBaseline => "lost_baseline",
        /// Drops attributed to per-edge loss parameters.
        LostPerEdge => "lost_per_edge",
        /// Drops attributed to a timed degradation window.
        LostWindow => "lost_window",
        /// Drops attributed to a Gilbert–Elliott bad state.
        LostGeChain => "lost_ge_chain",
        /// Drops attributed to a node outage.
        LostOutage => "lost_outage",
        /// Drops attributed to a partition cut.
        LostPartition => "lost_partition",
        /// Drops attributed to the dead-peer redraw budget running out
        /// (churn): every redraw hit a departed node.
        LostDeadPeer => "lost_dead_peer",
        /// Push payloads that reached a peer inbox (accepted or evicting).
        InboxOffered => "inbox_offered",
        /// Push payloads accepted into an inbox.
        InboxAccepted => "inbox_accepted",
        /// Inbox entries evicted by the drop-oldest policy.
        InboxEvictedOldest => "inbox_evicted_oldest",
        /// Arrivals rejected by the drop-newest policy.
        InboxEvictedNewest => "inbox_evicted_newest",
        /// Inbox entries evicted by the random-replace policy.
        InboxEvictedRandom => "inbox_evicted_random",
        /// Inbox entries dropped by TTL expiry.
        InboxExpiredTtl => "inbox_expired_ttl",
        /// Inbox entries consumed as samples.
        InboxServed => "inbox_served",
        /// PUSH activations skipped because the inbox could not answer
        /// every sample.
        StarvedActivations => "starved_activations",
        /// Delayed recolor commits cancelled by a later activation.
        SupersededCommits => "superseded_commits",
        /// Recolor commits applied to the state vector.
        CommitsApplied => "commits_applied",
        /// Churn: spares joined into the alive set.
        ChurnJoins => "churn_joins",
        /// Churn: alive nodes crashed.
        ChurnCrashes => "churn_crashes",
        /// Churn: alive nodes that departed gracefully.
        ChurnLeaves => "churn_leaves",
        /// Churn: dead members that rejoined.
        ChurnRejoins => "churn_rejoins",
        /// Pending recolor commits cancelled because their node
        /// departed before they fired.
        OrphanedCommits => "orphaned_commits",
        /// In-flight pushed colors discarded because their target
        /// departed before they landed.
        OrphanedPushes => "orphaned_pushes",
        /// Neighbor draws that hit a dead peer and were redrawn.
        DeadPeerSamples => "dead_peer_samples",
        /// Activation-clock draws skipped because the node was dead
        /// (Poisson thinning under churn).
        DeadActivationsSkipped => "dead_activations_skipped",
        /// Buffered inbox colors discarded when their node departed.
        InboxClearedChurn => "inbox_cleared_churn",
        /// Events pushed onto the scheduler queue.
        QueuePushed => "queue_pushed",
        /// Stale (lazily cancelled) events skipped at pop time.
        QueueSkippedStale => "queue_skipped_stale",
        /// Neighbor samples drawn by the agent engine.
        SamplesDrawn => "samples_drawn",
        /// Synchronous rounds executed by the agent engine.
        Rounds => "rounds",
        /// Jobs accepted by the simulation job server.
        JobsAccepted => "jobs_accepted",
        /// Jobs the server ran to completion.
        JobsCompleted => "jobs_completed",
        /// Jobs rejected or failed by the server (bad spec, engine
        /// error, timeout, or panic).
        JobsFailed => "jobs_failed",
        /// Jobs aborted by their per-job wall-clock timeout (also
        /// counted in `jobs_failed`).
        JobsTimedOut => "jobs_timed_out",
        /// Jobs whose setup or a trial panicked on a server worker
        /// (also counted in `jobs_failed`).
        JobsPanicked => "jobs_panicked",
        /// Server prebuilt-state cache lookups that found an entry.
        CacheHits => "cache_hits",
        /// Server prebuilt-state cache lookups that had to build.
        CacheMisses => "cache_misses",
        /// Trials executed across all server jobs.
        TrialsRun => "trials_run",
    }
}

metric_enum! {
    /// Point-in-time values, set once (usually at stop).  Merging trial
    /// reports *sums* gauges, so per-trial residuals aggregate into
    /// fleet-level residuals for reconciliation.
    Gauge {
        /// Live events left in the scheduler queue at stop.
        QueueLenAtStop => "queue_len_at_stop",
        /// Colors resident in inboxes at stop.
        InboxResidentAtStop => "inbox_resident_at_stop",
        /// Push payloads scheduled but not yet arrived at stop.
        PushInFlightAtStop => "push_in_flight_at_stop",
        /// Whole ticks completed when the run stopped.
        CompletedTicks => "completed_ticks",
        /// Final simulation time, fixed-point ticks (×1024).
        FinalTimeFp => "final_time_fp",
    }
}

metric_enum! {
    /// Log-bucketed value distributions.  `*_fp` histograms hold ticks in
    /// ×1024 fixed point (see [`crate::histogram::TICK_FP`]).
    Hist {
        /// Extra delivery delay of delayed payloads, fixed-point ticks.
        DelayExtraFp => "delay_extra_fp",
        /// Inbox occupancy observed as each push payload arrives.
        InboxOccupancy => "inbox_occupancy",
        /// Age of inbox colors when served, fixed-point ticks.
        InboxStalenessFp => "inbox_staleness_fp",
        /// Scheduler queue depth observed at each activation.
        QueueDepth => "queue_depth",
        /// Wall-clock per agent-engine round, nanoseconds.
        RoundWallNanos => "round_wall_ns",
        /// Leading-color occupancy per agent-engine round.
        LeaderOccupancy => "leader_occupancy",
        /// Wall-clock per server job (spec parse to done line), ns.
        JobWallNanos => "job_wall_ns",
        /// Wall-clock building prebuilt state on a cache miss, ns.
        StateBuildNanos => "state_build_ns",
    }
}

metric_enum! {
    /// Coarse phases for wall-clock attribution.
    Phase {
        /// Placement, topology caches, per-edge parameter tables.
        Setup => "setup",
        /// The event loop / round loop.
        Run => "run",
        /// Trace finishing and stats assembly.
        Finalize => "finalize",
    }
}

/// A metrics sink.  See the module docs for the zero-cost contract.
pub trait Recorder {
    /// Whether this recorder keeps anything (`false` for
    /// [`NoopRecorder`]).  Gate *computations* feeding a record call on
    /// this; the record calls themselves are free when disabled.
    const ENABLED: bool;

    /// Add `by` to a counter.
    fn add(&mut self, c: Counter, by: u64);

    /// Increment a counter by one.
    #[inline(always)]
    fn incr(&mut self, c: Counter) {
        self.add(c, 1);
    }

    /// Set a gauge to `v`.
    fn gauge_set(&mut self, g: Gauge, v: u64);

    /// Record `v` into a histogram.
    fn observe(&mut self, h: Hist, v: u64);

    /// Start (or restart) a phase stopwatch.
    fn phase_start(&mut self, p: Phase);

    /// Stop a phase stopwatch, accumulating its elapsed nanoseconds.
    fn phase_end(&mut self, p: Phase);
}

/// The disabled recorder: a zero-sized type whose every method is an
/// empty inline body.  Engine cores monomorphized over it are
/// instruction-identical to uninstrumented code, which is what keeps the
/// golden traces bit-identical and the hot-path benches at parity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn add(&mut self, _c: Counter, _by: u64) {}

    #[inline(always)]
    fn gauge_set(&mut self, _g: Gauge, _v: u64) {}

    #[inline(always)]
    fn observe(&mut self, _h: Hist, _v: u64) {}

    #[inline(always)]
    fn phase_start(&mut self, _p: Phase) {}

    #[inline(always)]
    fn phase_end(&mut self, _p: Phase) {}
}

/// The enabled recorder: dense per-metric arrays.
#[derive(Debug, Clone)]
pub struct MetricsRecorder {
    counters: [u64; Counter::COUNT],
    gauges: [u64; Gauge::COUNT],
    hists: Vec<LogHistogram>,
    phase_ns: [u64; Phase::COUNT],
    phase_started: [Option<Instant>; Phase::COUNT],
}

impl Default for MetricsRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRecorder {
    /// New empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counters: [0; Counter::COUNT],
            gauges: [0; Gauge::COUNT],
            hists: vec![LogHistogram::new(); Hist::COUNT],
            phase_ns: [0; Phase::COUNT],
            phase_started: [None; Phase::COUNT],
        }
    }

    /// Current value of a counter.
    #[must_use]
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.idx()]
    }

    /// Current value of a gauge.
    #[must_use]
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g.idx()]
    }

    /// Borrow a histogram.
    #[must_use]
    pub fn hist(&self, h: Hist) -> &LogHistogram {
        &self.hists[h.idx()]
    }

    /// Accumulated nanoseconds for a phase.
    #[must_use]
    pub fn phase_nanos(&self, p: Phase) -> u64 {
        self.phase_ns[p.idx()]
    }

    /// Snapshot into a mergeable, serializable [`MetricsReport`].
    #[must_use]
    pub fn report(&self) -> MetricsReport {
        MetricsReport::from_recorder(self)
    }
}

impl Recorder for MetricsRecorder {
    const ENABLED: bool = true;

    #[inline]
    fn add(&mut self, c: Counter, by: u64) {
        self.counters[c.idx()] += by;
    }

    #[inline]
    fn gauge_set(&mut self, g: Gauge, v: u64) {
        self.gauges[g.idx()] = v;
    }

    #[inline]
    fn observe(&mut self, h: Hist, v: u64) {
        self.hists[h.idx()].record(v);
    }

    fn phase_start(&mut self, p: Phase) {
        self.phase_started[p.idx()] = Some(Instant::now());
    }

    fn phase_end(&mut self, p: Phase) {
        if let Some(t0) = self.phase_started[p.idx()].take() {
            self.phase_ns[p.idx()] += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_and_snake_case() {
        fn check(labels: &[&str]) {
            let mut seen = std::collections::HashSet::new();
            for l in labels {
                assert!(seen.insert(*l), "duplicate label {l}");
                assert!(
                    l.chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                    "label {l} not snake_case"
                );
            }
        }
        check(&Counter::ALL.map(Counter::name));
        check(&Gauge::ALL.map(Gauge::name));
        check(&Hist::ALL.map(Hist::name));
        check(&Phase::ALL.map(Phase::name));
    }

    #[test]
    fn indices_are_dense_and_ordered() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.idx(), i);
        }
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(h.idx(), i);
        }
    }

    #[test]
    fn recorder_accumulates() {
        let mut r = MetricsRecorder::new();
        r.incr(Counter::Activations);
        r.add(Counter::Activations, 4);
        r.gauge_set(Gauge::CompletedTicks, 9);
        r.gauge_set(Gauge::CompletedTicks, 11);
        r.observe(Hist::QueueDepth, 3);
        r.observe(Hist::QueueDepth, 300);
        assert_eq!(r.counter(Counter::Activations), 5);
        assert_eq!(r.gauge(Gauge::CompletedTicks), 11);
        assert_eq!(r.hist(Hist::QueueDepth).count(), 2);
        assert_eq!(r.counter(Counter::PullSent), 0);
    }

    #[test]
    fn phase_timer_accumulates() {
        let mut r = MetricsRecorder::new();
        r.phase_start(Phase::Run);
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.phase_end(Phase::Run);
        let first = r.phase_nanos(Phase::Run);
        assert!(first >= 1_000_000, "slept 2ms, measured {first}ns");
        // End without start is a no-op; a second interval adds.
        r.phase_end(Phase::Run);
        assert_eq!(r.phase_nanos(Phase::Run), first);
        r.phase_start(Phase::Run);
        r.phase_end(Phase::Run);
        assert!(r.phase_nanos(Phase::Run) >= first);
    }

    #[test]
    fn noop_recorder_is_zero_sized_and_disabled() {
        assert_eq!(std::mem::size_of::<NoopRecorder>(), 0);
        const { assert!(!NoopRecorder::ENABLED) };
        const { assert!(MetricsRecorder::ENABLED) };
        let mut n = NoopRecorder;
        n.incr(Counter::Activations);
        n.observe(Hist::QueueDepth, 1);
        n.phase_start(Phase::Setup);
        n.phase_end(Phase::Setup);
    }
}
