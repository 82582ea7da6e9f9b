//! Job execution: resolve a [`JobSpec`] against the [`StateCache`] once
//! ([`prepare`]), then run its trials ([`PreparedJob::run_trial`]),
//! streaming one row per trial.
//!
//! This is the only code that turns a spec into trials: the job server
//! and the CLI's `run`, `gossip`, `hist` and `zoo` commands all run
//! through it.  Each trial's seed depends on the spec and the trial index
//! alone:
//!
//! * gossip / agent — trial `i` runs with `derive_stream(seed, i)`;
//! * mean-field — trial `i` draws from `stream_rng(seed, i)`, the
//!   per-trial stream `MonteCarlo` hands trial `i`.
//!
//! A row is therefore a function of the spec and the trial index alone:
//! the server runs one job's trials on several workers at once, the CLI
//! fans them out over `MonteCarlo`'s threads, and [`run_job`] runs them
//! in order on the caller's thread, all with the same rows
//! (`tests/server_roundtrip.rs` pins them against direct engine calls).
//!
//! Cached topologies are passed as `&dyn Topology` borrowed from the
//! `Arc`, which preserves `as_any` downcasting and therefore the
//! monomorphized engine fast paths.

use crate::cache::{EdgeTable, Lookup, RatesEntry, StateCache};
use crate::spec::{build_dynamics, EngineKind, JobSpec};
use plurality_core::{Configuration, Dynamics};
use plurality_engine::{
    AgentEngine, MeanFieldEngine, Placement, RunOptions, StopReason, TrialResult,
};
use plurality_gossip::{
    ChurnModel, ExchangeMode, FailureModel, GossipEngine, GossipStats, InitPolicy, NetworkConfig,
    INBOX_CAP,
};
use plurality_sampling::{derive_stream, stream_rng};
use plurality_telemetry::{NoopRecorder, Recorder};
use plurality_topology::Topology;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a job did not run to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// Spec resolution or execution failed outright.
    Failed(String),
    /// Setup or a trial panicked (a bug, reported as `kind:"internal"`).
    Internal(String),
    /// The job exceeded its wall-clock budget (`timeout-ms`) mid-run.
    /// Rows for the `completed` trials were already streamed; the
    /// remaining trials never ran.
    Timeout {
        /// The budget from the spec, in milliseconds.
        limit_ms: u64,
        /// Trials that finished (and were streamed) before the cutoff.
        completed: usize,
    },
}

impl From<String> for JobError {
    fn from(msg: String) -> Self {
        Self::Failed(msg)
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Failed(msg) | Self::Internal(msg) => f.write_str(msg),
            Self::Timeout {
                limit_ms,
                completed,
            } => write!(
                f,
                "timed out after {limit_ms} ms ({completed} trials completed)"
            ),
        }
    }
}

/// One finished trial, as streamed back to the client.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRow {
    /// Trial index (`0..trials`).
    pub trial: usize,
    /// Rounds (synchronous engines) or completed ticks (gossip).
    pub rounds: u64,
    /// `true` when the trial stopped by rule rather than at the cap.
    pub converged: bool,
    /// Winning color, if the trial stopped with one.
    pub winner: Option<usize>,
    /// Whether the initial plurality color won.
    pub success: bool,
    /// Gossip side statistics (absent for the synchronous engines).
    pub gossip: Option<GossipStats>,
}

impl TrialRow {
    fn from_result(trial: usize, r: &TrialResult, gossip: Option<GossipStats>) -> Self {
        Self {
            trial,
            rounds: r.rounds,
            converged: r.reason == StopReason::Stopped,
            winner: r.winner,
            success: r.success,
            gossip,
        }
    }
}

/// How each cached artifact resolved for one job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobCacheReport {
    /// Topology lookup (always performed).
    pub topology: Option<Lookup>,
    /// Node-rate lookup (specs with heterogeneous rates only).
    pub rates: Option<Lookup>,
    /// Failure edge-table lookup (per-edge models on CSR only).
    pub edge_table: Option<Lookup>,
}

impl JobCacheReport {
    /// Total nanoseconds spent building state for this job.
    #[must_use]
    pub fn build_ns(&self) -> u64 {
        [self.topology, self.rates, self.edge_table]
            .iter()
            .flatten()
            .map(|l| l.build_ns)
            .sum()
    }

    /// Whether every lookup the job performed was a hit.
    #[must_use]
    pub fn all_hits(&self) -> bool {
        [self.topology, self.rates, self.edge_table]
            .iter()
            .flatten()
            .all(|l| l.hit)
    }
}

/// Summary of one completed job (the `done` line).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobOutcome {
    /// Trials executed.
    pub trials: usize,
    /// Trials that stopped by rule.
    pub converged: usize,
    /// Trials the initial plurality won.
    pub wins: usize,
    /// Cache resolution for this job.
    pub cache: JobCacheReport,
    /// Nanoseconds of the job's one setup ([`prepare`]).
    pub setup_ns: u64,
    /// Wall nanoseconds from the first trial's start to the last
    /// trial's end (less than the sum of trial times when trials run
    /// concurrently).
    pub run_ns: u64,
}

impl JobOutcome {
    /// Count one finished trial into `trials`, `converged` and `wins`.
    pub(crate) fn count(&mut self, row: &TrialRow) {
        self.trials += 1;
        self.converged += usize::from(row.converged);
        self.wins += usize::from(row.success);
    }
}

/// The engine a prepared job runs, holding the cached state it borrows.
enum Plan {
    Gossip(Box<GossipPlan>),
    Agent(Arc<dyn Topology>),
    MeanField,
}

/// A gossip engine's inputs beyond the spec's plain fields.
struct GossipPlan {
    topology: Arc<dyn Topology>,
    /// A structured failure model with its prebuilt edge table and
    /// Gilbert–Elliott slot count; `None` for the uniform baseline.
    failure: Option<(FailureModel, Option<EdgeTable>, Option<usize>)>,
    rates: Option<Arc<RatesEntry>>,
    churn: Option<ChurnModel>,
}

/// A job after its once-per-job setup: dynamics, initial configuration,
/// run options and the cached state its engine needs.  It is `Sync`, so
/// threads sharing one through an `Arc` may run its trials concurrently.
pub struct PreparedJob {
    spec: JobSpec,
    dynamics: Box<dyn Dynamics>,
    cfg: Configuration,
    opts: RunOptions,
    plan: Plan,
    cache: JobCacheReport,
    started: Instant,
    setup_ns: u64,
}

/// Refuse a gossip job whose rule the engine cannot run.  These are the
/// engine's own asserts, checked here so a spec meets them as an error
/// before any trial starts.
fn check_gossip_rule(
    spec: &JobSpec,
    dynamics: &dyn Dynamics,
    churn: Option<&ChurnModel>,
) -> Result<(), String> {
    if let Some(model) = churn {
        if model.uses_init()
            && model.init == InitPolicy::Undecided
            && dynamics.state_count(spec.k) == spec.k
        {
            return Err(format!(
                "churn init=undecided requires a dynamics with an undecided state \
                 (dynamics '{}' has none)",
                dynamics.name()
            ));
        }
    }
    if spec.mode == ExchangeMode::Push {
        if let Some(draws) = dynamics.leading_draws().filter(|&s| s > INBOX_CAP) {
            return Err(format!(
                "dynamics '{}' draws {draws} samples per update, more than \
                 INBOX_CAP = {INBOX_CAP}; mode push cannot serve it (use pull or push-pull)",
                dynamics.name()
            ));
        }
    }
    Ok(())
}

/// Set up `spec`: validate it, build its dynamics and configuration and
/// look up (building on a miss) every cached artifact it needs, once per
/// job.
pub fn prepare(spec: &JobSpec, cache: &StateCache) -> Result<PreparedJob, JobError> {
    let started = Instant::now();
    spec.validate()?;
    let dynamics = build_dynamics(&spec.dynamics, spec.k, spec.h, spec.noise)?;
    let cfg = spec.configuration();
    let opts = spec.run_options();
    let mut report = JobCacheReport::default();
    let plan = match spec.engine {
        EngineKind::Gossip => {
            let churn = spec.churn_model()?;
            check_gossip_rule(spec, dynamics.as_ref(), churn.as_ref())?;
            let (topology, lookup) = cache.topology(spec)?;
            report.topology = Some(lookup);
            let failure = spec.failure_model()?.map(|model| {
                let table = cache
                    .edge_table(spec, &model, &*topology)
                    .map(|(table, lookup)| {
                        report.edge_table = Some(lookup);
                        table
                    });
                let slots = GossipEngine::ge_slot_count(&model, &*topology);
                (model, table, slots)
            });
            let rates = cache.node_rates(spec).map(|(entry, lookup)| {
                report.rates = Some(lookup);
                entry
            });
            Plan::Gossip(Box::new(GossipPlan {
                topology,
                failure,
                rates,
                churn,
            }))
        }
        EngineKind::Agent => {
            let (topology, lookup) = cache.topology(spec)?;
            report.topology = Some(lookup);
            Plan::Agent(topology)
        }
        EngineKind::MeanField => Plan::MeanField,
    };
    Ok(PreparedJob {
        spec: spec.clone(),
        dynamics,
        cfg,
        opts,
        plan,
        cache: report,
        started,
        setup_ns: started.elapsed().as_nanos() as u64,
    })
}

impl PreparedJob {
    /// Trials the job runs.
    #[must_use]
    pub fn trials(&self) -> usize {
        self.spec.trials
    }

    /// The topology the job runs on; `None` for the mean-field engine,
    /// which models the clique.
    #[must_use]
    pub fn topology(&self) -> Option<&dyn Topology> {
        match &self.plan {
            Plan::Gossip(plan) => Some(&*plan.topology),
            Plan::Agent(topology) => Some(&**topology),
            Plan::MeanField => None,
        }
    }

    /// The job's dynamics.
    #[must_use]
    pub fn dynamics(&self) -> &dyn Dynamics {
        self.dynamics.as_ref()
    }

    /// The job's initial configuration.  Its bias can exceed the spec's
    /// by up to `k − 1`: `builders::biased` gives color 0 the remainder
    /// the other colors cannot split evenly.
    #[must_use]
    pub fn configuration(&self) -> &Configuration {
        &self.cfg
    }

    /// `Err(Timeout)` if the job's `timeout-ms` budget, counted from the
    /// start of its setup, has run out before trial `next` is handed out.
    /// Trial 0 always runs.
    pub(crate) fn over_budget(&self, next: usize) -> Result<(), JobError> {
        match self.spec.timeout_ms {
            Some(limit_ms)
                if next > 0 && self.started.elapsed() >= Duration::from_millis(limit_ms) =>
            {
                Err(JobError::Timeout {
                    limit_ms,
                    completed: next,
                })
            }
            _ => Ok(()),
        }
    }

    /// The `done` summary: the rows counted in `tally`, this job's one
    /// setup, and `run` as the wall time of its trials.
    #[must_use]
    pub(crate) fn outcome(&self, tally: JobOutcome, run: Duration) -> JobOutcome {
        JobOutcome {
            cache: self.cache,
            setup_ns: self.setup_ns,
            run_ns: run.as_nanos() as u64,
            ..tally
        }
    }

    /// Run trial `i` and return its row.
    #[must_use]
    pub fn run_trial(&self, i: usize) -> TrialRow {
        self.run_trial_recorded(i, &mut NoopRecorder)
    }

    /// [`Self::run_trial`] with a telemetry [`Recorder`].  The engine is
    /// assembled per call from the prepared state, which costs no cache
    /// lookup and consumes no randomness; recording never changes the
    /// row.
    pub fn run_trial_recorded<Rec: Recorder>(&self, i: usize, rec: &mut Rec) -> TrialRow {
        let spec = &self.spec;
        let dynamics = self.dynamics.as_ref();
        let seed = derive_stream(spec.seed, i as u64);
        match &self.plan {
            Plan::Gossip(plan) => {
                let GossipPlan {
                    topology,
                    failure,
                    rates,
                    churn,
                } = &**plan;
                let mut engine = GossipEngine::new(&**topology)
                    .with_mode(spec.mode)
                    .with_scheduler(spec.scheduler)
                    .with_inbox_policy(spec.inbox_policy);
                engine = match failure {
                    Some((model, table, slots)) => {
                        engine.with_prebuilt_failure_model(model.clone(), table.clone(), *slots)
                    }
                    None => engine.with_network(NetworkConfig::new(spec.delay, spec.loss)),
                };
                if let Some(entry) = rates {
                    engine = engine.with_prebuilt_node_rates(
                        Arc::clone(&entry.rates),
                        Arc::clone(&entry.rated),
                    );
                }
                if spec.rate_time {
                    engine = engine.with_rate_weighted_time(true);
                }
                if let Some(model) = churn {
                    engine = engine.with_churn_model(model.clone());
                }
                let (r, stats) = engine.run_recorded(
                    dynamics,
                    &self.cfg,
                    Placement::Shuffled,
                    &self.opts,
                    seed,
                    rec,
                );
                TrialRow::from_result(i, &r, Some(stats))
            }
            Plan::Agent(topology) => {
                let r = AgentEngine::new(&**topology)
                    .with_threads(spec.threads)
                    .run_recorded(
                        dynamics,
                        &self.cfg,
                        Placement::Shuffled,
                        &self.opts,
                        seed,
                        rec,
                    );
                TrialRow::from_result(i, &r, None)
            }
            Plan::MeanField => {
                let mut rng = stream_rng(spec.seed, i as u64);
                let r = MeanFieldEngine::new(dynamics)
                    .run_recorded(&self.cfg, &self.opts, None, &mut rng, rec);
                TrialRow::from_result(i, &r, None)
            }
        }
    }
}

/// Run one job on the caller's thread, calling `on_trial` with each
/// finished trial in order.
///
/// With `timeout_ms` set, the wall clock is checked **between** trials
/// (a trial is never interrupted mid-flight, and at least one always
/// completes); on expiry the job stops with [`JobError::Timeout`] — the
/// rows streamed so far stand.
pub fn run_job(
    spec: &JobSpec,
    cache: &StateCache,
    mut on_trial: impl FnMut(&TrialRow),
) -> Result<JobOutcome, JobError> {
    let job = prepare(spec, cache)?;
    let run_start = Instant::now();
    let mut tally = JobOutcome::default();
    for i in 0..job.trials() {
        job.over_budget(i)?;
        let row = job.run_trial(i);
        tally.count(&row);
        on_trial(&row);
    }
    Ok(job.outcome(tally, run_start.elapsed()))
}
