//! Job specifications and the shared builders behind them.
//!
//! A [`JobSpec`] is the wire form of one experiment job: engine ×
//! dynamics × topology × exchange mode × failure scenario × stop rule.
//! The CLI's trial commands build one from their flags too, and both
//! surfaces run it through [`crate::exec::prepare`], which resolves it
//! with the builders here ([`build_dynamics`], [`auto_bias`]) — so a
//! spec gives bit-identical trajectories whether it runs through
//! `plurality gossip` or through the job server.  Topology construction
//! lives in `plurality_topology` ([`TopologySpec`]): the spec's
//! `"topology"` wire string is the shared `--topology` DSL, resolved
//! through [`JobSpec::topology_spec`].
//!
//! # Wire encoding
//!
//! Specs travel as JSON objects restricted to the workspace JSON subset
//! (`plurality_telemetry::json`): objects, arrays, strings, and
//! **unsigned integers**.  Fractional fields (`loss`, `noise`,
//! `fast-rate`, …) are therefore accepted either as integers or as
//! strings holding a decimal literal (`"loss":"0.02"`), and emitted as
//! strings.  Unknown keys are rejected — a typo should fail loudly, not
//! silently run the default experiment.

use plurality_core::{
    builders, Configuration, Dynamics, HPlurality, Median3, MedianOwn, TableD3, ThreeMajority,
    TwoChoices, TwoSample, UndecidedState, Voter,
};
use plurality_engine::{RunOptions, StopRule};
use plurality_gossip::{
    ChurnModel, ExchangeMode, FailureModel, InboxPolicy, NetworkConfig, Scheduler,
};
use plurality_telemetry::json::{escape, Json};
use plurality_topology::TopologySpec;

pub use plurality_topology::TOPOLOGY_SALT;

/// Which simulator executes the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Event-driven asynchronous gossip (`plurality gossip`).
    Gossip,
    /// Synchronous per-node agent engine.
    Agent,
    /// Synchronous mean-field engine (`plurality run`).
    MeanField,
}

impl EngineKind {
    /// Parse a wire name.
    pub fn from_name(name: &str) -> Result<Self, String> {
        match name {
            "gossip" => Ok(Self::Gossip),
            "agent" => Ok(Self::Agent),
            "mean-field" => Ok(Self::MeanField),
            other => Err(format!(
                "engine expects gossip|agent|mean-field, got '{other}'"
            )),
        }
    }

    /// Stable wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Gossip => "gossip",
            Self::Agent => "agent",
            Self::MeanField => "mean-field",
        }
    }
}

/// One experiment job, with the same fields (and semantics) as the CLI
/// flags.  Defaults are serving-sized (`n = 10_000`, `trials = 10`) —
/// smaller than the CLI's exploratory defaults, since a server job is
/// one of many.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Simulator to run.
    pub engine: EngineKind,
    /// Dynamics name (see [`build_dynamics`]).
    pub dynamics: String,
    /// Population size.
    pub n: u64,
    /// Number of colors.
    pub k: usize,
    /// Initial additive bias; `None` means the paper-threshold auto bias.
    pub bias: Option<u64>,
    /// Sample size for h-plurality.
    pub h: usize,
    /// Per-message noise for the noisy dynamics.
    pub noise: f64,
    /// Topology DSL string (the shared `--topology` grammar; see
    /// [`TopologySpec`]).
    pub topology: String,
    /// Default degree for a bare `random-regular` (an explicit
    /// `random-regular:d=…` parameter wins).
    pub degree: usize,
    /// Gossip exchange mode.
    pub mode: ExchangeMode,
    /// Gossip activation scheduler.
    pub scheduler: Scheduler,
    /// Baseline per-message loss probability.
    pub loss: f64,
    /// Baseline per-message delay probability.
    pub delay: f64,
    /// Structured failure scenario (the `--failure` DSL), if any.
    pub failure: Option<String>,
    /// Churn scenario (the `--churn` DSL; gossip engine only), if any.
    pub churn: Option<String>,
    /// Full-inbox policy for PUSH/PUSH-PULL.
    pub inbox_policy: InboxPolicy,
    /// Fraction of nodes activating at `fast_rate`.
    pub fast_frac: f64,
    /// Activation rate of the fast nodes.
    pub fast_rate: f64,
    /// Stamp sequential activations at rate-weighted time.
    pub rate_time: bool,
    /// Independent trials.
    pub trials: usize,
    /// Master seed (trial `i` derives stream `i`).
    pub seed: u64,
    /// Round / tick cap per trial.
    pub max_rounds: u64,
    /// Stop rule: consensus, or m-plurality with margin `m`.
    pub stop: StopRule,
    /// Wall-clock budget for the whole job in milliseconds; `None`
    /// (the default) means no limit.  A job that exceeds it reports a
    /// structured `timeout` error carrying how many trials completed.
    pub timeout_ms: Option<u64>,
    /// Worker threads for the agent engine's within-trial sharding
    /// (default 1).  Trajectories are **threads-invariant** (see
    /// `docs/DETERMINISM.md`), so this knob never enters a cache key:
    /// cached topologies resolve identically at any thread count.
    pub threads: usize,
}

impl Default for JobSpec {
    fn default() -> Self {
        Self {
            engine: EngineKind::Gossip,
            dynamics: "3-majority".to_string(),
            n: 10_000,
            k: 8,
            bias: None,
            h: 5,
            noise: 0.1,
            topology: "clique".to_string(),
            degree: 8,
            mode: ExchangeMode::Pull,
            scheduler: Scheduler::Sequential,
            loss: 0.0,
            delay: 0.0,
            failure: None,
            churn: None,
            inbox_policy: InboxPolicy::default(),
            fast_frac: 0.0,
            fast_rate: 1.0,
            rate_time: false,
            trials: 10,
            seed: 1,
            max_rounds: 1_000_000,
            stop: StopRule::Consensus,
            timeout_ms: None,
            threads: 1,
        }
    }
}

/// A fractional wire value: an unsigned integer or a string holding a
/// finite decimal literal.
fn json_f64(key: &str, v: &Json) -> Result<f64, String> {
    let x = match v {
        Json::Num(n) => *n as f64,
        Json::Str(s) => s
            .parse::<f64>()
            .map_err(|_| format!("{key}: bad decimal literal {s:?}"))?,
        _ => return Err(format!("{key}: expected a number or a decimal string")),
    };
    if !x.is_finite() {
        return Err(format!("{key}: must be finite"));
    }
    Ok(x)
}

fn json_u64(key: &str, v: &Json) -> Result<u64, String> {
    match v {
        Json::Num(n) => u64::try_from(*n).map_err(|_| format!("{key}: out of range")),
        _ => Err(format!("{key}: expected an unsigned integer")),
    }
}

fn json_usize(key: &str, v: &Json) -> Result<usize, String> {
    usize::try_from(json_u64(key, v)?).map_err(|_| format!("{key}: out of range"))
}

fn json_str<'v>(key: &str, v: &'v Json) -> Result<&'v str, String> {
    v.as_str()
        .ok_or_else(|| format!("{key}: expected a string"))
}

impl JobSpec {
    /// Parse a spec object (strict: unknown keys are errors, every field
    /// is validated with the same rules as the CLI flags).
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let fields = v.as_obj().ok_or("spec: expected an object")?;
        let mut spec = Self::default();
        for (key, val) in fields {
            match key.as_str() {
                "engine" => spec.engine = EngineKind::from_name(json_str(key, val)?)?,
                "dynamics" => spec.dynamics = json_str(key, val)?.to_string(),
                "n" => spec.n = json_u64(key, val)?,
                "k" => spec.k = json_usize(key, val)?,
                "bias" => {
                    spec.bias = match val {
                        Json::Str(s) if s == "auto" => None,
                        other => Some(json_u64(key, other)?),
                    }
                }
                "h" => spec.h = json_usize(key, val)?,
                "noise" => spec.noise = json_f64(key, val)?,
                "topology" => spec.topology = json_str(key, val)?.to_string(),
                "degree" => spec.degree = json_usize(key, val)?,
                "mode" => spec.mode = ExchangeMode::from_name(json_str(key, val)?)?,
                "scheduler" => spec.scheduler = Scheduler::from_name(json_str(key, val)?)?,
                "loss" => spec.loss = json_f64(key, val)?,
                "delay" => spec.delay = json_f64(key, val)?,
                "failure" => spec.failure = Some(json_str(key, val)?.to_string()),
                "churn" => spec.churn = Some(json_str(key, val)?.to_string()),
                "timeout-ms" => spec.timeout_ms = Some(json_u64(key, val)?),
                "threads" => spec.threads = json_usize(key, val)?,
                "inbox-policy" => spec.inbox_policy = InboxPolicy::from_name(json_str(key, val)?)?,
                "fast-frac" => spec.fast_frac = json_f64(key, val)?,
                "fast-rate" => spec.fast_rate = json_f64(key, val)?,
                "rate-time" => spec.rate_time = json_u64(key, val)? != 0,
                "trials" => spec.trials = json_usize(key, val)?,
                "seed" => spec.seed = json_u64(key, val)?,
                "max-rounds" => spec.max_rounds = json_u64(key, val)?,
                "stop" => {
                    let s = json_str(key, val)?;
                    spec.stop = if s == "consensus" {
                        StopRule::Consensus
                    } else if let Some(m) = s.strip_prefix("m-plurality=") {
                        StopRule::MPlurality(
                            m.parse()
                                .map_err(|_| format!("stop: bad margin in {s:?}"))?,
                        )
                    } else {
                        return Err(format!(
                            "stop expects 'consensus' or 'm-plurality=M', got '{s}'"
                        ));
                    };
                }
                other => return Err(format!("spec: unknown key {other:?}")),
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Range and combination checks, shared by the wire decoder, the CLI
    /// flags and [`crate::exec::prepare`].
    pub fn validate(&self) -> Result<(), String> {
        if let Some(b) = self.bias {
            if b > self.n {
                return Err(format!("bias {b} exceeds population {}", self.n));
            }
        }
        for (name, v) in [
            ("loss", self.loss),
            ("delay", self.delay),
            ("fast-frac", self.fast_frac),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} {v} out of [0, 1]"));
            }
        }
        if !(self.fast_rate.is_finite() && self.fast_rate > 0.0) {
            return Err(format!(
                "fast-rate {} must be finite and > 0",
                self.fast_rate
            ));
        }
        if self.trials == 0 {
            return Err("trials must be positive".into());
        }
        if self.n == 0 {
            return Err("n must be positive".into());
        }
        if self.k == 0 {
            return Err("k must be positive".into());
        }
        if self.dynamics == "h-plurality" && self.h == 0 {
            return Err("h must be positive for h-plurality".into());
        }
        let topology = self.topology_spec()?;
        if self.engine == EngineKind::MeanField && topology != TopologySpec::Clique {
            return Err(format!(
                "topology {topology} requires the agent or gossip engine (the \
                 mean-field engine models the clique only)"
            ));
        }
        if let Some(dsl) = &self.churn {
            if self.engine != EngineKind::Gossip {
                return Err(format!(
                    "churn requires the gossip engine, got '{}'",
                    self.engine.name()
                ));
            }
            if topology.is_implicit() {
                return Err(format!(
                    "churn is not supported on implicit topology '{topology}': the \
                     membership overlay needs indexed neighbor access, which implicit \
                     families cannot provide (pick clique, ring, torus, or random-regular)"
                ));
            }
            if self.has_node_rates() {
                return Err("churn cannot be combined with heterogeneous rates (fast-frac)".into());
            }
            ChurnModel::parse(dsl).map_err(|e| format!("churn: {e}"))?;
        }
        if self.timeout_ms == Some(0) {
            return Err("timeout-ms must be positive (omit it for no limit)".into());
        }
        if self.threads == 0 {
            return Err("threads must be positive".into());
        }
        if self.threads > 1 && self.engine != EngineKind::Agent {
            return Err(format!(
                "threads > 1 requires the agent engine, got '{}'",
                self.engine.name()
            ));
        }
        Ok(())
    }

    /// Serialize the spec as a wire object (inverse of
    /// [`Self::from_json`]; fractional fields become decimal strings).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str(&format!(
            "{{\"engine\":{},\"dynamics\":{},\"n\":{},\"k\":{}",
            escape(self.engine.name()),
            escape(&self.dynamics),
            self.n,
            self.k
        ));
        match self.bias {
            None => s.push_str(",\"bias\":\"auto\""),
            Some(b) => s.push_str(&format!(",\"bias\":{b}")),
        }
        s.push_str(&format!(
            ",\"h\":{},\"noise\":\"{}\",\"topology\":{},\"degree\":{}",
            self.h,
            self.noise,
            escape(&self.topology),
            self.degree
        ));
        s.push_str(&format!(
            ",\"mode\":{},\"scheduler\":{},\"loss\":\"{}\",\"delay\":\"{}\"",
            escape(self.mode.name()),
            escape(self.scheduler.name()),
            self.loss,
            self.delay
        ));
        if let Some(f) = &self.failure {
            s.push_str(&format!(",\"failure\":{}", escape(f)));
        }
        if let Some(c) = &self.churn {
            s.push_str(&format!(",\"churn\":{}", escape(c)));
        }
        if let Some(t) = self.timeout_ms {
            s.push_str(&format!(",\"timeout-ms\":{t}"));
        }
        if self.threads != 1 {
            s.push_str(&format!(",\"threads\":{}", self.threads));
        }
        s.push_str(&format!(
            ",\"inbox-policy\":{},\"fast-frac\":\"{}\",\"fast-rate\":\"{}\"",
            escape(&self.inbox_policy.label()),
            self.fast_frac,
            self.fast_rate
        ));
        if self.rate_time {
            s.push_str(",\"rate-time\":1");
        }
        let stop = match self.stop {
            StopRule::Consensus => "consensus".to_string(),
            StopRule::MPlurality(m) => format!("m-plurality={m}"),
        };
        s.push_str(&format!(
            ",\"trials\":{},\"seed\":{},\"max-rounds\":{},\"stop\":{}}}",
            self.trials,
            self.seed,
            self.max_rounds,
            escape(&stop)
        ));
        s
    }

    /// The bias this spec resolves to ([`auto_bias`] when unset).
    #[must_use]
    pub fn resolved_bias(&self) -> u64 {
        self.bias.unwrap_or_else(|| auto_bias(self.n, self.k))
    }

    /// The initial configuration this spec resolves to.
    #[must_use]
    pub fn configuration(&self) -> Configuration {
        builders::biased(self.n, self.k, self.resolved_bias())
    }

    /// The run options this spec resolves to.
    #[must_use]
    pub fn run_options(&self) -> RunOptions {
        let mut opts = RunOptions::with_max_rounds(self.max_rounds);
        opts.stop = self.stop;
        opts
    }

    /// The failure model this spec resolves to (`None` when only the
    /// uniform baseline `loss`/`delay` apply).
    pub fn failure_model(&self) -> Result<Option<FailureModel>, String> {
        match &self.failure {
            Some(dsl) => FailureModel::parse(dsl, NetworkConfig::new(self.delay, self.loss))
                .map(Some)
                .map_err(|e| format!("failure: {e}")),
            None => Ok(None),
        }
    }

    /// The churn model this spec resolves to (`None` when the
    /// population is static).
    pub fn churn_model(&self) -> Result<Option<ChurnModel>, String> {
        match &self.churn {
            Some(dsl) => ChurnModel::parse(dsl)
                .map(Some)
                .map_err(|e| format!("churn: {e}")),
            None => Ok(None),
        }
    }

    /// Number of fast nodes (`round(fast_frac · n)`), matching the CLI.
    #[must_use]
    pub fn fast_nodes(&self) -> usize {
        (self.fast_frac * self.n as f64).round() as usize
    }

    /// Whether the spec asks for heterogeneous activation rates.
    #[must_use]
    pub fn has_node_rates(&self) -> bool {
        self.fast_nodes() > 0 && self.fast_rate != 1.0
    }

    /// The parsed topology spec this job resolves to: the shared
    /// `--topology` grammar, with the legacy `"degree"` wire field
    /// feeding a bare `random-regular`'s default.
    pub fn topology_spec(&self) -> Result<TopologySpec, String> {
        TopologySpec::parse_with_degree(&self.topology, self.degree)
            .map_err(|e| format!("topology: {e}"))
    }

    /// Cache key identifying the topology this spec builds, derived
    /// from the canonical [`TopologySpec`] form (so spelling variants
    /// of one topology share a cache slot).  The random-regular wiring
    /// depends on the (salted) master seed, so the seed is part of that
    /// key — two seeds give two graphs, exactly as two CLI invocations
    /// would; construction-deterministic families get seed-free keys.
    ///
    /// # Panics
    /// Panics if the topology string does not parse — [`Self::validate`]
    /// (run on every wire decode) rejects such specs before any cache
    /// sees them.
    #[must_use]
    pub fn topology_key(&self) -> String {
        self.topology_spec()
            .expect("validated spec")
            .cache_key(self.n as usize, self.seed)
    }

    /// Cache key for the node-rate vector + alias sampler, when the spec
    /// has one.
    #[must_use]
    pub fn rates_key(&self) -> Option<String> {
        self.has_node_rates().then(|| {
            format!(
                "rates:n={}:fast={}:rate={}",
                self.n,
                self.fast_nodes(),
                self.fast_rate
            )
        })
    }

    /// Cache key for the per-edge `(loss, delay)` failure table under
    /// `model`, scoped to this spec's topology.
    #[must_use]
    pub fn edge_table_key(&self, model: &FailureModel) -> String {
        format!(
            "{}|loss={}|delay={}|{}",
            self.topology_key(),
            self.loss,
            self.delay,
            model.label()
        )
    }
}

/// The paper-threshold automatic bias the CLI uses for `--bias auto`:
/// `ceil(1.5 · sqrt(λ n ln n))` with `λ = min(2k, (n / ln n)^(1/3))`.
#[must_use]
pub fn auto_bias(n: u64, k: usize) -> u64 {
    let ln_n = (n as f64).ln();
    let lambda = (2.0 * k as f64).min((n as f64 / ln_n).cbrt());
    (1.5 * (lambda * n as f64 * ln_n).sqrt()).ceil() as u64
}

/// Construct a dynamics by wire name.  This is the CLI's `--dynamics`
/// registry — the CLI delegates here, so server jobs and CLI runs build
/// the same rule objects.
pub fn build_dynamics(
    name: &str,
    k: usize,
    h: usize,
    noise: f64,
) -> Result<Box<dyn Dynamics>, String> {
    Ok(match name {
        "noisy" => Box::new(plurality_core::NoisyThreeMajority::new(k, noise)),
        "3-majority" => Box::new(ThreeMajority::new()),
        "3-majority-uar" => Box::new(ThreeMajority::with_uniform_ties()),
        "h-plurality" => Box::new(HPlurality::new(h)),
        "voter" => Box::new(Voter),
        "2-sample" => Box::new(TwoSample),
        "2-choices" => Box::new(TwoChoices),
        "median" => Box::new(MedianOwn),
        "median3" => Box::new(Median3),
        "undecided" => Box::new(UndecidedState::new(k)),
        "d3-132" => Box::new(TableD3::lemma8_132()),
        "d3-141" => Box::new(TableD3::lemma8_141()),
        "d3-min" => Box::new(TableD3::min3()),
        "d3-anti" => Box::new(TableD3::anti_majority()),
        other => return Err(format!("unknown dynamics '{other}' (try 'plurality list')")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use plurality_telemetry::json;

    #[test]
    fn round_trips_through_wire_form() {
        let mut spec = JobSpec {
            engine: EngineKind::Gossip,
            dynamics: "undecided".into(),
            n: 4242,
            k: 3,
            bias: Some(99),
            noise: 0.25,
            topology: "random-regular".into(),
            degree: 6,
            mode: ExchangeMode::PushPull,
            scheduler: Scheduler::Poisson,
            loss: 0.125,
            delay: 0.5,
            failure: Some("ge:up=4,down=1,loss=0.9".into()),
            churn: Some("crash:0.02;rejoin:0.2,state=fresh;join:0.1,spare=8".into()),
            inbox_policy: InboxPolicy::from_name("ttl=2").unwrap(),
            // Churn refuses heterogeneous rates, so the fast nodes keep
            // unit rate until churn is cleared below.
            fast_frac: 0.25,
            rate_time: true,
            trials: 7,
            seed: 99,
            max_rounds: 5000,
            stop: StopRule::MPlurality(3),
            timeout_ms: Some(120_000),
            ..JobSpec::default()
        };
        let parsed = JobSpec::from_json(&json::parse(&spec.to_json()).unwrap()).unwrap();
        assert_eq!(parsed, spec);
        spec.bias = None;
        spec.failure = None;
        spec.churn = None;
        spec.fast_rate = 4.0;
        spec.timeout_ms = None;
        spec.rate_time = false;
        let parsed = JobSpec::from_json(&json::parse(&spec.to_json()).unwrap()).unwrap();
        assert_eq!(parsed, spec);
        // The threads knob round-trips (agent engine only).
        spec.engine = EngineKind::Agent;
        spec.threads = 4;
        let parsed = JobSpec::from_json(&json::parse(&spec.to_json()).unwrap()).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn defaults_and_strict_keys() {
        let spec = JobSpec::from_json(&json::parse("{}").unwrap()).unwrap();
        assert_eq!(spec, JobSpec::default());
        for bad in [
            r#"{"bogus":1}"#,
            r#"{"loss":"1.5"}"#,
            r#"{"fast-rate":"0"}"#,
            r#"{"trials":0}"#,
            r#"{"n":0}"#,
            r#"{"k":0}"#,
            r#"{"dynamics":"h-plurality","h":0}"#,
            r#"{"n":10,"bias":11}"#,
            r#"{"stop":"sometimes"}"#,
            r#"{"engine":"quantum"}"#,
            r#"{"churn":"crash:-1"}"#,
            r#"{"churn":"join:1"}"#,
            r#"{"engine":"agent","churn":"crash:0.1"}"#,
            r#"{"churn":"crash:0.1","fast-frac":"0.25","fast-rate":4}"#,
            r#"{"engine":"mean-field","topology":"ring"}"#,
            r#"{"timeout-ms":0}"#,
            r#"{"threads":0}"#,
            r#"{"engine":"gossip","threads":2}"#,
            r#"{"engine":"mean-field","threads":2}"#,
        ] {
            assert!(
                JobSpec::from_json(&json::parse(bad).unwrap()).is_err(),
                "accepted {bad}"
            );
        }
    }

    #[test]
    fn auto_bias_matches_cli_formula() {
        for (n, k) in [(1_000_000u64, 8usize), (10_000, 3), (500, 2)] {
            let ln_n = (n as f64).ln();
            let lambda = (2.0 * k as f64).min((n as f64 / ln_n).cbrt());
            let expect = (1.5 * (lambda * n as f64 * ln_n).sqrt()).ceil() as u64;
            assert_eq!(auto_bias(n, k), expect);
        }
    }

    #[test]
    fn cache_keys_separate_what_must_differ() {
        let a = JobSpec::default();
        let mut b = a.clone();
        b.seed = 2;
        // Clique wiring is seed-independent: same key.
        assert_eq!(a.topology_key(), b.topology_key());
        let mut c = a.clone();
        c.topology = "random-regular".into();
        let mut d = c.clone();
        d.seed = 2;
        assert_ne!(c.topology_key(), d.topology_key());
        assert!(a.rates_key().is_none());
        let mut e = a.clone();
        e.fast_frac = 0.5;
        e.fast_rate = 8.0;
        assert!(e.rates_key().is_some());
    }
}
