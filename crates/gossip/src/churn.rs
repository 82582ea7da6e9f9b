//! Dynamic membership (churn): Poisson join/crash/leave/rejoin processes
//! layered on top of a static base topology.
//!
//! The paper's model fixes the population for the whole run.  Real gossip
//! deployments don't get that luxury: machines **crash** (state lost,
//! in-flight traffic orphaned), **leave** gracefully, **rejoin** later —
//! either with their stale pre-departure color or wiped fresh — and brand
//! new nodes **join** and must adopt some initial opinion.  The paper's
//! own robustness theorem (Becchetti et al., SPAA 2014) bounds an
//! adversary corrupting `O(√n)` nodes per round; fresh-uniform rejoin
//! churn is the natural stochastic analogue of that adversary, which is
//! what experiment e18 probes for a phase boundary.
//!
//! # Model
//!
//! [`ChurnModel`] holds four per-tick Poisson rates:
//!
//! * `crash` — per **alive** node; the node's color mass leaves the
//!   tally, its inbox is flushed, and any queued commit or in-flight
//!   push to it is orphaned.
//! * `leave` — per alive node; identical mechanics to a crash (one
//!   simulated process cannot distinguish them) but tallied separately
//!   so experiments can attribute decay to failures vs. planned exits.
//! * `rejoin` — per **dead** node; the node re-enters either with its
//!   stale pre-departure color (`state=stale`, the default) or with a
//!   fresh color drawn by the configured [`InitPolicy`]
//!   (`state=fresh`).
//! * `join` — population-level (not per node); activates a node from
//!   the finite `spare` pool, attaches it to `attach` random alive
//!   anchors via overlay edges, and colors it by the [`InitPolicy`].
//!
//! All scheduling randomness comes from one dedicated per-trial stream
//! (stream 6; see `engine::STREAM_CHURN`), so enabling churn never
//! perturbs placement, scheduling, update, message, failure, or inbox
//! draws — and a model whose four rates are all zero is **bit-identical**
//! to no churn at all (pinned in `tests/determinism.rs`).
//!
//! # Scheduling
//!
//! Events are competing exponentials over the total rate
//! `R = (crash + leave)·alive + rejoin·dead + join·[spares > 0 ∧ alive > 0]`.
//! Only churn events change membership counts, so `R` is constant
//! between consecutive churn events and the next event time needs
//! rescheduling only after one fires.  The event *type* is picked
//! proportionally at fire time from a fresh uniform draw.

use crate::scheduler::exp1;
use plurality_sampling::Xoshiro256PlusPlus;
use plurality_topology::Membership;
use rand::Rng;

/// How an arriving node (fresh join, or rejoin with `state=fresh`)
/// chooses its initial color.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitPolicy {
    /// Uniform over the experiment's `k` initial colors — the
    /// adversarial choice: arrivals inject opinion mass against the
    /// plurality at rate `(k−1)/k`.
    #[default]
    FreshUniform,
    /// Copy the current color of a uniformly random **alive** node — the
    /// well-behaved choice: arrivals sample the present consensus
    /// distribution, so churn is (in expectation) drift-free.
    CopyRandomAlive,
    /// Start in the undecided state — only meaningful for dynamics with
    /// an undecided color (`undecided-state`); the engine rejects it
    /// otherwise.
    Undecided,
}

impl InitPolicy {
    /// Parse a DSL name: `uniform`, `copy`, or `undecided`.
    ///
    /// # Errors
    /// Returns the unknown name.
    pub fn from_name(name: &str) -> Result<Self, String> {
        match name {
            "uniform" => Ok(Self::FreshUniform),
            "copy" => Ok(Self::CopyRandomAlive),
            "undecided" => Ok(Self::Undecided),
            other => Err(format!(
                "unknown init policy '{other}' (expected 'uniform', 'copy', or 'undecided')"
            )),
        }
    }

    /// DSL name, round-trippable through [`Self::from_name`].
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::FreshUniform => "uniform",
            Self::CopyRandomAlive => "copy",
            Self::Undecided => "undecided",
        }
    }
}

/// Default number of overlay anchors a joining spare attaches to.
pub const DEFAULT_ATTACH: usize = 8;

/// The composed churn model — see the module docs for semantics.  Build
/// with [`ChurnModel::none`] plus the `with_*` layers, or parse the CLI
/// scenario DSL with [`ChurnModel::parse`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnModel {
    /// Crash rate per alive node per tick.
    pub crash: f64,
    /// Graceful-leave rate per alive node per tick.
    pub leave: f64,
    /// Rejoin rate per dead node per tick.
    pub rejoin: f64,
    /// Population-level join rate per tick (spares permitting).
    pub join: f64,
    /// Size of the spare pool joins draw from.
    pub spare: usize,
    /// Overlay anchors per join (≥ 1).
    pub attach: usize,
    /// Rejoining nodes redraw their color via `init` instead of keeping
    /// their stale pre-departure color.
    pub rejoin_fresh: bool,
    /// Initial-color policy for arrivals (joins, and rejoins when
    /// [`Self::rejoin_fresh`]).
    pub init: InitPolicy,
}

impl Default for ChurnModel {
    fn default() -> Self {
        Self::none()
    }
}

impl ChurnModel {
    /// The inert model: every rate zero, no spares.  Running with it is
    /// bit-identical to running without churn at all.
    #[must_use]
    pub fn none() -> Self {
        Self {
            crash: 0.0,
            leave: 0.0,
            rejoin: 0.0,
            join: 0.0,
            spare: 0,
            attach: DEFAULT_ATTACH,
            rejoin_fresh: false,
            init: InitPolicy::FreshUniform,
        }
    }

    /// Set the per-alive-node crash rate.
    #[must_use]
    pub fn with_crash(mut self, rate: f64) -> Self {
        self.crash = rate;
        self
    }

    /// Set the per-alive-node graceful-leave rate.
    #[must_use]
    pub fn with_leave(mut self, rate: f64) -> Self {
        self.leave = rate;
        self
    }

    /// Set the per-dead-node rejoin rate; `fresh` redraws the color via
    /// the init policy instead of restoring the stale one.
    #[must_use]
    pub fn with_rejoin(mut self, rate: f64, fresh: bool) -> Self {
        self.rejoin = rate;
        self.rejoin_fresh = fresh;
        self
    }

    /// Set the population-level join rate and the spare pool it draws
    /// from.
    #[must_use]
    pub fn with_join(mut self, rate: f64, spare: usize) -> Self {
        self.join = rate;
        self.spare = spare;
        self
    }

    /// Set the arrival init-color policy.
    #[must_use]
    pub fn with_init(mut self, init: InitPolicy) -> Self {
        self.init = init;
        self
    }

    /// Does any process have a positive rate?
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.crash > 0.0 || self.leave > 0.0 || self.rejoin > 0.0 || self.join > 0.0
    }

    /// Do arrivals take their color from [`Self::init`]?  Joins always
    /// do; rejoins only when [`Self::rejoin_fresh`].
    #[must_use]
    pub fn uses_init(&self) -> bool {
        self.join > 0.0 || (self.rejoin > 0.0 && self.rejoin_fresh)
    }

    /// Check rate/knob sanity (parse output is always valid; this guards
    /// hand-built models).
    ///
    /// # Errors
    /// Returns a description of the first bad knob.
    pub fn validate(&self) -> Result<(), String> {
        for (name, rate) in [
            ("crash", self.crash),
            ("leave", self.leave),
            ("rejoin", self.rejoin),
            ("join", self.join),
        ] {
            if !(rate.is_finite() && rate >= 0.0) {
                return Err(format!("{name}: rate {rate} must be finite and ≥ 0"));
            }
        }
        if self.attach == 0 {
            return Err("join: attach must be ≥ 1".into());
        }
        if self.join > 0.0 && self.spare == 0 {
            return Err("join: a positive join rate needs spare ≥ 1".into());
        }
        Ok(())
    }

    /// Parse the churn scenario DSL: semicolon-separated clauses, one
    /// per process (mirrors the `--failure` DSL).
    ///
    /// ```text
    /// crash:RATE                                    per alive node per tick
    /// leave:RATE                                    per alive node per tick
    /// rejoin:RATE[,state=stale|fresh]               per dead node per tick
    /// join:RATE[,spare=N][,attach=D][,init=uniform|copy|undecided]
    /// ```
    ///
    /// Example: `"crash:0.01;rejoin:0.1,state=fresh"`.
    ///
    /// # Errors
    /// Returns a description of the first malformed clause.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut model = Self::none();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (kind, rest) = clause
                .split_once(':')
                .ok_or_else(|| format!("clause '{clause}' is missing ':'"))?;
            match kind.trim() {
                "crash" => model.crash = parse_rate(rest, "crash rate")?,
                "leave" => model.leave = parse_rate(rest, "leave rate")?,
                "rejoin" => {
                    let mut rate = None;
                    for item in split_args(rest) {
                        match item.split_once('=') {
                            Some(("state", "stale")) => model.rejoin_fresh = false,
                            Some(("state", "fresh")) => model.rejoin_fresh = true,
                            Some(("state", v)) => {
                                return Err(format!(
                                    "rejoin: state must be 'stale' or 'fresh', got '{v}'"
                                ));
                            }
                            None => rate = Some(parse_rate(item, "rejoin rate")?),
                            _ => return Err(format!("rejoin: unknown item '{item}'")),
                        }
                    }
                    model.rejoin =
                        rate.ok_or_else(|| format!("rejoin: missing rate in '{rest}'"))?;
                }
                "join" => {
                    let mut rate = None;
                    for item in split_args(rest) {
                        match item.split_once('=') {
                            Some(("spare", v)) => {
                                model.spare = v.trim().parse::<usize>().map_err(|_| {
                                    format!("join: spare must be an integer, got '{v}'")
                                })?;
                            }
                            Some(("attach", v)) => {
                                model.attach = v.trim().parse::<usize>().map_err(|_| {
                                    format!("join: attach must be an integer, got '{v}'")
                                })?;
                            }
                            Some(("init", v)) => model.init = InitPolicy::from_name(v.trim())?,
                            None => rate = Some(parse_rate(item, "join rate")?),
                            _ => return Err(format!("join: unknown item '{item}'")),
                        }
                    }
                    model.join = rate.ok_or_else(|| format!("join: missing rate in '{rest}'"))?;
                }
                other => {
                    return Err(format!(
                        "unknown churn clause '{other}' (expected crash, leave, rejoin, or join)"
                    ));
                }
            }
        }
        model.validate()?;
        Ok(model)
    }

    /// Compact label for tables: clauses joined by `+`, or `none` when
    /// every rate is zero.
    #[must_use]
    pub fn label(&self) -> String {
        if !self.is_active() {
            return "none".to_string();
        }
        let mut parts = Vec::new();
        if self.crash > 0.0 {
            parts.push(format!("crash:{}", self.crash));
        }
        if self.leave > 0.0 {
            parts.push(format!("leave:{}", self.leave));
        }
        if self.rejoin > 0.0 {
            let state = if self.rejoin_fresh { "fresh" } else { "stale" };
            parts.push(format!("rejoin:{},state={state}", self.rejoin));
        }
        if self.join > 0.0 {
            parts.push(format!(
                "join:{},spare={},attach={},init={}",
                self.join,
                self.spare,
                self.attach,
                self.init.name()
            ));
        }
        parts.join("+")
    }
}

/// Which churn process fires next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChurnEvent {
    /// An alive node crashes (state lost, traffic orphaned).
    Crash,
    /// An alive node leaves gracefully (same mechanics, separate tally).
    Leave,
    /// A dead node re-enters (stale or fresh color per the model).
    Rejoin,
    /// A spare joins the population.
    Join,
}

/// Live per-trial churn process state: the model, its dedicated RNG
/// stream, and the scheduled next event time.
#[derive(Debug)]
pub(crate) struct ChurnState {
    model: ChurnModel,
    rng: Xoshiro256PlusPlus,
    next: f64,
}

impl ChurnState {
    /// Fresh state; call [`Self::schedule`] before the first use.
    pub(crate) fn new(model: ChurnModel, rng: Xoshiro256PlusPlus) -> Self {
        Self {
            model,
            rng,
            next: f64::INFINITY,
        }
    }

    /// The dedicated churn RNG, shared with arrival init-color draws so
    /// *all* churn randomness lives on one stream.
    pub(crate) fn rng_mut(&mut self) -> &mut Xoshiro256PlusPlus {
        &mut self.rng
    }

    /// Scheduled next event time (∞ when no process can fire).
    pub(crate) fn next_time(&self) -> f64 {
        self.next
    }

    /// Total event rate under the current membership counts.
    fn total_rate(&self, membership: &Membership) -> f64 {
        let alive = membership.alive_count() as f64;
        let dead = membership.dead_count() as f64;
        let mut r = (self.model.crash + self.model.leave) * alive + self.model.rejoin * dead;
        if self.model.join > 0.0 && membership.spares_left() > 0 && membership.alive_count() > 0 {
            r += self.model.join;
        }
        r
    }

    /// (Re)schedule the next event from `now`.  Correct to call only
    /// after membership changes: the total rate is constant in between,
    /// so the exponential gap drawn here stays valid until the event
    /// fires.
    pub(crate) fn schedule(&mut self, now: f64, membership: &Membership) {
        let r = self.total_rate(membership);
        self.next = if r > 0.0 {
            now + exp1(&mut self.rng) / r
        } else {
            f64::INFINITY
        };
    }

    /// Pick which process fires, proportionally to the per-process rates
    /// at the current membership counts (unchanged since
    /// [`Self::schedule`] — only churn events mutate membership).
    /// Returns `None` if every rate has collapsed to zero.
    pub(crate) fn pick(&mut self, membership: &Membership) -> Option<ChurnEvent> {
        let r = self.total_rate(membership);
        if r <= 0.0 {
            return None;
        }
        let alive = membership.alive_count() as f64;
        let dead = membership.dead_count() as f64;
        let mut u = self.rng.gen::<f64>() * r;
        u -= self.model.crash * alive;
        if u < 0.0 {
            return Some(ChurnEvent::Crash);
        }
        u -= self.model.leave * alive;
        if u < 0.0 {
            return Some(ChurnEvent::Leave);
        }
        u -= self.model.rejoin * dead;
        if u < 0.0 {
            return Some(ChurnEvent::Rejoin);
        }
        Some(ChurnEvent::Join)
    }
}

fn parse_rate(s: &str, what: &str) -> Result<f64, String> {
    let v = s
        .trim()
        .parse::<f64>()
        .map_err(|_| format!("{what}: expected a number, got '{s}'"))?;
    if v.is_finite() && v >= 0.0 {
        Ok(v)
    } else {
        Err(format!("{what}: {v} must be finite and ≥ 0"))
    }
}

/// Split a clause body on top-level commas (future-proof against
/// parenthesised values, same contract as the failure DSL's splitter).
fn split_args(rest: &str) -> Vec<&str> {
    let mut items = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in rest.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                items.push(rest[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    items.push(rest[start..].trim());
    items.retain(|s| !s.is_empty());
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use plurality_sampling::stream_rng;

    #[test]
    fn parse_full_spec() {
        let m = ChurnModel::parse(
            "crash:0.01;leave:0.005;rejoin:0.1,state=fresh;join:0.2,spare=32,attach=4,init=copy",
        )
        .unwrap();
        assert_eq!(m.crash, 0.01);
        assert_eq!(m.leave, 0.005);
        assert_eq!(m.rejoin, 0.1);
        assert!(m.rejoin_fresh);
        assert_eq!(m.join, 0.2);
        assert_eq!(m.spare, 32);
        assert_eq!(m.attach, 4);
        assert_eq!(m.init, InitPolicy::CopyRandomAlive);
        assert!(m.is_active());
    }

    #[test]
    fn parse_defaults_and_empty() {
        let m = ChurnModel::parse("").unwrap();
        assert_eq!(m, ChurnModel::none());
        assert!(!m.is_active());
        assert_eq!(m.label(), "none");
        let m = ChurnModel::parse("rejoin:0.5").unwrap();
        assert!(!m.rejoin_fresh, "stale is the rejoin default");
        let m = ChurnModel::parse("join:1,spare=8").unwrap();
        assert_eq!(m.attach, DEFAULT_ATTACH);
        assert_eq!(m.init, InitPolicy::FreshUniform);
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "crash",
            "crash:x",
            "crash:-1",
            "crash:inf",
            "flood:1",
            "rejoin:0.1,state=weird",
            "rejoin:state=fresh",
            "join:1,spare=8,init=psychic",
            "join:1,spare=-3",
            "join:1", // positive join rate without spares
            "join:1,spare=8,attach=0",
        ] {
            assert!(ChurnModel::parse(bad).is_err(), "accepted '{bad}'");
        }
    }

    #[test]
    fn labels_describe_active_clauses() {
        let m = ChurnModel::parse("crash:0.01;rejoin:0.1,state=fresh").unwrap();
        assert_eq!(m.label(), "crash:0.01+rejoin:0.1,state=fresh");
        let m = ChurnModel::parse("join:0.2,spare=8").unwrap();
        assert_eq!(m.label(), "join:0.2,spare=8,attach=8,init=uniform");
    }

    #[test]
    fn init_policy_names_roundtrip() {
        for p in [
            InitPolicy::FreshUniform,
            InitPolicy::CopyRandomAlive,
            InitPolicy::Undecided,
        ] {
            assert_eq!(InitPolicy::from_name(p.name()).unwrap(), p);
        }
        assert!(InitPolicy::from_name("majority").is_err());
    }

    #[test]
    fn scheduling_is_deterministic_and_rate_scaled() {
        let model = ChurnModel::parse("crash:0.5;rejoin:1").unwrap();
        let membership = Membership::new(100, 0);
        let mut a = ChurnState::new(model.clone(), stream_rng(7, 6));
        let mut b = ChurnState::new(model, stream_rng(7, 6));
        a.schedule(0.0, &membership);
        b.schedule(0.0, &membership);
        assert_eq!(a.next_time(), b.next_time(), "same stream, same gap");
        assert!(a.next_time() > 0.0 && a.next_time().is_finite());
        assert_eq!(a.pick(&membership), b.pick(&membership));
        // All-zero rates never fire.
        let mut idle = ChurnState::new(ChurnModel::none(), stream_rng(7, 6));
        idle.schedule(0.0, &membership);
        assert_eq!(idle.next_time(), f64::INFINITY);
        assert_eq!(idle.pick(&membership), None);
    }

    #[test]
    fn pick_tracks_membership_composition() {
        // With everyone alive, a crash-only model can only pick Crash;
        // after the population dies, only Rejoin has mass.
        let model = ChurnModel::parse("crash:1;rejoin:1").unwrap();
        let mut membership = Membership::new(10, 0);
        let mut st = ChurnState::new(model, stream_rng(3, 6));
        let mut aux = stream_rng(99, 0);
        assert_eq!(st.pick(&membership), Some(ChurnEvent::Crash));
        for _ in 0..10 {
            membership.crash_random(&mut aux);
        }
        assert_eq!(membership.alive_count(), 0);
        assert_eq!(st.pick(&membership), Some(ChurnEvent::Rejoin));
    }

    #[test]
    fn join_requires_spares_and_an_anchor() {
        let model = ChurnModel::parse("join:5,spare=4").unwrap();
        let membership = Membership::new(10, 4);
        let mut st = ChurnState::new(model.clone(), stream_rng(1, 6));
        assert_eq!(st.pick(&membership), Some(ChurnEvent::Join));
        // Exhausted spare pool: the join term drops out of the total
        // rate and the model goes quiet.
        let empty_pool = Membership::new(10, 0);
        let mut st = ChurnState::new(model, stream_rng(1, 6));
        st.schedule(0.0, &empty_pool);
        assert_eq!(st.next_time(), f64::INFINITY);
        assert_eq!(st.pick(&empty_pool), None);
    }
}
