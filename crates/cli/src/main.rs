//! `plurality` — command-line runner for the plurality-consensus
//! simulators.
//!
//! ```text
//! plurality run   --dynamics 3-majority --n 1000000 --k 8 --bias auto --trials 50
//! plurality trace --dynamics undecided  --n 100000  --k 4 --bias 20000
//! plurality zoo   --n 100000 --k 3 --bias 5000 --trials 100
//! plurality list
//! ```
//!
//! `run` measures convergence statistics over many trials, `trace` prints
//! one full trajectory, `zoo` compares every dynamics on one start, and
//! `list` shows the available dynamics names.

mod args;

use args::Args;
use plurality_analysis::{fmt_f64, wilson, Summary, Table};
use plurality_core::builders;
use plurality_engine::{MeanFieldEngine, MonteCarlo, TraceLevel};
use plurality_gossip::GossipStats;
use plurality_sampling::stream_rng;
use plurality_server::{prepare, EngineKind, JobSpec, PreparedJob, StateCache, TrialRow};
use plurality_telemetry::{MetricsRecorder, MetricsReport};

const VALUE_OPTS: &[&str] = &[
    "dynamics",
    "n",
    "k",
    "bias",
    "trials",
    "max-rounds",
    "seed",
    "threads",
    "h",
    "noise",
    "bins",
    "loss",
    "delay",
    "failure",
    "churn",
    "timeout-ms",
    "inbox-policy",
    "scheduler",
    "mode",
    "fast-frac",
    "fast-rate",
    "topology",
    "degree",
    "metrics",
    "metrics-out",
    "addr",
    "workers",
    "engine",
    "freq",
    "secs",
    "probe",
    "attempts",
    "bench-out",
];
const FLAG_OPTS: &[&str] = &["help", "quiet", "rate-time", "smoke", "shutdown"];

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match Args::parse(raw, VALUE_OPTS, FLAG_OPTS) {
        Ok(p) => p,
        Err(e) => die(&format!("{e}")),
    };
    if parsed.flag("help") || parsed.positional().is_empty() {
        usage();
        return;
    }
    let command = parsed.positional()[0].clone();
    let result = match command.as_str() {
        "run" => cmd_run(&parsed),
        "trace" => cmd_trace(&parsed),
        "zoo" => cmd_zoo(&parsed),
        "hist" => cmd_hist(&parsed),
        "exact" => cmd_exact(&parsed),
        "gossip" => cmd_gossip(&parsed),
        "serve" => cmd_serve(&parsed),
        "bench-client" => cmd_bench_client(&parsed),
        "experiment" => cmd_experiment(&parsed),
        "list" => {
            list_dynamics();
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    if let Err(e) = result {
        die(&e);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n");
    usage();
    std::process::exit(2);
}

fn usage() {
    eprintln!(
        "plurality — simple dynamics for plurality consensus (Becchetti et al., SPAA'14)\n\
         \n\
         commands:\n\
         \x20 run    measure convergence over --trials independent runs\n\
         \x20 trace  print one traced trajectory round by round\n\
         \x20 zoo    compare all dynamics from the same start\n\
         \x20 hist   ASCII histogram of rounds-to-consensus over --trials runs\n\
         \x20 exact  exact absorption analysis at small n (ground truth)\n\
         \x20 gossip asynchronous gossip simulation with message --delay / --loss\n\
         \x20 serve  long-running job server: NDJSON job specs over TCP, streamed results\n\
         \x20 bench-client  open-loop load driver for 'serve' (--freq jobs/s for --secs)\n\
         \x20 experiment  run registry experiments by id (e01..e18); --smoke for test scale\n\
         \x20 list   list available --dynamics names\n\
         \n\
         options:\n\
         \x20 --dynamics NAME   update rule (default 3-majority; see 'list')\n\
         \x20 --n N             population size (default 1000000)\n\
         \x20 --k K             number of colors (default 8)\n\
         \x20 --bias S          initial additive bias, or 'auto' for the paper threshold\n\
         \x20 --h H             sample size for h-plurality (default 5)\n\
         \x20 --noise P         per-message noise for 'noisy' dynamics (default 0.1)\n\
         \x20 --bins B          histogram bins for 'hist' (default 30)\n\
         \x20 --loss Q          gossip: per-message (per-leg) loss probability (default 0)\n\
         \x20 --delay P         gossip: per-message (per-leg) delay probability (default 0)\n\
         \x20 --failure SPEC    gossip: structured failure scenario layered on --loss/--delay;\n\
         \x20                   ';'-separated clauses: edge:loss=DIST[,delay=DIST] with DIST =\n\
         \x20                   X | LO..HI | flaky(F,G,B) - window:T0..T1[,loss=F][,delay=F] -\n\
         \x20                   ge:up=U,down=D,loss=F[,delay=F] - outage:frac=F,up=U,down=D -\n\
         \x20                   partition:parts=K,T0..T1 - salt:N\n\
         \x20 --churn SPEC      gossip: dynamic membership; ';'-separated clauses:\n\
         \x20                   crash:RATE - leave:RATE - rejoin:RATE[,state=stale|fresh] -\n\
         \x20                   join:RATE[,spare=N][,attach=D][,init=uniform|copy|undecided]\n\
         \x20                   (rates are per-node per-tick Poisson intensities)\n\
         \x20 --inbox-policy P  gossip: full-inbox policy 'drop-oldest' (default), 'drop-newest',\n\
         \x20                   'random-replace', or 'ttl=T' (entries expire after T time units)\n\
         \x20 --scheduler S     gossip: 'sequential' (default) or 'poisson'\n\
         \x20 --mode M          gossip: 'pull' (default), 'push', or 'push-pull'\n\
         \x20 --fast-frac F     gossip: fraction of nodes activating at --fast-rate (default 0)\n\
         \x20 --fast-rate R     gossip: activation rate of the fast nodes (default 1)\n\
         \x20 --rate-time       gossip: stamp sequential activations at i/Σr (rate-weighted)\n\
         \x20 --topology T      run/gossip: clique (default), ring, torus,\n\
         \x20                   random-regular[:d=D], or an implicit O(n)-memory family:\n\
         \x20                   ring-gradient[:alpha=A,span=S] (peer prob ~ dist^-alpha),\n\
         \x20                   ring-gaussian[:sigma=S] (Gaussian kernel, span 3*sigma),\n\
         \x20                   chung-lu[:dmin=A,dmax=B,gamma=G] (power-law degrees)\n\
         \x20 --degree D        gossip: degree for a bare --topology random-regular (default 8)\n\
         \x20 --metrics LEVEL   record telemetry and print it: 'summary' or 'full'\n\
         \x20 --metrics-out F   write the merged telemetry report to F as one JSONL line\n\
         \x20                   (schema plurality-metrics/v1; implies recording)\n\
         \x20 --addr A          serve/bench-client: TCP address (default 127.0.0.1:7117)\n\
         \x20 --workers W       serve: job worker threads (default: all cores)\n\
         \x20 --engine E        run: 'mean-field' (default) or 'agent' (per-node, sharded);\n\
         \x20                   bench-client: 'gossip' (default), 'agent', or 'mean-field'\n\
         \x20 --freq F          bench-client: target job submissions per second (default 50)\n\
         \x20 --secs S          bench-client: open-loop phase length in seconds (default 5)\n\
         \x20 --probe N         bench-client: cold/warm cache-probe jobs per phase (default 8)\n\
         \x20 --attempts A      bench-client: connect/submit attempt budget with jittered\n\
         \x20                   exponential backoff between failures (default 4)\n\
         \x20 --timeout-ms T    bench-client: per-job wall-clock budget forwarded in the spec\n\
         \x20 --bench-out F     bench-client: write the bench report JSON to F\n\
         \x20 --shutdown        bench-client: ask the server to drain and exit afterwards\n\
         \x20 --smoke           experiment: run at smoke scale (seconds, test grids)\n\
         \x20 --trials T        independent trials for 'run'/'zoo' (default 50)\n\
         \x20 --max-rounds R    round cap (default 1000000)\n\
         \x20 --seed S          master seed (default 1)\n\
         \x20 --threads T       worker threads: trial-level parallelism, except with\n\
         \x20                   'run --engine agent' where each trial's rounds are sharded\n\
         \x20                   across T threads, bit-identically (default: all cores)\n\
         \x20 --quiet           suppress per-round output in 'trace'"
    );
}

fn list_dynamics() {
    println!(
        "3-majority      the paper's dynamics (first-sample tie rule)\n\
         3-majority-uar  3-majority with uniform tie-breaking (same law)\n\
         h-plurality     plurality of --h samples (Theorem 4)\n\
         voter           copy one random node (polling / 1-majority)\n\
         2-sample        two samples + uniform tie (equivalent to voter)\n\
         2-choices       adopt only when two samples agree\n\
         median          Doerr et al. median of own + 2 samples\n\
         median3         median of 3 samples (in D3; fails plurality)\n\
         undecided       undecided-state dynamics (one extra state)\n\
         d3-132          Lemma 8 rule δ=(1,3,2) (fails plurality)\n\
         d3-141          Lemma 8 rule δ=(1,4,1) (fails plurality)\n\
         d3-min          min-of-3 rule δ=(6,0,0)\n\
         d3-anti         anti-majority rule (no clear-majority property)\n\
         noisy           3-majority with per-message uniform noise --noise"
    );
}

/// What `--metrics` / `--metrics-out` asked for.  `--metrics-out` alone
/// still records (the report goes to the file), it just prints nothing.
#[derive(Clone, Copy, PartialEq, Eq)]
enum MetricsPrint {
    Off,
    Summary,
    Full,
}

struct MetricsOpt {
    print: MetricsPrint,
    out: Option<String>,
}

impl MetricsOpt {
    fn from_args(parsed: &Args) -> Result<Self, String> {
        let print = match parsed.get("metrics") {
            None => MetricsPrint::Off,
            Some("summary") => MetricsPrint::Summary,
            Some("full") => MetricsPrint::Full,
            Some(other) => {
                return Err(format!(
                    "--metrics expects 'summary' or 'full', got '{other}'"
                ))
            }
        };
        Ok(Self {
            print,
            out: parsed.get("metrics-out").map(str::to_string),
        })
    }

    /// Telemetry must be recorded at all (print, file, or both).
    fn enabled(&self) -> bool {
        self.print != MetricsPrint::Off || self.out.is_some()
    }

    /// Print and/or persist the merged report.
    fn emit(&self, report: &MetricsReport) -> Result<(), String> {
        match self.print {
            MetricsPrint::Off => {}
            MetricsPrint::Summary => print!("{}", report.summary_table().markdown()),
            MetricsPrint::Full => {
                for t in report.full_tables() {
                    print!("{}", t.markdown());
                }
            }
        }
        if let Some(path) = &self.out {
            let mut line = report.to_json();
            line.push('\n');
            std::fs::write(path, line).map_err(|e| format!("--metrics-out {path}: {e}"))?;
        }
        Ok(())
    }
}

/// Read a trial command's job from the flags, on the CLI's defaults:
/// n = 10⁶, `trials` trials, and every core.  Returns the spec and the
/// number of threads its trials run on.  The agent engine shards each
/// trial's rounds over `--threads` and runs its trials in order; the
/// other engines run whole trials on the threads.
fn cli_spec(parsed: &Args, engine: EngineKind, trials: usize) -> Result<(JobSpec, usize), String> {
    let threads: usize = parsed
        .get_parsed(
            "threads",
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
        .map_err(|e| e.to_string())?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    let sharded = engine == EngineKind::Agent;
    let spec = spec_from_args(
        parsed,
        JobSpec {
            engine,
            n: 1_000_000,
            trials,
            threads: if sharded { threads } else { 1 },
            ..JobSpec::default()
        },
    )?;
    Ok((spec, if sharded { 1 } else { threads }))
}

/// Set up `spec` for one command; the command's jobs share no cache.
fn prepare_job(spec: &JobSpec) -> Result<PreparedJob, String> {
    prepare(spec, &StateCache::new()).map_err(|e| e.to_string())
}

/// Run every trial of `job` on `threads` threads, rows in trial order.
/// With a `fleet`, each trial records its own telemetry, merged into the
/// fleet as the trial lands.
fn run_trials(
    job: &PreparedJob,
    threads: usize,
    fleet: Option<&mut MetricsReport>,
) -> Vec<TrialRow> {
    // Each trial seeds itself from the spec, so the runner's per-trial
    // rng goes unused.
    let mc = MonteCarlo {
        trials: job.trials(),
        threads,
        master_seed: 0,
    };
    match fleet {
        Some(fleet) => mc
            .run_streaming(
                |i, _| {
                    let mut rec = MetricsRecorder::new();
                    let row = job.run_trial_recorded(i, &mut rec);
                    (row, rec.report())
                },
                |_, (_, rep)| fleet.merge(rep),
            )
            .into_iter()
            .map(|(row, _)| row)
            .collect(),
        None => mc.run(|i, _| job.run_trial(i)),
    }
}

fn cmd_run(parsed: &Args) -> Result<(), String> {
    let engine = match parsed.get("engine").unwrap_or("mean-field") {
        "mean-field" => EngineKind::MeanField,
        "agent" => EngineKind::Agent,
        other => {
            return Err(format!(
                "run supports --engine mean-field|agent, got '{other}'"
            ))
        }
    };
    let (spec, threads) = cli_spec(parsed, engine, 50)?;
    let metrics = MetricsOpt::from_args(parsed)?;
    let job = prepare_job(&spec)?;
    let dynamics = job.dynamics().name();
    let cfg = job.configuration();
    let (label, title) = match job.topology() {
        Some(topology) => (
            format!("run-agent {dynamics} {}", topology.name()),
            format!(
                "{dynamics} agent engine on {}: n = {}, k = {}, bias = {}, threads = {}",
                topology.name(),
                cfg.n(),
                cfg.k(),
                cfg.bias(),
                spec.threads
            ),
        ),
        None => (
            format!("run {dynamics}"),
            format!(
                "{dynamics} on clique: n = {}, k = {}, bias = {}",
                cfg.n(),
                cfg.k(),
                cfg.bias()
            ),
        ),
    };
    let mut fleet = MetricsReport::new(format!(
        "{label} n={} k={} bias={} trials={}",
        cfg.n(),
        cfg.k(),
        cfg.bias(),
        spec.trials
    ));
    let start = std::time::Instant::now();
    let rows = run_trials(&job, threads, metrics.enabled().then_some(&mut fleet));
    print_run_table(
        format!(
            "{title} ({} trials, {:.2}s)",
            spec.trials,
            start.elapsed().as_secs_f64()
        ),
        &rows,
    );
    metrics.emit(&fleet)?;
    Ok(())
}

/// Convergence-statistics table shared by the `run` engine paths.
fn print_run_table(title: String, rows: &[TrialRow]) {
    let trials = rows.len();
    let mut rounds = Summary::new();
    let mut wins = 0usize;
    let mut converged = 0usize;
    for r in rows {
        if r.converged {
            converged += 1;
            rounds.push(r.rounds as f64);
        }
        if r.success {
            wins += 1;
        }
    }
    let iv = wilson(wins, trials, 0.05);

    let mut t = Table::new(title, &["metric", "value"]);
    t.push_row(vec!["converged".into(), format!("{converged}/{trials}")]);
    t.push_row(vec!["plurality wins".into(), format!("{wins}/{trials}")]);
    t.push_row(vec![
        "win rate (95% CI)".into(),
        format!(
            "{} [{}, {}]",
            fmt_f64(wins as f64 / trials as f64),
            fmt_f64(iv.lo),
            fmt_f64(iv.hi)
        ),
    ]);
    if rounds.count() > 0 {
        t.push_row(vec!["mean rounds".into(), fmt_f64(rounds.mean())]);
        t.push_row(vec!["sd rounds".into(), fmt_f64(rounds.std_dev())]);
        t.push_row(vec![
            "min/max rounds".into(),
            format!("{} / {}", fmt_f64(rounds.min()), fmt_f64(rounds.max())),
        ]);
    } else {
        t.push_row(vec![
            "rounds".into(),
            "n/a (no trial converged; note that noisy dynamics never absorb)".into(),
        ]);
    }
    print!("{}", t.markdown());
}

fn cmd_trace(parsed: &Args) -> Result<(), String> {
    let (spec, _) = cli_spec(parsed, EngineKind::MeanField, 50)?;
    let job = prepare_job(&spec)?;
    let mut opts = spec.run_options();
    opts.trace = TraceLevel::Summary;
    // Trial 0's stream, as the job's own trial 0 would draw it.
    let mut rng = stream_rng(spec.seed, 0);
    let r = MeanFieldEngine::new(job.dynamics()).run(job.configuration(), &opts, &mut rng);
    let trace = r.trace.expect("trace requested");

    if !parsed.flag("quiet") {
        println!("round  c1          c2          bias        minority    undecided");
        for s in &trace.rounds {
            println!(
                "{:>5}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}",
                s.round,
                s.plurality_count,
                s.second_count,
                s.bias,
                s.minority_mass,
                s.extra_state_mass
            );
        }
    }
    println!(
        "\n{}: {:?} after {} rounds; winner = {:?}; plurality {}",
        job.dynamics().name(),
        r.reason,
        r.rounds,
        r.winner,
        if r.success { "WON" } else { "lost" }
    );
    Ok(())
}

fn cmd_zoo(parsed: &Args) -> Result<(), String> {
    let (spec, threads) = cli_spec(parsed, EngineKind::MeanField, 50)?;
    // Every rule starts from the configuration of the flags' own job.
    let cfg = prepare_job(&spec)?.configuration().clone();
    let names = [
        "3-majority",
        "h-plurality",
        "voter",
        "2-choices",
        "median",
        "median3",
        "undecided",
        "d3-132",
    ];
    let mut t = Table::new(
        format!(
            "dynamics zoo: n = {}, k = {}, bias = {} ({} trials each)",
            cfg.n(),
            cfg.k(),
            cfg.bias(),
            spec.trials
        ),
        &["dynamics", "converged", "win rate", "mean rounds"],
    );
    for (i, name) in names.iter().enumerate() {
        let job = prepare_job(&JobSpec {
            dynamics: (*name).to_string(),
            seed: spec.seed ^ (i as u64) << 32,
            ..spec.clone()
        })?;
        let rows = run_trials(&job, threads, None);
        let wins = rows.iter().filter(|r| r.success).count();
        let mut rounds = Summary::new();
        for r in rows.iter().filter(|r| r.converged) {
            rounds.push(r.rounds as f64);
        }
        t.push_row(vec![
            job.dynamics().name(),
            format!("{}/{}", rounds.count(), spec.trials),
            fmt_f64(wins as f64 / spec.trials as f64),
            fmt_f64(rounds.mean()),
        ]);
    }
    print!("{}", t.markdown());
    Ok(())
}

fn cmd_hist(parsed: &Args) -> Result<(), String> {
    let (spec, threads) = cli_spec(parsed, EngineKind::MeanField, 50)?;
    let bins: usize = parsed
        .get_parsed("bins", 30usize)
        .map_err(|e| e.to_string())?;
    let job = prepare_job(&spec)?;
    let rounds: Vec<f64> = run_trials(&job, threads, None)
        .iter()
        .filter(|r| r.converged)
        .map(|r| r.rounds as f64)
        .collect();
    if rounds.is_empty() {
        return Err("no trial converged within --max-rounds".into());
    }
    let s = Summary::of(&rounds);
    let lo = s.min().floor();
    let hi = (s.max() + 1.0).ceil();
    let mut hist = plurality_analysis::Histogram::new(lo, hi, bins);
    hist.record_all(&rounds);
    let cfg = job.configuration();
    println!(
        "{} rounds-to-consensus over {} converged trials (n = {}, k = {}, bias = {}):\n",
        job.dynamics().name(),
        rounds.len(),
        cfg.n(),
        cfg.k(),
        cfg.bias()
    );
    print!("{}", hist.ascii(50));
    println!(
        "\nmean {} · sd {} · median {} · min {} · max {}",
        fmt_f64(s.mean()),
        fmt_f64(s.std_dev()),
        fmt_f64(plurality_analysis::median(&rounds)),
        fmt_f64(s.min()),
        fmt_f64(s.max())
    );
    Ok(())
}

fn cmd_gossip(parsed: &Args) -> Result<(), String> {
    // Per-trial event simulation is heavier than a mean-field round, so
    // the default is fewer trials than 'run'.
    let (spec, threads) = cli_spec(parsed, EngineKind::Gossip, 20)?;
    let metrics = MetricsOpt::from_args(parsed)?;
    let job = prepare_job(&spec)?;
    let dynamics = job.dynamics().name();
    let topology = job
        .topology()
        .expect("gossip jobs run on a topology")
        .name();
    let cfg = job.configuration();
    let trials = spec.trials;
    let mut fleet = MetricsReport::new(format!(
        "gossip {dynamics} {topology} n={} mode={} trials={trials}",
        cfg.n(),
        spec.mode.name()
    ));
    let start = std::time::Instant::now();
    let rows = run_trials(&job, threads, metrics.enabled().then_some(&mut fleet));
    let elapsed = start.elapsed();

    let mut t = Table::new(
        format!(
            "{dynamics} async gossip on {topology}: n = {}, k = {}, bias = {}, mode = {}, \
             scheduler = {}, delay = {}, loss = {}{}{}{} ({trials} trials, {:.2}s)",
            cfg.n(),
            cfg.k(),
            cfg.bias(),
            spec.mode.name(),
            spec.scheduler.name(),
            spec.delay,
            spec.loss,
            match spec.failure_model()? {
                Some(model) => format!(", failure = {}", model.label()),
                None => String::new(),
            },
            match spec.churn_model()? {
                Some(model) => format!(", churn = {}", model.label()),
                None => String::new(),
            },
            if spec.has_node_rates() {
                format!(", {} nodes at rate {}", spec.fast_nodes(), spec.fast_rate)
            } else {
                String::new()
            },
            elapsed.as_secs_f64()
        ),
        &[
            "trial",
            "ticks",
            "winner",
            "plurality",
            "activations",
            "messages",
            "lost",
            "delayed",
            "superseded",
            "inbox",
            "starved",
        ],
    );
    let stats: Vec<&GossipStats> = rows
        .iter()
        .map(|r| r.gossip.as_ref().expect("gossip rows carry their stats"))
        .collect();
    let mut ticks = Summary::new();
    let mut wins = 0usize;
    for (r, s) in rows.iter().zip(&stats) {
        if r.converged {
            ticks.push(r.rounds as f64);
        }
        if r.success {
            wins += 1;
        }
        t.push_row(vec![
            r.trial.to_string(),
            if r.converged {
                r.rounds.to_string()
            } else {
                format!(">{} (cap)", r.rounds)
            },
            r.winner.map_or("-".into(), |w| w.to_string()),
            if r.success { "WON" } else { "lost" }.to_string(),
            s.activations.to_string(),
            s.messages.to_string(),
            s.lost_messages.to_string(),
            s.delayed_messages.to_string(),
            s.superseded_commits.to_string(),
            s.inbox_served.to_string(),
            s.starved_updates.to_string(),
        ]);
    }
    print!("{}", t.markdown());

    let iv = wilson(wins, trials, 0.05);
    let mut summary = Table::new("summary".to_string(), &["metric", "value"]);
    summary.push_row(vec![
        "converged".into(),
        format!("{}/{trials}", ticks.count()),
    ]);
    summary.push_row(vec![
        "win rate (95% CI)".into(),
        format!(
            "{} [{}, {}]",
            fmt_f64(wins as f64 / trials as f64),
            fmt_f64(iv.lo),
            fmt_f64(iv.hi)
        ),
    ]);
    if ticks.count() > 0 {
        summary.push_row(vec!["mean ticks".into(), fmt_f64(ticks.mean())]);
        summary.push_row(vec!["sd ticks".into(), fmt_f64(ticks.std_dev())]);
        summary.push_row(vec![
            "min/max ticks".into(),
            format!("{} / {}", fmt_f64(ticks.min()), fmt_f64(ticks.max())),
        ]);
    }
    if spec.churn.is_some() {
        let total = |f: fn(&GossipStats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>();
        summary.push_row(vec![
            "churn events (join/crash/leave/rejoin)".into(),
            format!(
                "{} / {} / {} / {}",
                total(|s| s.churn_joins),
                total(|s| s.churn_crashes),
                total(|s| s.churn_leaves),
                total(|s| s.churn_rejoins)
            ),
        ]);
        summary.push_row(vec![
            "mean final alive".into(),
            fmt_f64(total(|s| s.final_alive) as f64 / trials as f64),
        ]);
    }
    print!("{}", summary.markdown());
    metrics.emit(&fleet)?;
    Ok(())
}

/// Read the job flags onto `spec`, whose fields hold the defaults, and
/// validate the result.  The caller sets the engine and thread count.
fn spec_from_args(parsed: &Args, mut spec: JobSpec) -> Result<JobSpec, String> {
    use plurality_gossip::{ExchangeMode, InboxPolicy, Scheduler};
    if let Some(name) = parsed.get("dynamics") {
        spec.dynamics = name.to_string();
    }
    spec.n = parsed.get_parsed("n", spec.n).map_err(|e| e.to_string())?;
    spec.k = parsed.get_parsed("k", spec.k).map_err(|e| e.to_string())?;
    spec.h = parsed.get_parsed("h", spec.h).map_err(|e| e.to_string())?;
    spec.noise = parsed
        .get_parsed("noise", spec.noise)
        .map_err(|e| e.to_string())?;
    spec.bias = match parsed.get("bias") {
        None | Some("auto") => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("--bias expects a number or 'auto', got '{v}'"))?,
        ),
    };
    if let Some(name) = parsed.get("topology") {
        spec.topology = name.to_string();
    }
    spec.degree = parsed
        .get_parsed("degree", spec.degree)
        .map_err(|e| e.to_string())?;
    spec.mode = ExchangeMode::from_name(parsed.get("mode").unwrap_or(spec.mode.name()))?;
    spec.scheduler =
        Scheduler::from_name(parsed.get("scheduler").unwrap_or(spec.scheduler.name()))?;
    spec.loss = parsed
        .get_parsed("loss", spec.loss)
        .map_err(|e| e.to_string())?;
    spec.delay = parsed
        .get_parsed("delay", spec.delay)
        .map_err(|e| e.to_string())?;
    spec.failure = parsed.get("failure").map(str::to_string);
    spec.churn = parsed.get("churn").map(str::to_string);
    spec.timeout_ms = match parsed.get("timeout-ms") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("--timeout-ms expects milliseconds, got '{v}'"))?,
        ),
    };
    if let Some(p) = parsed.get("inbox-policy") {
        spec.inbox_policy = InboxPolicy::from_name(p)?;
    }
    spec.fast_frac = parsed
        .get_parsed("fast-frac", spec.fast_frac)
        .map_err(|e| e.to_string())?;
    spec.fast_rate = parsed
        .get_parsed("fast-rate", spec.fast_rate)
        .map_err(|e| e.to_string())?;
    spec.rate_time = parsed.flag("rate-time");
    spec.trials = parsed
        .get_parsed("trials", spec.trials)
        .map_err(|e| e.to_string())?;
    spec.seed = parsed
        .get_parsed("seed", spec.seed)
        .map_err(|e| e.to_string())?;
    spec.max_rounds = parsed
        .get_parsed("max-rounds", spec.max_rounds)
        .map_err(|e| e.to_string())?;
    spec.validate()?;
    Ok(spec)
}

fn cmd_serve(parsed: &Args) -> Result<(), String> {
    let addr = parsed.get("addr").unwrap_or("127.0.0.1:7117");
    let workers: usize = parsed
        .get_parsed(
            "workers",
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
        .map_err(|e| e.to_string())?;
    if workers == 0 {
        return Err("--workers must be >= 1".into());
    }
    let server =
        plurality_server::Server::bind(addr, workers).map_err(|e| format!("bind {addr}: {e}"))?;
    // Scripts (CI smoke, bench drivers) parse this line for the bound
    // port, so flush it before blocking in the accept loop.
    println!(
        "plurality serve: listening on {} ({workers} workers); send {{\"op\":\"shutdown\"}} to stop",
        server.local_addr()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run();
    println!("plurality serve: drained, bye");
    Ok(())
}

fn cmd_bench_client(parsed: &Args) -> Result<(), String> {
    let spec = spec_from_args(
        parsed,
        JobSpec {
            engine: EngineKind::from_name(parsed.get("engine").unwrap_or("gossip"))?,
            threads: parsed
                .get_parsed("threads", 1usize)
                .map_err(|e| e.to_string())?,
            ..JobSpec::default()
        },
    )?;
    let cfg = plurality_server::BenchConfig {
        addr: parsed.get("addr").unwrap_or("127.0.0.1:7117").to_string(),
        freq: parsed
            .get_parsed("freq", 50.0f64)
            .map_err(|e| e.to_string())?,
        secs: parsed
            .get_parsed("secs", 5.0f64)
            .map_err(|e| e.to_string())?,
        probe: parsed
            .get_parsed("probe", 8usize)
            .map_err(|e| e.to_string())?,
        attempts: parsed
            .get_parsed("attempts", 4usize)
            .map_err(|e| e.to_string())?,
        progress: !parsed.flag("quiet"),
        spec,
    };
    let report = plurality_server::run_bench(&cfg)?;
    print!("{}", report.render());
    if let Some(path) = parsed.get("bench-out") {
        std::fs::write(path, report.to_json(&cfg) + "\n")
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    if parsed.flag("shutdown") {
        plurality_server::send_shutdown(&cfg.addr)?;
        println!("server shut down");
    }
    Ok(())
}

fn cmd_experiment(parsed: &Args) -> Result<(), String> {
    use plurality_experiments::{registry, Context};

    let ids: Vec<&str> = parsed.positional()[1..]
        .iter()
        .map(String::as_str)
        .collect();
    if ids.is_empty() {
        return Err(
            "experiment: give at least one id, e.g. 'plurality experiment e18 --smoke' \
                    (ids e01..e18)"
                .into(),
        );
    }
    let metrics = MetricsOpt::from_args(parsed)?;
    let mut ctx = if parsed.flag("smoke") {
        Context::smoke()
    } else {
        Context::paper()
    };
    ctx.seed = parsed
        .get_parsed("seed", ctx.seed)
        .map_err(|e| e.to_string())?;
    ctx.threads = parsed
        .get_parsed("threads", ctx.threads)
        .map_err(|e| e.to_string())?;
    if ctx.threads == 0 {
        return Err("--threads must be at least 1".into());
    }

    let mut fleet = MetricsReport::new(format!("experiment {}", ids.join(",")));
    let mut recorded = false;
    for id in &ids {
        let exp = registry::by_id(id)
            .ok_or_else(|| format!("unknown experiment id '{id}' (valid: e01..e18)"))?;
        println!("## {} — {}\n", exp.id(), exp.title());
        let (tables, report) = if metrics.enabled() {
            exp.run_with_metrics(&ctx)
        } else {
            (exp.run(&ctx), None)
        };
        for t in &tables {
            print!("{}", t.markdown());
        }
        if let Some(rep) = report {
            fleet.merge(&rep);
            recorded = true;
        }
    }
    if metrics.enabled() && !recorded {
        eprintln!(
            "note: none of the selected experiments record telemetry \
             (instrumented: e17); --metrics had nothing to report"
        );
    }
    metrics.emit(&fleet)?;
    Ok(())
}

fn cmd_exact(parsed: &Args) -> Result<(), String> {
    use plurality_exact::{ExactChain, HPluralityKernel, ThreeMajorityKernel, VoterKernel};
    let n: u64 = parsed.get_parsed("n", 20u64).map_err(|e| e.to_string())?;
    let k: usize = parsed.get_parsed("k", 2usize).map_err(|e| e.to_string())?;
    let h: usize = parsed.get_parsed("h", 5usize).map_err(|e| e.to_string())?;
    let bias: u64 = parsed
        .get("bias")
        .unwrap_or("4")
        .parse()
        .map_err(|_| "exact: --bias must be an integer".to_string())?;
    if bias > n {
        return Err(format!("bias {bias} exceeds population {n}"));
    }
    let cfg = builders::biased(n, k, bias);
    let chain = ExactChain::new(n, k);
    println!(
        "exact absorbing-chain analysis: n = {n}, k = {k}, start {:?} ({} states)\n",
        cfg.counts(),
        chain.state_count()
    );
    let mut t = Table::new(
        "exact absorption (ground truth)",
        &["kernel", "P(win color 0)", "P(win others)", "E[rounds]"],
    );
    let name = parsed.get("dynamics").unwrap_or("all");
    let mut kernels: Vec<(&str, Box<dyn plurality_exact::AdoptionKernel>)> = Vec::new();
    match name {
        "3-majority" => kernels.push(("3-majority", Box::new(ThreeMajorityKernel))),
        "voter" => kernels.push(("voter", Box::new(VoterKernel))),
        "h-plurality" => kernels.push(("h-plurality", Box::new(HPluralityKernel { h }))),
        "all" => {
            kernels.push(("voter", Box::new(VoterKernel)));
            kernels.push(("3-majority", Box::new(ThreeMajorityKernel)));
            kernels.push(("h-plurality", Box::new(HPluralityKernel { h })));
        }
        other => {
            return Err(format!(
                "exact supports --dynamics voter|3-majority|h-plurality|all, got '{other}'"
            ))
        }
    }
    for (label, kernel) in &kernels {
        let a = chain.analyze(kernel.as_ref(), cfg.counts());
        let others: f64 = a.win_probability.iter().skip(1).sum();
        t.push_row(vec![
            (*label).to_string(),
            fmt_f64(a.win_probability[0]),
            fmt_f64(others),
            fmt_f64(a.expected_rounds),
        ]);
    }
    print!("{}", t.markdown());
    Ok(())
}
