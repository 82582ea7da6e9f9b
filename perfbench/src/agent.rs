//! The agent workloads, timed from outside through `AgentEngine`'s public
//! API.

use crate::gates::{self, AgentTrial};
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::median;
use crate::workloads::AgentWorkload;
use plurality_core::{Configuration, Dynamics};
use plurality_engine::{AgentEngine, Placement, RunOptions};
use plurality_sampling::derive_stream;
use plurality_server::{auto_bias, build_dynamics};
use plurality_telemetry::{Counter, Hist, MetricsRecorder, NoopRecorder, Phase, Recorder};
use plurality_topology::{Topology, TopologySpec};
use std::time::Instant;

/// Inputs generated from the workload seed, plus the objects the set-up
/// builds from them.
pub struct Prepared {
    /// The topology.
    pub topology: Box<dyn Topology>,
    /// The rule.
    pub dynamics: Box<dyn Dynamics>,
    /// The initial color configuration (biased at the paper threshold).
    pub config: Configuration,
}

/// Set-up: build the topology, the rule and the initial configuration.
pub fn prepare(w: &AgentWorkload, seed: u64) -> Result<Prepared, String> {
    let topology = TopologySpec::parse(w.topology)?.build(w.n as usize, seed)?;
    let dynamics = build_dynamics(w.dynamics, w.k, w.h, 0.0)?;
    let config = plurality_core::builders::biased(w.n, w.k, auto_bias(w.n, w.k));
    Ok(Prepared {
        topology,
        dynamics,
        config,
    })
}

/// Seed of trial `i` under workload seed `seed`.
#[must_use]
pub fn trial_seed(seed: u64, i: u64) -> u64 {
    derive_stream(seed, i)
}

/// Time `setup` several times and return the seconds per call of each
/// repetition together with the last result.  Calls much shorter than a
/// millisecond are timed in batches so the timer's resolution does not
/// dominate.
pub fn time_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let t0 = Instant::now();
    let mut last = setup()?;
    let single = t0.elapsed().as_secs_f64();
    let batch = ((2e-3 / single.max(1e-9)).ceil() as usize).clamp(1, 10_000);
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..batch {
            last = std::hint::black_box(setup()?);
        }
        samples.push(t0.elapsed().as_secs_f64() / batch as f64);
    }
    Ok((samples, last))
}

/// One engine call at `threads` threads; returns the trial row.
pub fn run_trial<R: Recorder>(
    p: &Prepared,
    threads: usize,
    trial: u64,
    seed: u64,
    opts: &RunOptions,
    rec: &mut R,
) -> AgentTrial {
    let engine = AgentEngine::new(&*p.topology).with_threads(threads);
    let t0 = Instant::now();
    let r = engine.run_recorded(
        p.dynamics.as_ref(),
        &p.config,
        Placement::Shuffled,
        opts,
        trial_seed(seed, trial),
        rec,
    );
    AgentTrial {
        trial,
        threads,
        wall_s: t0.elapsed().as_secs_f64(),
        rounds: r.rounds,
        winner: r.winner,
        initial_plurality: r.initial_plurality,
    }
}

/// Thread counts of the traced engine cells, and of trial 0 in the
/// untraced measurement.
pub const LEGS: [usize; 2] = [1, 2];

/// The untraced measurement: set-up, then T = 2 trials while the time
/// budget allows another, at least one.  Trial 0 also runs at T = 1, for
/// the thread-invariance gate; it is not timed as a metric, because on a
/// shared host the single-threaded round time swung by half between runs
/// of the same code (326–484 ms on agent-sparse).
pub fn measure(
    w: &AgentWorkload,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<Vec<AgentTrial>, String> {
    // Half the set-ups run first and the rest after the trials, so
    // `setup_s` samples the host at both ends of the run rather than in
    // one short window.
    let (mut setups, prepared) = tracer.span("setup", |_| time_setup(8, || prepare(w, seed)))?;
    let opts = RunOptions::default();
    let start = Instant::now();
    let mut trials = Vec::new();
    let mut slowest = 0.0f64;
    for i in 0u64.. {
        let legs: &[usize] = if i == 0 { &LEGS } else { &[2] };
        for &threads in legs {
            let row = tracer.span(&format!("engine.run_t{threads}"), |_| {
                run_trial(&prepared, threads, i, seed, &opts, &mut NoopRecorder)
            });
            trials.push(row);
        }
        slowest = slowest.max(trials.last().map_or(0.0, |t| t.wall_s));
        if start.elapsed().as_secs_f64() + slowest > seconds || i + 1 >= 128 {
            break;
        }
    }

    drop(prepared);
    let (more, _) = tracer.span("setup", |_| time_setup(7, || prepare(w, seed)))?;
    setups.extend(more);

    report.attempted += trials.len() as u64;
    report.failed += trials.iter().filter(|t| !t.succeeded()).count() as u64;
    report.gate(gates::winner_is_initial_plurality(&trials));
    report.gate(gates::thread_invariant(&trials));

    let per_round_ms = |threads: usize| -> Vec<f64> {
        trials
            .iter()
            .filter(|t| t.threads == threads)
            .map(|t| t.wall_s * 1e3 / t.rounds.max(1) as f64)
            .collect()
    };
    let t2_walls: Vec<f64> = trials
        .iter()
        .filter(|t| t.threads == 2)
        .map(|t| t.wall_s)
        .collect();
    let t2_ms: Vec<f64> = t2_walls.iter().map(|s| s * 1e3).collect();
    let tenths =
        |v: Vec<f64>| -> Vec<f64> { v.iter().map(|x| (x * 10.0).round() / 10.0).collect() };
    eprintln!(
        "perfbench: {}: ms/round per trial, T=1 {:?}, T=2 {:?}",
        w.name,
        tenths(per_round_ms(1)),
        tenths(per_round_ms(2)),
    );
    report.metric("round_ms_t2", median(&per_round_ms(2)), "ms");
    report.metric("trial_s", median(&t2_walls), "s");
    report.metric("setup_s", median(&setups), "s");
    // On an agent workload a job is one T = 2 engine call.
    report.metric("job_p50_ms", median(&t2_ms), "ms");
    report.metric(
        "capacity_jobs_s",
        t2_walls.len() as f64 / t2_walls.iter().sum::<f64>(),
        "jobs/s",
    );
    Ok(trials)
}

/// Per-layer cells of one agent workload, from engine calls capped at
/// `w.layer_rounds` rounds and run through `run_recorded` with a
/// `MetricsRecorder`.
pub struct EngineCells {
    /// Placement (engine set-up phase) at T = 2, seconds.
    pub placement_s: f64,
    /// Round-loop nanoseconds per node update at T = 1.
    pub ns_per_update_t1: f64,
    /// Round-loop nanoseconds per node update at T = 2.
    pub ns_per_update_t2: f64,
    /// Neighbor samples per node update (exact count ratio).
    pub samples_per_update: f64,
    /// Median and p99 round wall time at T = 2, from `round_wall_ns`.
    pub round_ns_p50: f64,
    /// See `round_ns_p50`.
    pub round_ns_p99: f64,
}

/// Measure [`EngineCells`] for `w` and gate the exact samples-per-update
/// count.
pub fn engine_cells(
    w: &AgentWorkload,
    seed: u64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<EngineCells, String> {
    let prepared = prepare(w, seed)?;
    let opts = RunOptions::with_max_rounds(w.layer_rounds);
    let mut per_thread = Vec::new();
    for threads in LEGS {
        let mut rec = MetricsRecorder::new();
        let row = tracer.span(&format!("engine.run_recorded_t{threads}"), |_| {
            run_trial(&prepared, threads, 0, seed, &opts, &mut rec)
        });
        let updates = row.rounds * w.n;
        report.gate(gates::samples_per_update(
            rec.counter(Counter::SamplesDrawn),
            updates,
            w.samples_per_update,
            &format!("{} T={threads}", w.name),
        ));
        per_thread.push((row, rec, updates));
    }
    let (_, rec1, updates1) = &per_thread[0];
    let (_, rec2, updates2) = &per_thread[1];
    let round_walls = rec2.hist(Hist::RoundWallNanos);
    Ok(EngineCells {
        placement_s: rec2.phase_nanos(Phase::Setup) as f64 / 1e9,
        ns_per_update_t1: rec1.phase_nanos(Phase::Run) as f64 / *updates1 as f64,
        ns_per_update_t2: rec2.phase_nanos(Phase::Run) as f64 / *updates2 as f64,
        samples_per_update: rec2.counter(Counter::SamplesDrawn) as f64 / *updates2 as f64,
        round_ns_p50: round_walls.quantile(0.5) as f64,
        round_ns_p99: round_walls.quantile(0.99) as f64,
    })
}

/// The workload's own T = 2 trial, once through `run_recorded` with a
/// `MetricsRecorder` and span recording and once untraced; returns traced
/// wall ÷ untraced wall.
pub fn trace_overhead(w: &AgentWorkload, seed: u64, tracer: &mut Tracer) -> Result<f64, String> {
    let prepared = prepare(w, seed)?;
    let opts = RunOptions::default();
    let untraced = run_trial(&prepared, 2, 0, seed, &opts, &mut NoopRecorder);
    let mut rec = MetricsRecorder::new();
    let traced = tracer.span("engine.run_recorded_full_t2", |_| {
        run_trial(&prepared, 2, 0, seed, &opts, &mut rec)
    });
    if (traced.rounds, traced.winner) != (untraced.rounds, untraced.winner) {
        return Err(format!(
            "{}: the recorder changed the trajectory ({} vs {} rounds)",
            w.name, traced.rounds, untraced.rounds
        ));
    }
    Ok(traced.wall_s / untraced.wall_s)
}
