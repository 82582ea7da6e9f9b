//! The traced run's per-layer cells.  Each cell times one layer's public
//! entry points from outside, over inputs generated from the run's seed
//! at the workloads' own sizes, inside a span named after the layer.

use crate::agent::{self, EngineCells};
use crate::host::Ceilings;
use crate::report::Report;
use crate::serve::{self, ServeOutcome};
use crate::spans::Tracer;
use crate::stats::{median, quantile};
use crate::workloads::{self, AgentWorkload, Scale, ServeWorkload};
use plurality_core::{NodeScratch, StateSampler};
use plurality_engine::{layout_initial_states, Placement};
use plurality_gossip::{
    ActivationClock, EventKind, EventQueue, GossipEngine, NetworkConfig, Scheduler,
};
use plurality_sampling::{derive_stream, stream_rng, AliasTable, Xoshiro256PlusPlus};
use plurality_server::wire::{done_line, trial_line, JobId};
use plurality_server::{build_dynamics, run_job, JobSpec, StateCache};
use plurality_telemetry::json;
use plurality_telemetry::{Counter, Hist, MetricsRecorder};
use plurality_topology::{
    downcast_topology, ChungLu, Clique, CsrGraph, Topology, TopologyCore, TopologySpec,
};
use rand::{Rng, RngCore};
use std::hint::black_box;
use std::time::Instant;

/// Median over five batches of `iters` calls of `f`, in nanoseconds per
/// call.
fn ns_per_call(iters: u64, mut f: impl FnMut(u64) -> u64) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut acc = 0u64;
            for i in 0..iters {
                acc = acc.wrapping_add(f(i));
            }
            black_box(acc);
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

/// An `RngCore` that counts the raw words drawn through it.
struct CountingRng<R> {
    inner: R,
    words: u64,
}

impl<R: RngCore> RngCore for CountingRng<R> {
    fn next_u32(&mut self) -> u32 {
        self.words += 1;
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.words += dest.len().div_ceil(8) as u64;
        self.inner.fill_bytes(dest);
    }
}

/// Replays a prefilled buffer of sampled states (wrapping around).
struct Replay<'a> {
    buf: &'a [u32],
    pos: usize,
}

impl StateSampler for Replay<'_> {
    fn sample_state(&mut self, _rng: &mut dyn RngCore) -> u32 {
        let v = self.buf[self.pos];
        self.pos = (self.pos + 1) % self.buf.len();
        v
    }
}

fn build(spec: &str, n: u64, seed: u64) -> Result<Box<dyn Topology>, String> {
    TopologySpec::parse(spec)?.build(n as usize, seed)
}

/// `Dynamics::node_update` over a prefilled sample buffer drawn from the
/// workload's initial placement; ns per update.
fn rule_ns(w: &AgentWorkload, seed: u64) -> Result<f64, String> {
    let dynamics = build_dynamics(w.dynamics, w.k, w.h, 0.0)?;
    let config = plurality_core::builders::biased(w.n, w.k, plurality_server::auto_bias(w.n, w.k));
    let states = layout_initial_states(&dynamics.lift(&config), Placement::Shuffled, seed);
    let mut rng = stream_rng(seed, 7);
    let buf: Vec<u32> = (0..(1u64 << 16) * w.samples_per_update)
        .map(|_| states[rng.gen_range(0..states.len())])
        .collect();
    let mut replay = Replay { buf: &buf, pos: 0 };
    let mut scratch = NodeScratch::with_states(dynamics.state_count(w.k));
    Ok(ns_per_call(1 << 20, |i| {
        let own = states[i as usize % states.len()];
        u64::from(dynamics.node_update(own, &mut replay, &mut scratch, &mut rng))
    }))
}

fn sample_ns<T: TopologyCore>(t: &T, seed: u64, iters: u64) -> f64 {
    let mut rng = stream_rng(seed, 11);
    let n = t.n() as u64;
    ns_per_call(iters, |i| {
        t.sample_neighbor_core((i % n) as usize, &mut rng) as u64
    })
}

fn engine_metrics(
    w: &AgentWorkload,
    cells: &EngineCells,
    costs: (f64, f64, f64),
    ceilings: &Ceilings,
    report: &mut Report,
) {
    let (sample_ns, rule_ns, alias_lines) = costs;
    let tag = w.name;
    let s = cells.samples_per_update;
    // Computed, not measured: every random gather touches one 64-byte
    // line (plus one alias-slot line per Chung–Lu draw); the node's own
    // u8 state is read and its next state written sequentially.
    let bytes = s * 64.0 * (1.0 + alias_lines) + 2.0;
    report.metric(format!("engine.placement_s.{tag}"), cells.placement_s, "s");
    report.metric(
        format!("engine.ns_per_update_t1.{tag}"),
        cells.ns_per_update_t1,
        "ns",
    );
    report.metric(
        format!("engine.ns_per_update_t2.{tag}"),
        cells.ns_per_update_t2,
        "ns",
    );
    report.metric(
        format!("engine.speedup_t2.{tag}"),
        cells.ns_per_update_t1 / cells.ns_per_update_t2,
        "ratio",
    );
    report.metric(format!("engine.samples_per_update.{tag}"), s, "count");
    report.metric(
        format!("engine.residual_ns.{tag}"),
        cells.ns_per_update_t1 - (s * sample_ns + rule_ns),
        "ns",
    );
    report.metric(
        format!("engine.bytes_per_update.{tag}"),
        bytes,
        "B-computed",
    );
    report.metric(
        format!("engine.roofline_ratio.{tag}"),
        bytes / (cells.ns_per_update_t2 * ceilings.triad_gbps),
        "ratio",
    );
    report.metric(
        format!("engine.round_ns_p50.{tag}"),
        cells.round_ns_p50,
        "ns",
    );
    report.metric(
        format!("engine.round_ns_p99.{tag}"),
        cells.round_ns_p99,
        "ns",
    );
}

/// Host, sampling, topology, core and engine cells.
fn agent_layers(
    scale: Scale,
    seed: u64,
    ceilings: &Ceilings,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let clique_w = workloads::agent_clique(scale);
    let sparse_w = workloads::agent_sparse(scale);
    let serve_w = workloads::serve_mixed(scale);

    report.metric("host.triad_gbps", ceilings.triad_gbps, "GB/s");
    report.metric("host.xoshiro_ns", ceilings.xoshiro_ns, "ns");

    let clique_topo = build(clique_w.topology, clique_w.n, seed)?;
    let sparse_topo = build(sparse_w.topology, sparse_w.n, seed)?;
    let regular_topo = build(&serve_w.spec.topology, serve_w.spec.n, seed)?;
    let clique = downcast_topology::<Clique>(&*clique_topo).ok_or("clique is not a Clique")?;
    let chung = downcast_topology::<ChungLu>(&*sparse_topo).ok_or("chung-lu is not a ChungLu")?;
    let regular =
        downcast_topology::<CsrGraph>(&*regular_topo).ok_or("random-regular is not CSR")?;

    tracer.span("sampling", |_| {
        let mut rng = stream_rng(seed, 3);
        let n = clique_w.n;
        let gen_range = ns_per_call(1 << 22, |_| rng.gen_range(0..n));
        let weights: Vec<f64> = (0..chung.n()).map(|i| chung.weight(i)).collect();
        let alias = AliasTable::new(&weights);
        let alias_ns = ns_per_call(1 << 21, |_| alias.sample(&mut rng) as u64);
        report.metric("sampling.gen_range_ns", gen_range, "ns");
        report.metric("sampling.alias_ns", alias_ns, "ns");
    });

    let (clique_ns, chung_ns) = tracer.span("topology", |_| -> Result<(f64, f64), String> {
        let clique_ns = sample_ns(clique, seed, 1 << 22);
        let chung_ns = sample_ns(chung, seed, 1 << 21);
        let mut counting = CountingRng {
            inner: stream_rng(seed, 13),
            words: 0,
        };
        let draws = 1u64 << 20;
        for i in 0..draws {
            black_box(chung.sample_neighbor_core((i % chung.n() as u64) as usize, &mut counting));
        }
        let mut builds = Vec::new();
        for _ in 0..3 {
            let t0 = Instant::now();
            black_box(build(sparse_w.topology, sparse_w.n, seed)?);
            builds.push(t0.elapsed().as_secs_f64());
        }
        let mut regular_builds = Vec::new();
        for i in 0..9 {
            let t0 = Instant::now();
            black_box(build(
                &serve_w.spec.topology,
                serve_w.spec.n,
                derive_stream(seed, 100 + i),
            )?);
            regular_builds.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        report.metric("topology.sample_ns.clique", clique_ns, "ns");
        report.metric("topology.sample_ns.chung-lu", chung_ns, "ns");
        report.metric(
            "topology.rng_per_sample.chung-lu",
            counting.words as f64 / draws as f64,
            "count",
        );
        report.metric(
            "topology.sample_ns.random-regular",
            sample_ns(regular, seed, 1 << 22),
            "ns",
        );
        report.metric("topology.build_s.chung-lu", median(&builds), "s");
        report.metric(
            "topology.build_ms.random-regular",
            median(&regular_builds),
            "ms",
        );
        Ok((clique_ns, chung_ns))
    })?;

    let (rule_3maj, rule_hplur) = tracer.span("core", |_| -> Result<(f64, f64), String> {
        let a = rule_ns(&clique_w, seed)?;
        let b = rule_ns(&sparse_w, seed)?;
        report.metric("core.rule_ns.3-majority", a, "ns");
        report.metric("core.rule_ns.h-plurality", b, "ns");
        Ok((a, b))
    })?;
    drop((clique_topo, sparse_topo));

    for (w, costs) in [
        (&clique_w, (clique_ns, rule_3maj, 0.0)),
        (&sparse_w, (chung_ns, rule_hplur, 1.0)),
    ] {
        let cells = tracer.span(&format!("engine.{}", w.name), |t| {
            agent::engine_cells(w, seed, t, report)
        })?;
        engine_metrics(w, &cells, costs, ceilings, report);
    }
    Ok(())
}

/// Gossip cells over the serve workload's job spec, run directly.
fn gossip_layers(
    w: &ServeWorkload,
    seed: u64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let mut spec = w.spec.clone();
    spec.seed = workloads::warm_seed(seed, 0);
    let topology = spec.topology_spec()?.build(spec.n as usize, spec.seed)?;
    let dynamics = build_dynamics(&spec.dynamics, spec.k, spec.h, spec.noise)?;
    let config = spec.configuration();
    let opts = spec.run_options();
    let engine = || {
        GossipEngine::new(&*topology)
            .with_mode(spec.mode)
            .with_scheduler(spec.scheduler)
            .with_inbox_policy(spec.inbox_policy)
    };
    let model = spec
        .failure_model()?
        .ok_or("serve spec has no failure model")?;
    let with_ge = engine().with_failure_model(model);
    let without_ge = engine().with_network(NetworkConfig::new(spec.delay, spec.loss));
    let ns_per_activation = |engine: &GossipEngine<'_>, rec: &mut MetricsRecorder| {
        let t0 = Instant::now();
        for i in 0..8 {
            black_box(engine.run_recorded(
                dynamics.as_ref(),
                &config,
                Placement::Shuffled,
                &opts,
                derive_stream(spec.seed, i),
                rec,
            ));
        }
        t0.elapsed().as_nanos() as f64 / rec.counter(Counter::Activations) as f64
    };
    let mut rec = MetricsRecorder::new();
    let with = tracer.span("gossip.run_recorded_ge", |_| {
        ns_per_activation(&with_ge, &mut rec)
    });
    let without = tracer.span("gossip.run_recorded_plain", |_| {
        ns_per_activation(&without_ge, &mut MetricsRecorder::new())
    });
    let c = |k: Counter| rec.counter(k) as f64;
    let depth = rec.hist(Hist::QueueDepth).mean().round().max(1.0) as usize;

    let (clock_ns, queue_ns) = tracer.span("gossip.scheduler", |_| {
        let n = spec.n as usize;
        let mut rng: Xoshiro256PlusPlus = stream_rng(seed, 17);
        let mut clock = ActivationClock::new(Scheduler::Poisson, n, None);
        let clock_ns = ns_per_call(1 << 22, |_| u64::from(clock.next(&mut rng).1));
        // Push + pop at the queue depth the job itself runs at.
        let mut queue = EventQueue::new(n);
        for i in 0..depth {
            let color = 0;
            queue.push(
                rng.gen::<f64>(),
                (i % n) as u32,
                EventKind::PushArrival { color },
            );
        }
        let queue_ns = ns_per_call(1 << 20, |i| {
            let ev = queue.pop().expect("the queue holds `depth` live events");
            let node = (i % n as u64) as u32;
            queue.push(
                ev.time + rng.gen::<f64>(),
                node,
                EventKind::PushArrival { color: 1 },
            );
            u64::from(ev.node)
        });
        (clock_ns, queue_ns)
    });

    report.metric("gossip.ns_per_activation", with, "ns");
    report.metric("gossip.clock_ns", clock_ns, "ns");
    report.metric("gossip.queue_ns", queue_ns, "ns");
    report.metric("gossip.failure_tax", with / without, "ratio");
    report.metric(
        "gossip.delivered_frac",
        (c(Counter::PullDelivered) + c(Counter::PushDelivered))
            / (c(Counter::PullSent) + c(Counter::PushSent)),
        "ratio",
    );
    report.metric(
        "gossip.queue_stale_frac",
        c(Counter::QueueSkippedStale) / c(Counter::QueuePushed),
        "ratio",
    );
    report.metric(
        "gossip.inbox_served_frac",
        c(Counter::InboxServed) / c(Counter::InboxAccepted),
        "ratio",
    );
    Ok(())
}

/// Server cells timed in-process (parse, cache, run, emit), plus the
/// ones read off a serve pass (queue wait, send lag, cache hit share).
fn server_layers(
    w: &ServeWorkload,
    seed: u64,
    pass: &ServeOutcome,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let mut warm = w.spec.clone();
    warm.seed = workloads::warm_seed(seed, 0);
    tracer.span("server.in_process", |_| -> Result<(), String> {
        let line = format!("{{\"op\":\"run\",\"id\":1,\"spec\":{}}}", warm.to_json());
        let parse_ns = ns_per_call(2000, |_| {
            let doc = json::parse(&line).expect("the wire line parses");
            let spec = JobSpec::from_json(doc.get("spec").expect("the line has a spec"));
            u64::from(spec.is_ok())
        });
        let cache = StateCache::new();
        cache.topology(&warm)?;
        let hit_ns = ns_per_call(2000, |_| {
            u64::from(cache.topology(&warm).is_ok_and(|(_, l)| l.hit))
        });
        let mut miss_ms = Vec::new();
        for i in 0..9 {
            let mut cold = warm.clone();
            cold.seed = derive_stream(seed, 10_000 + i);
            let t0 = Instant::now();
            cache.topology(&cold)?;
            miss_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let mut run_ms = Vec::new();
        let mut rows = Vec::new();
        let mut outcome = None;
        for _ in 0..5 {
            rows.clear();
            let t0 = Instant::now();
            let out =
                run_job(&warm, &cache, |r| rows.push(r.clone())).map_err(|e| e.to_string())?;
            run_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            outcome = Some(out);
        }
        let outcome = outcome.expect("five runs happened");
        let id = JobId::Num(1);
        let emit_ns = ns_per_call(2000, |_| {
            let rows_len: usize = rows.iter().map(|r| trial_line(&id, r).len()).sum();
            (rows_len + done_line(&id, &outcome).len()) as u64
        });
        report.metric("server.parse_us", parse_ns / 1e3, "us");
        report.metric("server.cache_hit_us", hit_ns / 1e3, "us");
        report.metric("server.cache_miss_ms", median(&miss_ms), "ms");
        report.metric("server.run_ms", median(&run_ms), "ms");
        report.metric("server.emit_us", emit_ns / 1e3, "us");
        Ok(())
    })?;
    report.metric(
        "server.queue_wait_ms_p50",
        median(&pass.queue_wait_ms),
        "ms",
    );
    report.metric(
        "server.queue_wait_ms_p99",
        quantile(&pass.queue_wait_ms, 0.99),
        "ms",
    );
    report.metric(
        "server.cache_hit_frac",
        pass.cache_hits as f64 / (pass.cache_hits + pass.cache_misses) as f64,
        "ratio",
    );
    // Open-loop latency p99 from the pass's own jobs (1000 on serve-mixed;
    // the shortened pass of an agent workload's traced run has 200, so
    // there it is only indicative).
    report.metric(
        "client.job_p99_ms",
        quantile(&pass.open_latency_ms, 0.99),
        "ms",
    );
    report.metric(
        "client.send_lag_ms_p99",
        quantile(&pass.send_lag_ms, 0.99),
        "ms",
    );
    Ok(())
}

/// The traced run: the workload once with tracing on (for the trace
/// overhead), then every layer cell.
pub fn traced_run(
    workload: &str,
    scale: Scale,
    seed: u64,
    ceilings: &Ceilings,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let serve_w = workloads::serve_mixed(scale);
    let (overhead, pass) = if workload == "serve-mixed" {
        let pass = tracer.span("serve-mixed", |t| serve::run_pass(&serve_w, seed, t))?;
        let overhead = pass
            .trace_overhead
            .ok_or("traced pass measured no overhead")?;
        (overhead, pass)
    } else {
        let w = if workload == "agent-clique" {
            workloads::agent_clique(scale)
        } else {
            workloads::agent_sparse(scale)
        };
        let overhead = tracer.span(w.name, |t| agent::trace_overhead(&w, seed, t))?;
        // The server cells that need traffic come from a shortened pass.
        let short = ServeWorkload {
            open_loop_jobs: serve_w.open_loop_jobs / 5,
            closed_loop_s: serve_w.closed_loop_s / 3.0,
            ..serve_w.clone()
        };
        let pass = tracer.span("serve-mixed.short", |t| serve::run_pass(&short, seed, t))?;
        (overhead, pass)
    };
    pass.record(report);
    if pass.jobs_gate.is_err() {
        return Ok(());
    }
    agent_layers(scale, seed, ceilings, tracer, report)?;
    gossip_layers(&serve_w, seed, tracer, report)?;
    server_layers(&serve_w, seed, &pass, tracer, report)?;
    report.metric("telemetry.trace_overhead", overhead, "ratio");
    Ok(())
}
