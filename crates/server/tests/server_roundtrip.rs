//! End-to-end protocol tests against an in-process server, including
//! the acceptance pin: identical job specs return bit-identical trial
//! results via the server and via direct library calls.
//!
//! The direct-library reference builds each engine by hand from the
//! public builders (`TopologySpec::build`, `spec::build_dynamics`, the
//! engines' own constructors) with the documented per-trial seed
//! derivation (`derive_stream(seed, i)` for gossip and the agent engine,
//! `stream_rng(seed, i)` for mean-field trials), independently of
//! `exec`, which the server and the CLI share.

use plurality_engine::{AgentEngine, MeanFieldEngine, MonteCarlo, Placement, StopReason};
use plurality_gossip::{ExchangeMode, FailureModel, GossipEngine, NetworkConfig};
use plurality_sampling::{derive_stream, stream_rng};
use plurality_server::spec::build_dynamics;
use plurality_server::wire::{trial_line, JobId};
use plurality_server::{run_job, JobSpec, Server, StateCache};
use plurality_telemetry::json::{self, Json};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to test server");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set read timeout");
    stream
}

/// Submit one job and collect its trial lines and done/error line.
fn submit(stream: &mut TcpStream, id: u64, spec: &JobSpec) -> (Vec<Json>, Json) {
    let line = format!(
        "{{\"op\":\"run\",\"id\":{id},\"spec\":{}}}\n",
        spec.to_json()
    );
    stream.write_all(line.as_bytes()).expect("submit job");
    collect(stream, id)
}

/// Read lines until this id's done/error event arrives.
fn collect(stream: &mut TcpStream, id: u64) -> (Vec<Json>, Json) {
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut trials = Vec::new();
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read response line");
        assert!(n > 0, "server closed the stream mid-job");
        let doc = json::parse(line.trim()).expect("response line must parse");
        if doc.get("id").and_then(Json::as_num) != Some(u128::from(id)) {
            continue;
        }
        match doc.get("event").and_then(Json::as_str) {
            Some("trial") => trials.push(doc),
            Some("done") | Some("error") => return (trials, doc),
            other => panic!("unexpected event {other:?}"),
        }
    }
}

/// Read raw lines until every id in `ids` has its done/error line;
/// returns each id's lines in arrival order.
fn collect_raw(stream: &TcpStream, ids: &[u64]) -> HashMap<u64, Vec<String>> {
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut lines: HashMap<u64, Vec<String>> = HashMap::new();
    let mut open = ids.len();
    while open > 0 {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read response line");
        assert!(n > 0, "server closed the stream mid-job");
        let doc = json::parse(line.trim()).expect("response line must parse");
        let id = num(&doc, "id");
        if matches!(
            doc.get("event").and_then(Json::as_str),
            Some("done") | Some("error")
        ) {
            open -= 1;
        }
        lines.entry(id).or_default().push(line.trim().to_string());
    }
    lines
}

fn stats_counters(stream: &mut TcpStream) -> Json {
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    stream.write_all(b"{\"op\":\"stats\"}\n").unwrap();
    reader.read_line(&mut line).unwrap();
    let doc = json::parse(line.trim()).unwrap();
    doc.get("report")
        .and_then(|r| r.get("counters"))
        .expect("counters")
        .clone()
}

fn num(doc: &Json, key: &str) -> u64 {
    doc.get(key)
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("missing numeric {key} in {doc:?}")) as u64
}

#[test]
fn gossip_jobs_are_bit_identical_to_the_cli_path() {
    let spec = JobSpec {
        dynamics: "3-majority".into(),
        n: 600,
        k: 3,
        bias: Some(120),
        topology: "random-regular".into(),
        degree: 6,
        mode: ExchangeMode::PushPull,
        loss: 0.1,
        delay: 0.05,
        failure: Some("edge:loss=0.0..0.3".into()),
        trials: 3,
        seed: 5,
        max_rounds: 20_000,
        ..JobSpec::default()
    };

    // The direct-library reference: same builders, same seed derivation.
    let topology = spec
        .topology_spec()
        .unwrap()
        .build(spec.n as usize, spec.seed)
        .unwrap();
    let dynamics = build_dynamics(&spec.dynamics, spec.k, spec.h, spec.noise).unwrap();
    let model = FailureModel::parse(
        spec.failure.as_deref().unwrap(),
        NetworkConfig::new(0.05, 0.1),
    )
    .unwrap();
    let engine = GossipEngine::new(topology.as_ref())
        .with_mode(spec.mode)
        .with_failure_model(model);
    let cfg = spec.configuration();
    let opts = spec.run_options();
    let expected: Vec<_> = (0..spec.trials)
        .map(|i| {
            engine.run_detailed(
                dynamics.as_ref(),
                &cfg,
                Placement::Shuffled,
                &opts,
                derive_stream(spec.seed, i as u64),
            )
        })
        .collect();

    let (addr, handle) = Server::spawn("127.0.0.1:0", 2).expect("spawn server");
    let mut stream = connect(addr);
    let (trials, done) = submit(&mut stream, 1, &spec);

    assert_eq!(done.get("event").and_then(Json::as_str), Some("done"));
    assert_eq!(trials.len(), spec.trials);
    for (i, ((r, s), doc)) in expected.iter().zip(&trials).enumerate() {
        assert_eq!(num(doc, "trial"), i as u64);
        assert_eq!(num(doc, "rounds"), r.rounds, "trial {i} rounds");
        assert_eq!(
            num(doc, "converged") == 1,
            r.reason == StopReason::Stopped,
            "trial {i} reason"
        );
        assert_eq!(
            doc.get("winner").and_then(Json::as_num).map(|w| w as usize),
            r.winner,
            "trial {i} winner"
        );
        assert_eq!(num(doc, "success") == 1, r.success, "trial {i} success");
        assert_eq!(num(doc, "activations"), s.activations, "trial {i}");
        assert_eq!(num(doc, "messages"), s.messages, "trial {i}");
        assert_eq!(num(doc, "lost"), s.lost_messages, "trial {i}");
        assert_eq!(num(doc, "delayed"), s.delayed_messages, "trial {i}");
        let final_time: f64 = doc
            .get("final_time")
            .and_then(Json::as_str)
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(final_time, s.final_time, "trial {i} final_time");
    }

    // Warm resubmission: identical results, all cache lookups hit.
    let first_cache = done.get("cache").expect("cache field");
    assert_eq!(num(first_cache, "warm"), 0, "first job must build");
    let (trials2, done2) = submit(&mut stream, 2, &spec);
    let cache2 = done2.get("cache").expect("cache field");
    assert_eq!(num(cache2, "warm"), 1, "second job must be fully cached");
    assert_eq!(cache2.get("topology").and_then(Json::as_str), Some("hit"));
    assert_eq!(cache2.get("edge_table").and_then(Json::as_str), Some("hit"));
    assert_eq!(num(&done2, "build_ns"), 0, "warm jobs build nothing");
    let strip_id = |doc: &Json| match doc {
        Json::Obj(fields) => Json::Obj(fields.iter().filter(|(k, _)| k != "id").cloned().collect()),
        other => other.clone(),
    };
    assert_eq!(
        trials.iter().map(strip_id).collect::<Vec<_>>(),
        trials2.iter().map(strip_id).collect::<Vec<_>>(),
        "warm results must be bit-identical"
    );

    plurality_server::send_shutdown(&addr.to_string()).expect("shutdown");
    drop(stream);
    handle.join().expect("server thread");
}

#[test]
fn agent_jobs_are_bit_identical_to_the_library_path() {
    let spec = JobSpec {
        engine: plurality_server::EngineKind::Agent,
        dynamics: "undecided".into(),
        n: 500,
        k: 4,
        bias: Some(80),
        topology: "torus".into(),
        trials: 3,
        seed: 11,
        max_rounds: 5_000,
        ..JobSpec::default()
    };
    let topology = spec
        .topology_spec()
        .unwrap()
        .build(spec.n as usize, spec.seed)
        .unwrap();
    let dynamics = build_dynamics(&spec.dynamics, spec.k, spec.h, spec.noise).unwrap();
    let engine = AgentEngine::new(topology.as_ref());
    let cfg = spec.configuration();
    let opts = spec.run_options();

    let (addr, handle) = Server::spawn("127.0.0.1:0", 2).expect("spawn server");
    let mut stream = connect(addr);
    let (trials, done) = submit(&mut stream, 7, &spec);
    assert_eq!(done.get("event").and_then(Json::as_str), Some("done"));
    for (i, doc) in trials.iter().enumerate() {
        let r = engine.run(
            dynamics.as_ref(),
            &cfg,
            Placement::Shuffled,
            &opts,
            derive_stream(spec.seed, i as u64),
        );
        assert_eq!(num(doc, "rounds"), r.rounds, "trial {i} rounds");
        assert_eq!(
            doc.get("winner").and_then(Json::as_num).map(|w| w as usize),
            r.winner,
            "trial {i} winner"
        );
        assert_eq!(num(doc, "success") == 1, r.success, "trial {i} success");
        assert!(doc.get("activations").is_none(), "no gossip stats expected");
    }
    plurality_server::send_shutdown(&addr.to_string()).expect("shutdown");
    drop(stream);
    handle.join().expect("server thread");
}

#[test]
fn mean_field_jobs_match_the_monte_carlo_path() {
    let spec = JobSpec {
        engine: plurality_server::EngineKind::MeanField,
        dynamics: "3-majority".into(),
        n: 2_000,
        k: 3,
        bias: Some(300),
        trials: 4,
        seed: 3,
        max_rounds: 10_000,
        ..JobSpec::default()
    };
    // The direct-library reference: MonteCarlo gives trial i the
    // stream-i RNG.
    let dynamics = build_dynamics(&spec.dynamics, spec.k, spec.h, spec.noise).unwrap();
    let engine = MeanFieldEngine::new(dynamics.as_ref());
    let cfg = spec.configuration();
    let opts = spec.run_options();
    let mc = MonteCarlo {
        trials: spec.trials,
        threads: 2,
        master_seed: spec.seed,
    };
    let expected = mc.run(|_, rng| engine.run(&cfg, &opts, rng));
    // Sanity: that equals the sequential stream_rng loop the server runs.
    let seq: Vec<_> = (0..spec.trials)
        .map(|i| engine.run(&cfg, &opts, &mut stream_rng(spec.seed, i as u64)))
        .collect();
    assert_eq!(expected.len(), seq.len());

    let (addr, handle) = Server::spawn("127.0.0.1:0", 1).expect("spawn server");
    let mut stream = connect(addr);
    let (trials, done) = submit(&mut stream, 9, &spec);
    assert_eq!(done.get("event").and_then(Json::as_str), Some("done"));
    for (i, (r, doc)) in expected.iter().zip(&trials).enumerate() {
        assert_eq!(num(doc, "rounds"), r.rounds, "trial {i} rounds");
        assert_eq!(num(doc, "success") == 1, r.success, "trial {i} success");
        assert_eq!(
            doc.get("winner").and_then(Json::as_num).map(|w| w as usize),
            r.winner,
            "trial {i} winner"
        );
    }
    let wins = expected.iter().filter(|r| r.success).count();
    assert_eq!(num(&done, "wins"), wins as u64);
    plurality_server::send_shutdown(&addr.to_string()).expect("shutdown");
    drop(stream);
    handle.join().expect("server thread");
}

#[test]
fn churn_jobs_are_bit_identical_to_the_cli_path() {
    let spec = JobSpec {
        dynamics: "3-majority".into(),
        n: 500,
        k: 3,
        bias: Some(100),
        topology: "random-regular".into(),
        degree: 6,
        mode: ExchangeMode::PushPull,
        churn: Some(
            "crash:0.02;rejoin:0.2,state=fresh;join:0.1,spare=12,attach=3,init=copy".into(),
        ),
        trials: 3,
        seed: 13,
        max_rounds: 20_000,
        ..JobSpec::default()
    };

    // The direct-library reference: same builders, same churn model,
    // same per-trial seed derivation.
    let topology = spec
        .topology_spec()
        .unwrap()
        .build(spec.n as usize, spec.seed)
        .unwrap();
    let dynamics = build_dynamics(&spec.dynamics, spec.k, spec.h, spec.noise).unwrap();
    let model = spec.churn_model().unwrap().expect("spec carries churn");
    let engine = GossipEngine::new(topology.as_ref())
        .with_mode(spec.mode)
        .with_churn_model(model);
    let cfg = spec.configuration();
    let opts = spec.run_options();
    let expected: Vec<_> = (0..spec.trials)
        .map(|i| {
            engine.run_detailed(
                dynamics.as_ref(),
                &cfg,
                Placement::Shuffled,
                &opts,
                derive_stream(spec.seed, i as u64),
            )
        })
        .collect();
    assert!(
        expected
            .iter()
            .any(|(_, s)| s.churn_crashes + s.churn_joins > 0),
        "churn must actually fire in this scenario"
    );

    let (addr, handle) = Server::spawn("127.0.0.1:0", 2).expect("spawn server");
    let mut stream = connect(addr);
    let (trials, done) = submit(&mut stream, 3, &spec);
    assert_eq!(done.get("event").and_then(Json::as_str), Some("done"));
    assert_eq!(trials.len(), spec.trials);
    for (i, ((r, s), doc)) in expected.iter().zip(&trials).enumerate() {
        assert_eq!(num(doc, "rounds"), r.rounds, "trial {i} rounds");
        assert_eq!(
            doc.get("winner").and_then(Json::as_num).map(|w| w as usize),
            r.winner,
            "trial {i} winner"
        );
        assert_eq!(num(doc, "activations"), s.activations, "trial {i}");
        assert_eq!(num(doc, "messages"), s.messages, "trial {i}");
        let final_time: f64 = doc
            .get("final_time")
            .and_then(Json::as_str)
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(final_time, s.final_time, "trial {i} final_time");
    }

    plurality_server::send_shutdown(&addr.to_string()).expect("shutdown");
    drop(stream);
    handle.join().expect("server thread");
}

#[test]
fn timeout_jobs_emit_structured_error_with_partial_rows() {
    // A 1 ms budget expires during the first trial of any non-trivial
    // job, but the contract guarantees at least one completed trial —
    // the deadline is only checked between trials.
    let spec = JobSpec {
        dynamics: "3-majority".into(),
        n: 3_000,
        k: 3,
        bias: Some(600),
        trials: 40,
        seed: 2,
        max_rounds: 20_000,
        timeout_ms: Some(1),
        ..JobSpec::default()
    };
    let (addr, handle) = Server::spawn("127.0.0.1:0", 1).expect("spawn server");
    let mut stream = connect(addr);
    let (trials, terminal) = submit(&mut stream, 5, &spec);

    assert_eq!(terminal.get("event").and_then(Json::as_str), Some("error"));
    assert_eq!(terminal.get("kind").and_then(Json::as_str), Some("timeout"));
    assert_eq!(num(&terminal, "limit-ms"), 1);
    let completed = num(&terminal, "completed");
    assert!(
        completed >= 1 && completed < spec.trials as u64,
        "a timeout must land mid-job (completed = {completed})"
    );
    assert_eq!(
        trials.len() as u64,
        completed,
        "every completed trial streams its row before the cutoff"
    );
    let msg = terminal.get("error").and_then(Json::as_str).unwrap();
    assert!(msg.contains("timed out"), "human-readable message: {msg}");

    // The fleet report attributes the job to the timeout counters and
    // still credits the partial trials.
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    stream.write_all(b"{\"op\":\"stats\"}\n").unwrap();
    reader.read_line(&mut line).unwrap();
    let doc = json::parse(line.trim()).unwrap();
    let counters = doc
        .get("report")
        .and_then(|r| r.get("counters"))
        .expect("counters");
    assert_eq!(num(counters, "jobs_failed"), 1);
    assert_eq!(num(counters, "jobs_timed_out"), 1);
    assert_eq!(num(counters, "trials_run"), completed);
    assert!(counters.get("jobs_completed").is_none() || num(counters, "jobs_completed") == 0);

    plurality_server::send_shutdown(&addr.to_string()).expect("shutdown");
    drop(reader);
    drop(stream);
    handle.join().expect("server thread");
}

#[test]
fn trials_fan_out_across_workers_and_stream_in_trial_order() {
    // More trials than workers, several jobs in flight on one
    // connection: idle workers take later trials of the oldest job.
    let gossip = JobSpec {
        n: 400,
        k: 3,
        bias: Some(80),
        topology: "random-regular".into(),
        degree: 6,
        mode: ExchangeMode::PushPull,
        failure: Some("ge:up=4,down=4,loss=0.8".into()),
        trials: 5,
        max_rounds: 20_000,
        ..JobSpec::default()
    };
    let specs = [
        JobSpec {
            seed: 21,
            ..gossip.clone()
        },
        JobSpec {
            engine: plurality_server::EngineKind::Agent,
            dynamics: "undecided".into(),
            topology: "torus".into(),
            trials: 4,
            seed: 22,
            ..gossip.clone()
        },
        JobSpec {
            seed: 23,
            ..gossip.clone()
        },
        JobSpec {
            engine: plurality_server::EngineKind::MeanField,
            topology: "clique".into(),
            failure: None,
            trials: 7,
            seed: 24,
            ..gossip.clone()
        },
    ];
    let (addr, handle) = Server::spawn("127.0.0.1:0", 3).expect("spawn server");
    let mut stream = connect(addr);
    let mut ids = Vec::new();
    for (id, spec) in (100u64..).zip(&specs) {
        let line = format!(
            "{{\"op\":\"run\",\"id\":{id},\"spec\":{}}}\n",
            spec.to_json()
        );
        stream.write_all(line.as_bytes()).expect("submit job");
        ids.push(id);
    }
    let lines = collect_raw(&stream, &ids);

    for (id, spec) in ids.iter().zip(&specs) {
        let mut expected = Vec::new();
        run_job(spec, &StateCache::new(), |row| {
            expected.push(trial_line(&JobId::Num(u128::from(*id)), row));
        })
        .expect("in-process run");
        let got = &lines[id];
        let (done, rows) = got.split_last().expect("job answered");
        assert_eq!(
            rows, expected,
            "job {id}: rows in trial order, byte for byte"
        );
        let done = json::parse(done).unwrap();
        assert_eq!(done.get("event").and_then(Json::as_str), Some("done"));
        assert_eq!(num(&done, "trials"), spec.trials as u64);
    }

    plurality_server::send_shutdown(&addr.to_string()).expect("shutdown");
    drop(stream);
    handle.join().expect("server thread");
}

#[test]
fn timeouts_with_fanned_out_trials_stream_a_prefix() {
    // The 2-worker twin of the timeout test above: trials already handed
    // out finish, so the rows are exactly trials 0..completed.
    let spec = JobSpec {
        dynamics: "3-majority".into(),
        n: 3_000,
        k: 3,
        bias: Some(600),
        trials: 40,
        seed: 2,
        max_rounds: 20_000,
        timeout_ms: Some(1),
        ..JobSpec::default()
    };
    let (addr, handle) = Server::spawn("127.0.0.1:0", 2).expect("spawn server");
    let mut stream = connect(addr);
    let (trials, terminal) = submit(&mut stream, 5, &spec);

    assert_eq!(terminal.get("kind").and_then(Json::as_str), Some("timeout"));
    let completed = num(&terminal, "completed");
    assert!(
        completed >= 1 && completed < spec.trials as u64,
        "a timeout must land mid-job (completed = {completed})"
    );
    let streamed: Vec<u64> = trials.iter().map(|doc| num(doc, "trial")).collect();
    assert_eq!(streamed, (0..completed).collect::<Vec<_>>());
    let counters = stats_counters(&mut stream);
    assert_eq!(num(&counters, "jobs_timed_out"), 1);
    assert_eq!(num(&counters, "trials_run"), completed);

    plurality_server::send_shutdown(&addr.to_string()).expect("shutdown");
    drop(stream);
    handle.join().expect("server thread");
}

#[test]
fn bad_jobs_answer_errors_and_the_worker_keeps_serving() {
    let (addr, handle) = Server::spawn("127.0.0.1:0", 1).expect("spawn server");
    let mut stream = connect(addr);
    let small = JobSpec {
        n: 400,
        k: 2,
        bias: Some(80),
        trials: 2,
        max_rounds: 5_000,
        ..JobSpec::default()
    };
    // Each spec is refused before any trial runs: the first four by
    // validation, the last two where `prepare` builds the rule, because
    // the gossip engine would panic on them.
    let refused = [
        (
            JobSpec {
                n: 0,
                ..JobSpec::default()
            },
            "n must be positive",
        ),
        (
            JobSpec {
                k: 0,
                ..JobSpec::default()
            },
            "k must be positive",
        ),
        (
            JobSpec {
                engine: plurality_server::EngineKind::MeanField,
                topology: "ring".into(),
                ..small.clone()
            },
            "models the clique only",
        ),
        (
            JobSpec {
                churn: Some("crash:0.01".into()),
                fast_frac: 0.25,
                fast_rate: 4.0,
                ..small.clone()
            },
            "heterogeneous rates",
        ),
        (
            JobSpec {
                churn: Some("join:0.1,spare=10,init=undecided".into()),
                ..small.clone()
            },
            "init=undecided requires",
        ),
        (
            JobSpec {
                dynamics: "h-plurality".into(),
                h: 9,
                mode: ExchangeMode::Push,
                ..small.clone()
            },
            "more than INBOX_CAP",
        ),
    ];
    for (id, (spec, expect)) in refused.iter().enumerate() {
        let (rows, terminal) = submit(&mut stream, id as u64, spec);
        assert!(rows.is_empty());
        assert_eq!(terminal.get("event").and_then(Json::as_str), Some("error"));
        let msg = terminal.get("error").and_then(Json::as_str).unwrap();
        assert!(msg.contains(expect), "structured error: {msg}");
    }

    // The boundary cases still run: PUSH serves h = INBOX_CAP, and the
    // undecided-state rule has a state for init=undecided arrivals.
    let boundary = [
        small.clone(),
        JobSpec {
            dynamics: "h-plurality".into(),
            h: 8,
            mode: ExchangeMode::Push,
            max_rounds: 200,
            ..small.clone()
        },
        JobSpec {
            dynamics: "undecided".into(),
            churn: Some(
                "crash:0.01;rejoin:0.2,state=fresh;join:0.1,spare=10,init=undecided".into(),
            ),
            ..small.clone()
        },
    ];
    for (i, spec) in boundary.iter().enumerate() {
        let (rows, done) = submit(&mut stream, 100 + i as u64, spec);
        assert_eq!(
            done.get("event").and_then(Json::as_str),
            Some("done"),
            "{done:?}"
        );
        assert_eq!(rows.len(), 2);
    }
    let counters = stats_counters(&mut stream);
    assert_eq!(num(&counters, "jobs_completed"), boundary.len() as u64);
    assert_eq!(num(&counters, "jobs_failed"), refused.len() as u64);
    // No job panicked: the report leaves zero counters out.
    assert_eq!(counters.get("jobs_panicked").and_then(Json::as_num), None);

    plurality_server::send_shutdown(&addr.to_string()).expect("shutdown");
    drop(stream);
    handle.join().expect("server thread");
}

#[test]
fn bench_retry_reports_bounded_attempts() {
    // Nothing listens on the discard port: the client must give up
    // after exactly the configured attempt budget.
    let cfg = plurality_server::BenchConfig {
        addr: "127.0.0.1:9".into(),
        attempts: 2,
        progress: false,
        ..plurality_server::BenchConfig::default()
    };
    let err = plurality_server::run_bench(&cfg).expect_err("no server must fail");
    assert!(
        err.contains("after 2 attempts"),
        "error must report the attempt budget: {err}"
    );
}

#[test]
fn bench_retry_survives_a_late_starting_server() {
    // Reserve an ephemeral port, release it, and bring the server up
    // only after the bench has already started connecting: the backoff
    // loop must absorb the race a co-launched server loses.
    let addr = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port");
        probe.local_addr().expect("reserved addr")
    };
    let server = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(120));
        let (_, handle) = Server::spawn(addr, 2).expect("spawn server late");
        handle
    });
    let cfg = plurality_server::BenchConfig {
        addr: addr.to_string(),
        freq: 100.0,
        secs: 0.2,
        probe: 1,
        progress: false,
        attempts: 6,
        spec: JobSpec {
            n: 300,
            k: 2,
            bias: Some(60),
            trials: 2,
            max_rounds: 5_000,
            ..JobSpec::default()
        },
    };
    let report = plurality_server::run_bench(&cfg).expect("bench must connect via retry");
    assert!(report.completed > 0, "jobs must flow once the server is up");
    assert_eq!(report.errors, 0);
    let handle = server.join().expect("server spawner");
    plurality_server::send_shutdown(&addr.to_string()).expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn protocol_ops_and_error_replies() {
    let (addr, handle) = Server::spawn("127.0.0.1:0", 1).expect("spawn server");
    let mut stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();

    stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "{\"event\":\"pong\"}");

    // Malformed JSON → connection-scoped error.
    line.clear();
    stream.write_all(b"{\"op\":\n").unwrap();
    reader.read_line(&mut line).unwrap();
    let doc = json::parse(line.trim()).unwrap();
    assert_eq!(doc.get("event").and_then(Json::as_str), Some("error"));

    // Bad spec → job-scoped error echoing the id.
    line.clear();
    stream
        .write_all(b"{\"op\":\"run\",\"id\":42,\"spec\":{\"engine\":\"quantum\"}}\n")
        .unwrap();
    reader.read_line(&mut line).unwrap();
    let doc = json::parse(line.trim()).unwrap();
    assert_eq!(doc.get("event").and_then(Json::as_str), Some("error"));
    assert_eq!(doc.get("id").and_then(Json::as_num), Some(42));

    // Unknown op.
    line.clear();
    stream.write_all(b"{\"op\":\"teleport\"}\n").unwrap();
    reader.read_line(&mut line).unwrap();
    let doc = json::parse(line.trim()).unwrap();
    assert_eq!(doc.get("event").and_then(Json::as_str), Some("error"));

    // Run one real job, then check stats reflect it.
    let spec = JobSpec {
        n: 400,
        k: 2,
        bias: Some(80),
        trials: 2,
        max_rounds: 5_000,
        ..JobSpec::default()
    };
    let (_, done) = submit(&mut stream, 1, &spec);
    assert_eq!(done.get("event").and_then(Json::as_str), Some("done"));

    line.clear();
    stream.write_all(b"{\"op\":\"stats\"}\n").unwrap();
    reader.read_line(&mut line).unwrap();
    let doc = json::parse(line.trim()).unwrap();
    assert_eq!(doc.get("event").and_then(Json::as_str), Some("stats"));
    let cache = doc.get("cache").expect("cache stats");
    assert!(num(cache, "misses") >= 1);
    let report = doc.get("report").expect("metrics report");
    assert_eq!(
        report.get("schema").and_then(Json::as_str),
        Some("plurality-metrics/v1")
    );
    let counters = report.get("counters").expect("counters");
    assert_eq!(num(counters, "jobs_completed"), 1);
    assert_eq!(num(counters, "trials_run"), 2);

    plurality_server::send_shutdown(&addr.to_string()).expect("shutdown");
    // Both halves of the socket must close for the server's connection
    // handler to see EOF and release its queue handle.
    drop(reader);
    drop(stream);
    handle.join().expect("server thread");
}
