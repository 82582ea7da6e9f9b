//! End-to-end smokes for the CLI binary: every surface the observability
//! layer added — `--metrics`, `--metrics-out`, `gossip --topology`, and
//! the `experiment` subcommand — runs through the real executable, and
//! the JSONL artifact round-trips through the schema validator.  The
//! trial commands are also pinned against `run_job` on the spec their
//! flags and defaults map to, and refused specs must exit 2 without a
//! panic.

use std::process::{Command, Output};

use plurality_analysis::{fmt_f64, Summary};
use plurality_gossip::ExchangeMode;
use plurality_server::{run_job, EngineKind, JobSpec, StateCache, TrialRow};
use plurality_telemetry::{Counter, MetricsReport};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_plurality-cli"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "exit {:?}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The cells of every markdown table row in `text`.
fn table_rows(text: &str) -> Vec<Vec<String>> {
    text.lines()
        .filter(|line| line.starts_with("| "))
        .map(|line| {
            line.trim_matches('|')
                .split('|')
                .map(|cell| cell.trim().to_string())
                .collect()
        })
        .collect()
}

/// The rows `run_job` streams for `spec`, in trial order.
fn job_rows(spec: &JobSpec) -> Vec<TrialRow> {
    let mut rows = Vec::new();
    run_job(spec, &StateCache::new(), |row| rows.push(row.clone())).expect("job runs");
    rows
}

#[test]
fn gossip_rows_match_run_job_for_the_same_spec() {
    // --trials and --k are left to the CLI defaults (20 trials, 8
    // colors); --threads 2 runs whole trials on two threads.
    let out = run(&[
        "gossip",
        "--n",
        "600",
        "--bias",
        "240",
        "--seed",
        "5",
        "--mode",
        "push-pull",
        "--topology",
        "random-regular",
        "--degree",
        "6",
        "--failure",
        "edge:loss=0.0..0.3",
        "--fast-frac",
        "0.25",
        "--fast-rate",
        "4",
        "--max-rounds",
        "20000",
        "--threads",
        "2",
    ]);
    let text = stdout(&out);
    let expected = job_rows(&JobSpec {
        engine: EngineKind::Gossip,
        n: 600,
        bias: Some(240),
        seed: 5,
        mode: ExchangeMode::PushPull,
        topology: "random-regular".into(),
        degree: 6,
        failure: Some("edge:loss=0.0..0.3".into()),
        fast_frac: 0.25,
        fast_rate: 4.0,
        max_rounds: 20_000,
        trials: 20,
        ..JobSpec::default()
    });
    let rows: Vec<Vec<String>> = table_rows(&text)
        .into_iter()
        .filter(|cells| cells.len() == 11 && cells[0].parse::<usize>().is_ok())
        .collect();
    assert_eq!(rows.len(), expected.len(), "per-trial rows:\n{text}");
    for (cells, row) in rows.iter().zip(&expected) {
        let s = row.gossip.as_ref().expect("gossip rows carry stats");
        let want = [
            row.trial.to_string(),
            if row.converged {
                row.rounds.to_string()
            } else {
                format!(">{} (cap)", row.rounds)
            },
            row.winner.map_or("-".into(), |w| w.to_string()),
            if row.success { "WON" } else { "lost" }.to_string(),
            s.activations.to_string(),
            s.messages.to_string(),
            s.lost_messages.to_string(),
            s.delayed_messages.to_string(),
            s.superseded_commits.to_string(),
            s.inbox_served.to_string(),
            s.starved_updates.to_string(),
        ];
        assert_eq!(cells[..], want[..], "trial {}", row.trial);
    }
}

#[test]
fn run_agent_statistics_match_run_job_for_the_same_spec() {
    // --trials, --bias and --topology are left to the CLI defaults: 50
    // trials at the auto bias on the clique.
    let out = run(&[
        "run",
        "--engine",
        "agent",
        "--n",
        "2000",
        "--k",
        "3",
        "--seed",
        "11",
        "--threads",
        "2",
    ]);
    let text = stdout(&out);
    let rows = job_rows(&JobSpec {
        engine: EngineKind::Agent,
        n: 2000,
        k: 3,
        seed: 11,
        trials: 50,
        ..JobSpec::default()
    });
    let mut rounds = Summary::new();
    for r in rows.iter().filter(|r| r.converged) {
        rounds.push(r.rounds as f64);
    }
    let wins = rows.iter().filter(|r| r.success).count();
    let cell = |metric: &str| {
        table_rows(&text)
            .into_iter()
            .find(|cells| cells[0] == metric)
            .unwrap_or_else(|| panic!("no '{metric}' row:\n{text}"))[1]
            .clone()
    };
    assert_eq!(cell("converged"), format!("{}/50", rounds.count()));
    assert_eq!(cell("plurality wins"), format!("{wins}/50"));
    assert_eq!(cell("mean rounds"), fmt_f64(rounds.mean()));
}

#[test]
fn refused_specs_exit_2_with_an_error_and_no_panic() {
    for args in [
        &["run", "--n", "1000", "--topology", "ring"][..],
        &["hist", "--n", "1000", "--topology", "torus"],
        &["run", "--n", "1000", "--k", "0"],
        &[
            "gossip",
            "--n",
            "1000",
            "--churn",
            "crash:0.01",
            "--fast-frac",
            "0.25",
            "--fast-rate",
            "4",
        ],
        &[
            "gossip",
            "--n",
            "1000",
            "--churn",
            "join:0.1,spare=10,init=undecided",
        ],
        &[
            "gossip",
            "--n",
            "1000",
            "--mode",
            "push",
            "--dynamics",
            "h-plurality",
            "--h",
            "9",
        ],
    ] {
        let out = run(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}:\n{err}");
        assert!(err.contains("error:"), "{args:?}: no error line:\n{err}");
        assert!(!err.contains("panicked"), "{args:?} panicked:\n{err}");
    }
}

#[test]
fn run_with_metrics_summary_prints_counters() {
    let out = run(&[
        "run",
        "--n",
        "20000",
        "--k",
        "3",
        "--trials",
        "4",
        "--seed",
        "7",
        "--metrics",
        "summary",
    ]);
    let text = stdout(&out);
    // The stats table and the telemetry table both render.
    assert!(text.contains("win rate"), "stats table missing:\n{text}");
    assert!(text.contains("rounds"), "counter rows missing:\n{text}");
    assert!(
        text.contains("completed_ticks"),
        "gauge rows missing:\n{text}"
    );
}

#[test]
fn metrics_out_writes_schema_valid_jsonl() {
    let dir = std::env::temp_dir().join(format!("plurality-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("metrics.jsonl");
    let path_s = path.to_str().unwrap();

    // --metrics-out alone must record (no --metrics needed).
    let out = run(&[
        "gossip",
        "--n",
        "400",
        "--k",
        "2",
        "--trials",
        "3",
        "--seed",
        "9",
        "--mode",
        "push-pull",
        "--loss",
        "0.2",
        "--metrics-out",
        path_s,
    ]);
    stdout(&out);

    let line = std::fs::read_to_string(&path).expect("metrics file written");
    assert_eq!(line.lines().count(), 1, "one JSONL line");
    let report = MetricsReport::from_json(line.lines().next().unwrap())
        .expect("line validates against plurality-metrics/v1");
    // The merged fleet report reconciles: every sent leg was delivered
    // or attributed to a failure layer.
    assert!(report.counter(Counter::PullSent) > 0);
    assert_eq!(
        report.counter(Counter::PullSent),
        report.counter(Counter::PullDelivered) + report.counter(Counter::PullLost)
    );
    assert!(
        report.counter(Counter::PullLost) > 0,
        "20% loss over 3 trials must drop something"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gossip_topology_flag_selects_the_graph() {
    for (topo, expect) in [
        ("ring", "ring(n=300)"),
        ("torus", "torus(15x20)"),
        ("random-regular", "regular(n=300,d=8)"),
    ] {
        let out = run(&[
            "gossip",
            "--n",
            "300",
            "--k",
            "2",
            "--trials",
            "2",
            "--seed",
            "5",
            "--topology",
            topo,
        ]);
        let text = stdout(&out);
        assert!(
            text.contains(expect),
            "--topology {topo}: expected '{expect}' in title:\n{text}"
        );
    }
}

#[test]
fn gossip_topology_rejects_bad_input() {
    let out = run(&["gossip", "--n", "300", "--topology", "hypercube"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--topology"), "unhelpful error:\n{err}");

    // 251 is prime: no torus factorization with both sides >= 3.
    let out = run(&["gossip", "--n", "251", "--topology", "torus"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("torus"), "unhelpful error:\n{err}");
}

#[test]
fn experiment_subcommand_runs_and_reports_metrics() {
    let dir = std::env::temp_dir().join(format!("plurality-cli-e17-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("e17.jsonl");
    let path_s = path.to_str().unwrap();

    let out = run(&[
        "experiment",
        "e17",
        "--smoke",
        "--metrics",
        "summary",
        "--metrics-out",
        path_s,
    ]);
    let text = stdout(&out);
    assert!(text.contains("e17"), "experiment header missing:\n{text}");
    assert!(text.contains("msg tax"), "grid table missing:\n{text}");
    assert!(
        text.contains("lost_ge_chain"),
        "per-layer attribution missing from telemetry summary:\n{text}"
    );

    let line = std::fs::read_to_string(&path).expect("metrics file written");
    let report = MetricsReport::from_json(line.trim()).expect("schema-valid");
    assert!(report.counter(Counter::PullSent) > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inbox_policies_random_replace_and_ttl_run_end_to_end() {
    // `from_name` accepts four policies; the two beyond drop-oldest /
    // drop-newest must work through the real binary, not just the API.
    for policy in ["random-replace", "ttl=3"] {
        let out = run(&[
            "gossip",
            "--n",
            "300",
            "--k",
            "2",
            "--trials",
            "2",
            "--seed",
            "5",
            "--mode",
            "push",
            "--delay",
            "0.3",
            "--inbox-policy",
            policy,
        ]);
        let text = stdout(&out);
        assert!(
            text.contains("win rate"),
            "--inbox-policy {policy} failed:\n{text}"
        );
    }

    // And the help text documents every accepted name.
    let out = run(&["--help"]);
    let help = String::from_utf8_lossy(&out.stderr);
    for name in ["drop-oldest", "drop-newest", "random-replace", "ttl=T"] {
        assert!(
            help.contains(name),
            "help text missing inbox policy '{name}':\n{help}"
        );
    }
}

#[test]
fn gossip_churn_flag_runs_and_reports_membership() {
    let out = run(&[
        "gossip",
        "--n",
        "400",
        "--k",
        "3",
        "--trials",
        "2",
        "--seed",
        "11",
        "--churn",
        "crash:0.05;rejoin:0.3,state=fresh;join:0.2,spare=20,attach=4,init=copy",
    ]);
    let text = stdout(&out);
    assert!(
        text.contains("churn = crash:0.05"),
        "churn label missing from title:\n{text}"
    );
    assert!(
        text.contains("churn events"),
        "membership summary row missing:\n{text}"
    );
    assert!(
        text.contains("mean final alive"),
        "final-alive row missing:\n{text}"
    );

    // Bad DSL and illegal combinations fail with a pointed message.
    let out = run(&["gossip", "--n", "300", "--churn", "crash:-1"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--churn"), "unhelpful error:\n{err}");

    let out = run(&[
        "gossip",
        "--n",
        "300",
        "--churn",
        "crash:0.01",
        "--fast-frac",
        "0.25",
        "--fast-rate",
        "4",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("heterogeneous"),
        "churn × rates guard missing:\n{err}"
    );
}

#[test]
fn serve_and_bench_client_round_trip() {
    use std::io::{BufRead, BufReader};

    let mut serve = Command::new(env!("CARGO_BIN_EXE_plurality-cli"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("serve starts");
    // Keep the pipe's read end open until serve exits — dropping it
    // early makes the server's final println panic on a broken pipe.
    let mut serve_out = BufReader::new(serve.stdout.take().unwrap());
    let mut first = String::new();
    serve_out.read_line(&mut first).expect("listening line");
    let addr = first
        .split("listening on ")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .unwrap_or_else(|| panic!("unparseable listening line: {first:?}"))
        .to_string();

    let dir = std::env::temp_dir().join(format!("plurality-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bench.json");
    let out = run(&[
        "bench-client",
        "--addr",
        &addr,
        "--freq",
        "40",
        "--secs",
        "2",
        "--probe",
        "2",
        "--n",
        "300",
        "--k",
        "2",
        "--trials",
        "2",
        "--bench-out",
        path.to_str().unwrap(),
        "--shutdown",
    ]);
    let text = stdout(&out);
    assert!(
        text.contains("open-loop:"),
        "latency report missing:\n{text}"
    );
    assert!(text.contains("p50"), "percentiles missing:\n{text}");
    assert!(text.contains("cache probe"), "probe line missing:\n{text}");
    // The per-second progress line must fire (and not deadlock: it once
    // self-locked the client state mutex twice in one statement).
    assert!(
        text.contains("submitted="),
        "progress line missing:\n{text}"
    );

    let json = std::fs::read_to_string(&path).expect("bench-out written");
    assert!(json.contains("\"schema\":\"plurality-bench-server/v1\""));
    assert!(json.contains("\"cache_probe\""));
    assert!(json.contains("\"throughput_per_sec\""));

    // --shutdown drains the server: the serve process must exit cleanly.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        match serve.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "serve exited with {status:?}");
                break;
            }
            None if std::time::Instant::now() > deadline => {
                serve.kill().ok();
                panic!("serve did not exit within 60s of shutdown");
            }
            None => std::thread::sleep(std::time::Duration::from_millis(50)),
        }
    }
    drop(serve_out);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn experiment_rejects_unknown_id() {
    let out = run(&["experiment", "e99", "--smoke"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("e99"), "unhelpful error:\n{err}");
}
