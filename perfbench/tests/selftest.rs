//! Seconds-long self-test of the benchmark at tiny sizes: every workload
//! emits every metric `BENCHMARK.json` lists, with its unit, in both the
//! untraced and the traced run, and every correctness gate fires on a
//! deliberately wrong expectation.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use perfbench::gates;
use perfbench::report::Report;
use perfbench::spans::Tracer;
use perfbench::workloads::{self, Scale};
use perfbench::{agent, serve};
use plurality_server::wire::{trial_line, JobId};
use plurality_server::{run_job, StateCache};
use std::process::Command;

/// Value of `"key": "…"` on one line of `BENCHMARK.json`.
fn field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let len = line[start..].find('"')?;
    Some(line[start..start + len].to_string())
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section is present");
    let body = &text[start..];
    let end = body.find(']').expect("section list closes");
    let mut out: Vec<_> = body[..end]
        .lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect();
    out.sort();
    out
}

/// `(name, unit)` of every metric in a result line.
fn emitted(line: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find(":{\"value\":") {
        let before = &rest[..at];
        let name_end = before.len() - 1;
        let name_start = before[..name_end].rfind('"').expect("quoted name") + 1;
        let after = &rest[at..];
        let unit_start = after.find("\"unit\":\"").expect("unit follows value") + 8;
        let unit_len = after[unit_start..].find('"').expect("unit closes");
        out.push((
            before[name_start..name_end].to_string(),
            after[unit_start..unit_start + unit_len].to_string(),
        ));
        rest = &after[unit_start + unit_len..];
    }
    out.sort();
    out
}

#[test]
fn every_workload_emits_every_listed_metric() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let expected = listed(section);
        assert!(!expected.is_empty(), "{section} lists no metrics");
        for workload in workloads::NAMES {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
                .args(["--trace", trace, "--tiny"])
                .output()
                .expect("the benchmark binary runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            assert!(
                out.status.success() && last.starts_with("{\"correct\":true,"),
                "{workload} --trace {trace} failed: {last}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert_eq!(emitted(last), expected, "{workload} --trace {trace}");
        }
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload agent-clique --seed x --seconds 1 --trace 0",
        "--workload agent-clique --seed 1 --seconds 1",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args.split_whitespace())
            .output()
            .expect("the benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn agent_gates_fire_on_wrong_expectations() {
    let w = workloads::agent_sparse(Scale::Tiny);
    let mut report = Report::default();
    let trials =
        agent::measure(&w, 9, 0.2, &mut Tracer::new(false), &mut report).expect("tiny agent run");
    assert!(report.correct(), "{:?}", report.gate_failures);
    assert!(gates::winner_is_initial_plurality(&trials).is_ok());
    assert!(gates::thread_invariant(&trials).is_ok());

    let mut wrong_plurality = trials.clone();
    for t in &mut wrong_plurality {
        t.initial_plurality = (t.initial_plurality + 1) % w.k;
    }
    assert!(gates::winner_is_initial_plurality(&wrong_plurality).is_err());

    let mut drifted = trials.clone();
    drifted[1].rounds += 1;
    assert!(gates::thread_invariant(&drifted).is_err());

    let mut report = Report::default();
    let wrong_draws = workloads::AgentWorkload {
        samples_per_update: w.samples_per_update + 1,
        ..w
    };
    agent::engine_cells(&wrong_draws, 9, &mut Tracer::new(false), &mut report)
        .expect("tiny engine cells");
    assert!(!report.correct(), "samples-per-update gate did not fire");
}

#[test]
fn serve_gates_fire_on_wrong_expectations() {
    let w = workloads::serve_mixed(Scale::Tiny);
    let pass = serve::run_pass(&w, 9, &mut Tracer::new(false)).expect("tiny serve pass");
    assert_eq!(pass.failed, 0);
    assert!(pass.jobs_gate.is_ok() && pass.rows_gate.is_ok());
    assert!(gates::jobs_complete(pass.submitted, pass.submitted, 0, 0).is_ok());
    assert!(gates::jobs_complete(pass.submitted + 1, pass.submitted, 0, 0).is_err());
    assert!(gates::jobs_complete(pass.submitted, pass.submitted, 0, 1).is_err());

    let lag_p99 = perfbench::stats::quantile(&pass.send_lag_ms, 0.99);
    assert!(gates::send_lag_within(lag_p99, w.max_send_lag_p99_ms).is_ok());
    assert!(gates::send_lag_within(lag_p99, -1.0).is_err());

    let rows = |seed: u64| {
        let spec = plurality_server::JobSpec {
            seed,
            ..w.spec.clone()
        };
        let mut out = Vec::new();
        run_job(&spec, &StateCache::new(), |r| {
            out.push(trial_line(&JobId::Num(1), r))
        })
        .expect("in-process job");
        out
    };
    assert!(gates::rows_match(&rows(1), &rows(1)).is_ok());
    assert!(gates::rows_match(&rows(1), &rows(2)).is_err());

    // A pass that lost jobs still reports how many it attempted and lost.
    let submitted = pass.submitted;
    let lost = serve::ServeOutcome {
        failed: 2,
        jobs_gate: gates::jobs_complete(submitted, submitted - 2, 0, 0),
        ..pass
    };
    let mut report = Report::default();
    lost.record(&mut report);
    assert_eq!((report.attempted, report.failed), (submitted, 2));
    assert!(!report.correct());
}
