//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host fingerprint, then, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.  Exits 1 if a
//! correctness gate fails and 2 on bad arguments.

use perfbench::report::Report;
use perfbench::spans::Tracer;
use perfbench::workloads::{self, Scale};
use perfbench::{agent, host, layers, serve};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

const USAGE: &str = "usage: perfbench --workload <agent-clique|agent-sparse|serve-mixed> \
                     --seed <n> --seconds <s> --trace <0|1> [--tiny]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                });
            }
            "--tiny" => scale = Scale::Tiny,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
    })
}

fn run(args: &Args, tracer: &mut Tracer, report: &mut Report) -> Result<(), String> {
    match args.workload.as_str() {
        "agent-clique" | "agent-sparse" => {
            let w = if args.workload == "agent-clique" {
                workloads::agent_clique(args.scale)
            } else {
                workloads::agent_sparse(args.scale)
            };
            tracer.span(w.name, |t| {
                agent::measure(&w, args.seed, args.seconds, t, report)
            })?;
        }
        _ => {
            let w = workloads::serve_mixed(args.scale);
            tracer.span("serve-mixed", |t| {
                serve::measure(&w, args.seed, args.seconds, t, report)
            })?;
        }
    }
    Ok(())
}

/// Write the traced run's spans to `perfbench/out/` inside the checkout.
fn write_spans(args: &Args, tracer: &Tracer) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, tracer.to_jsonl())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        tracer.spans().len(),
        path.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--host-probe") {
        let seed = argv.get(2).and_then(|s| s.parse().ok()).unwrap_or(1);
        host::probe_main(seed);
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let mut report = Report::default();
    if !args.trace {
        if let Err(e) = run(&args, &mut tracer, &mut report) {
            report.gate(Err(e));
        }
        report.metric("peak_rss_mb", host::peak_rss_mib(), "MiB");
    }
    match host::measure_ceilings(args.seed) {
        Ok(c) => {
            println!("{}", host::fingerprint_line(&c));
            if args.trace {
                let traced = tracer.span("traced_run", |t| {
                    layers::traced_run(&args.workload, args.scale, args.seed, &c, t, &mut report)
                });
                report.gate(traced);
            }
        }
        Err(e) => report.gate(Err(e)),
    }
    if args.trace {
        report.gate(write_spans(&args, &tracer));
    }
    for msg in &report.gate_failures {
        eprintln!("perfbench: gate failed: {msg}");
    }
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
