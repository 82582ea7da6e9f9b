//! The `serve-mixed` workload: an in-process job server on loopback,
//! driven over one connection by an open-loop generator and then by
//! closed loops.

use crate::gates;
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{median, quantile};
use crate::workloads::{
    cold_seed, setup_seed, warm_seed, ServeWorkload, COLD_EVERY, SERVER_WORKERS, SERVE_SETUPS,
    WARM_SEEDS,
};
use plurality_server::wire::{trial_line, JobId};
use plurality_server::{run_job, JobSpec, Server, StateCache};
use plurality_telemetry::json::{self, Json};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long outstanding jobs may take to finish after the last send.
const DRAIN: Duration = Duration::from_secs(10);

/// What the client learned about one job.
#[derive(Debug, Clone)]
struct JobRecord {
    /// When the job was due to be sent.
    scheduled: Instant,
    /// Whether its seed was fresh (a cache miss).
    cold: bool,
    /// Trial lines received, verbatim.
    rows: Vec<String>,
    /// Simulated ticks summed over its trials (`final_time`).
    ticks: f64,
    /// When its `done` line arrived.
    done_at: Option<Instant>,
    /// Trials the `done` line reports.
    trials: u64,
    /// Server-side set-up and run nanoseconds from the `done` line.
    setup_ns: u64,
    /// See `setup_ns`.
    run_ns: u64,
    /// Whether an `error` line arrived for it.
    error: bool,
}

impl JobRecord {
    fn new(scheduled: Instant, cold: bool) -> Self {
        Self {
            scheduled,
            cold,
            rows: Vec::new(),
            ticks: 0.0,
            done_at: None,
            trials: 0,
            setup_ns: 0,
            run_ns: 0,
            error: false,
        }
    }

    /// Finished, with a `done` or an `error` line.
    #[must_use]
    fn finished(&self) -> bool {
        self.done_at.is_some() || self.error
    }

    /// Scheduled send to `done`, milliseconds.
    #[must_use]
    fn latency_ms(&self) -> Option<f64> {
        self.done_at
            .map(|d| d.duration_since(self.scheduled).as_secs_f64() * 1e3)
    }
}

/// One client connection: lines are written from the caller's thread and
/// read, with their arrival time, by a reader thread.
struct Client {
    stream: TcpStream,
    rx: Receiver<(Instant, String)>,
    reader: JoinHandle<()>,
    jobs: HashMap<u64, JobRecord>,
    other: Vec<String>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        let read_half = stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        let (tx, rx) = channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(read_half).lines() {
                let Ok(line) = line else { break };
                if tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        });
        Ok(Self {
            stream,
            rx,
            reader,
            jobs: HashMap::new(),
            other: Vec::new(),
        })
    }

    fn send_line(&mut self, line: &str) -> Result<(), String> {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// Submit job `id` (due at `scheduled`); returns the actual send time.
    fn submit(
        &mut self,
        id: u64,
        spec: &JobSpec,
        scheduled: Instant,
        cold: bool,
    ) -> Result<Instant, String> {
        self.jobs.insert(id, JobRecord::new(scheduled, cold));
        let line = format!("{{\"op\":\"run\",\"id\":{id},\"spec\":{}}}", spec.to_json());
        let sent = Instant::now();
        self.send_line(&line)?;
        Ok(sent)
    }

    fn absorb(&mut self, at: Instant, line: String) -> Result<(), String> {
        let doc = json::parse(&line).map_err(|e| format!("bad server line {line:?}: {e}"))?;
        let event = doc.get("event").and_then(Json::as_str).unwrap_or("");
        let id = doc
            .get("id")
            .and_then(Json::as_num)
            .and_then(|v| u64::try_from(v).ok());
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_num)
                .and_then(|v| u64::try_from(v).ok())
                .unwrap_or(0)
        };
        match (event, id.and_then(|id| self.jobs.get_mut(&id))) {
            ("trial", Some(job)) => {
                job.ticks += doc
                    .get("final_time")
                    .and_then(Json::as_str)
                    .and_then(|s| s.parse::<f64>().ok())
                    .unwrap_or(0.0);
                job.rows.push(line);
            }
            ("done", Some(job)) => {
                job.done_at = Some(at);
                job.trials = num("trials");
                job.setup_ns = num("setup_ns");
                job.run_ns = num("run_ns");
            }
            ("error", Some(job)) => job.error = true,
            _ => self.other.push(line),
        }
        Ok(())
    }

    /// Absorb lines until `until` (or until `stop` holds).
    fn pump(&mut self, until: Instant, stop: impl Fn(&Self) -> bool) -> Result<(), String> {
        while !stop(self) {
            let now = Instant::now();
            if now >= until {
                return Ok(());
            }
            match self.rx.recv_timeout(until - now) {
                Ok((at, line)) => self.absorb(at, line)?,
                Err(RecvTimeoutError::Timeout) => return Ok(()),
                Err(RecvTimeoutError::Disconnected) => {
                    return Err("server closed the connection".into())
                }
            }
        }
        Ok(())
    }

    /// Wait for a non-job line (`bye`, `stats`) starting with `prefix`.
    fn await_other(&mut self, prefix: &str, timeout: Duration) -> Result<String, String> {
        let until = Instant::now() + timeout;
        self.pump(until, |c| c.other.iter().any(|l| l.starts_with(prefix)))?;
        let pos = self
            .other
            .iter()
            .position(|l| l.starts_with(prefix))
            .ok_or_else(|| format!("no {prefix} line within {timeout:?}"))?;
        Ok(self.other.remove(pos))
    }

    fn unfinished(&self) -> usize {
        self.jobs.values().filter(|j| !j.finished()).count()
    }

    /// Ask the server to stop, then close this connection.
    fn shutdown_server(mut self) -> Result<HashMap<u64, JobRecord>, String> {
        self.send_line("{\"op\":\"shutdown\"}")?;
        self.await_other("{\"event\":\"bye\"", Duration::from_secs(30))?;
        let _ = self.stream.shutdown(Shutdown::Both);
        self.reader
            .join()
            .map_err(|_| "client reader thread panicked".to_string())?;
        Ok(self.jobs)
    }
}

/// A server under test plus the one client connection driving it.
struct Session {
    client: Client,
    server: JoinHandle<()>,
    next_id: u64,
}

impl Session {
    /// Bind a server, connect, and run one warm-up job to completion.
    fn start(warm: &JobSpec) -> Result<Self, String> {
        let (addr, server) =
            Server::spawn("127.0.0.1:0", SERVER_WORKERS).map_err(|e| format!("bind: {e}"))?;
        let mut client = Client::connect(addr)?;
        client.submit(0, warm, Instant::now(), true)?;
        client.pump(Instant::now() + Duration::from_secs(30), |c| {
            c.unfinished() == 0
        })?;
        if client.jobs.get(&0).and_then(|j| j.done_at).is_none() {
            return Err("warm-up job did not finish".into());
        }
        Ok(Self {
            client,
            server,
            next_id: 1,
        })
    }

    /// Run one job per warm seed, so every warm lookup after this hits
    /// the cache, then forget the warm-up jobs: only later jobs count.
    fn prime(&mut self, mix: &Mix) -> Result<(), String> {
        for j in 0..WARM_SEEDS {
            let id = self.next_id;
            self.next_id += 1;
            let spec = mix.with_seed(warm_seed(mix.seed, j));
            self.client.submit(id, &spec, Instant::now(), false)?;
        }
        self.client
            .pump(Instant::now() + Duration::from_secs(60), |c| {
                c.unfinished() == 0
            })?;
        if self.client.jobs.values().any(|j| j.done_at.is_none()) {
            return Err("a cache-priming job did not finish".into());
        }
        self.client.jobs.clear();
        Ok(())
    }

    fn stop(self) -> Result<HashMap<u64, JobRecord>, String> {
        let jobs = self.client.shutdown_server()?;
        self.server
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        Ok(jobs)
    }
}

/// The traffic mix: job `id`'s spec and whether it is cold.
struct Mix {
    spec: JobSpec,
    seed: u64,
}

impl Mix {
    fn with_seed(&self, seed: u64) -> JobSpec {
        JobSpec {
            seed,
            ..self.spec.clone()
        }
    }

    fn job(&self, id: u64) -> (JobSpec, bool) {
        if id % COLD_EVERY == COLD_EVERY - 1 {
            (self.with_seed(cold_seed(self.seed, id)), true)
        } else {
            (self.with_seed(warm_seed(self.seed, id)), false)
        }
    }
}

/// Everything the serve pass measured, for the end-to-end metrics and
/// the traced run's server cells.
pub struct ServeOutcome {
    /// Seconds of each timed set-up (bind + connect + warm-up job).
    pub setups_s: Vec<f64>,
    /// Open-loop latencies from scheduled send, ms.
    pub open_latency_ms: Vec<f64>,
    /// Open-loop queue waits (latency minus server set-up and run), ms.
    pub queue_wait_ms: Vec<f64>,
    /// Open-loop send lags (actual minus scheduled send), ms.
    pub send_lag_ms: Vec<f64>,
    /// Server-side run seconds per trial of each warm job.
    pub trial_s: Vec<f64>,
    /// ms per simulated tick of each closed-loop job (2 outstanding).
    pub tick_ms: Vec<f64>,
    /// Closed-loop completions/s with 2 jobs outstanding.
    pub capacity_jobs_s: f64,
    /// Cache hits and misses from the `stats` op.
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
    /// Traced ÷ untraced wall per closed-loop job (traced passes only).
    pub trace_overhead: Option<f64>,
    /// Jobs submitted, and jobs that failed (error, short, or missing).
    pub submitted: u64,
    /// See `submitted`.
    pub failed: u64,
    /// Gate: every job ended in `done` with all its rows.
    pub jobs_gate: Result<(), String>,
    /// Gate: a warm job's rows equal an in-process `run_job`.
    pub rows_gate: Result<(), String>,
}

impl ServeOutcome {
    /// Count the pass's jobs into `report` and apply its gates.
    pub fn record(&self, report: &mut Report) {
        report.attempted += self.submitted;
        report.failed += self.failed;
        report.gate(self.jobs_gate.clone());
        report.gate(self.rows_gate.clone());
    }
}

/// Completions of one or more closed-loop stretches and the wall time
/// they took.
#[derive(Default)]
struct ClosedLoop {
    completed: u64,
    wall_s: f64,
    ids: Vec<u64>,
}

impl ClosedLoop {
    fn rate(&self) -> f64 {
        self.completed as f64 / self.wall_s
    }

    fn absorb(&mut self, other: Self) {
        self.completed += other.completed;
        self.wall_s += other.wall_s;
        self.ids.extend(other.ids);
    }
}

/// The closed loop: keep one job outstanding per server worker for
/// `secs` seconds, then let the last ones finish.  Wall time runs to the
/// last `done`.  When tracing, each job's span is recorded as it
/// finishes, inside the timed window.  If no job finishes for 30 s the
/// loop stops; the unfinished jobs then fail the jobs gate.
fn closed_loop(
    session: &mut Session,
    mix: &Mix,
    secs: f64,
    tracer: &mut Tracer,
) -> Result<ClosedLoop, String> {
    let first = session.next_id;
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    let mut in_flight: Vec<u64> = Vec::new();
    let mut completed = 0u64;
    let mut last_done = start;
    loop {
        while Instant::now() < end && in_flight.len() < SERVER_WORKERS {
            let id = session.next_id;
            session.next_id += 1;
            let (spec, cold) = mix.job(id);
            session.client.submit(id, &spec, Instant::now(), cold)?;
            in_flight.push(id);
        }
        if in_flight.is_empty() {
            break;
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        session.client.pump(deadline, |c| {
            in_flight.iter().any(|id| c.jobs[id].finished())
        })?;
        let finished: Vec<u64> = in_flight
            .iter()
            .copied()
            .filter(|id| session.client.jobs[id].finished())
            .collect();
        if finished.is_empty() {
            // Stalled: stop here, and let the jobs gate count what is lost.
            break;
        }
        in_flight.retain(|id| !finished.contains(id));
        for id in finished {
            let job = &session.client.jobs[&id];
            completed += 1;
            if let Some(done) = job.done_at {
                last_done = last_done.max(done);
                if tracer.enabled() {
                    tracer.record(&format!("server.job id={id}"), job.scheduled, done);
                }
            }
        }
    }
    Ok(ClosedLoop {
        completed,
        wall_s: last_done.duration_since(start).as_secs_f64(),
        ids: (first..session.next_id).collect(),
    })
}

/// One closed-loop phase of `secs` seconds, added to `parts` (untraced,
/// traced).  A traced pass splits the phase into four stretches, traced
/// and untraced in ABBA order, so a steady drift of the host falls on
/// both alike.
fn closed_phase(
    session: &mut Session,
    mix: &Mix,
    secs: f64,
    tracer: &mut Tracer,
    parts: &mut [ClosedLoop; 2],
) -> Result<(), String> {
    if !tracer.enabled() {
        parts[0].absorb(closed_loop(session, mix, secs, tracer)?);
        return Ok(());
    }
    for traced in [true, false, false, true] {
        if traced {
            parts[1].absorb(tracer.span("client.closed_loop", |t| {
                closed_loop(session, mix, secs / 4.0, t)
            })?);
        } else {
            let mut off = Tracer::new(false);
            parts[0].absorb(closed_loop(session, mix, secs / 4.0, &mut off)?);
        }
    }
    Ok(())
}

/// Run the whole serve pass: set-up (timed [`SERVE_SETUPS`] times, half
/// before the pass and half after it), cache priming, the open loop
/// between the two halves of the closed loop (so the closed loop samples
/// the host at two moments), the rows check, `stats`.  Lost or short jobs
/// are counted in the outcome and fail its gates; only a broken
/// connection or protocol is an `Err`.
pub fn run_pass(w: &ServeWorkload, seed: u64, tracer: &mut Tracer) -> Result<ServeOutcome, String> {
    let mix = Mix {
        spec: w.spec.clone(),
        seed,
    };

    // Half the set-ups run first (the last server is kept) and the rest
    // after the pass, so `setup_s` samples the host at both ends of the
    // run rather than in one short window.
    let mut setups = Vec::new();
    let mut timed_setup = |rep: u64, tracer: &mut Tracer| {
        let warm_up = mix.with_seed(setup_seed(seed, rep));
        let t0 = Instant::now();
        let s = tracer.span("server.setup", |_| Session::start(&warm_up));
        setups.push(t0.elapsed().as_secs_f64());
        s
    };
    let mut session = None;
    for rep in 0..SERVE_SETUPS / 2 {
        if let Some(previous) = session.replace(timed_setup(rep, tracer)?) {
            previous.stop()?;
        }
    }
    let mut session = session.expect("at least one set-up ran");
    tracer.span("server.prime_cache", |_| session.prime(&mix))?;
    let mut closed = [ClosedLoop::default(), ClosedLoop::default()];
    closed_phase(
        &mut session,
        &mix,
        w.closed_loop_s / 2.0,
        tracer,
        &mut closed,
    )?;

    // Open loop: job i is due at start + i / rate, whatever the server
    // is doing; latency counts from that due time.
    let open_first = session.next_id;
    let mut send_lag_ms = Vec::with_capacity(w.open_loop_jobs);
    tracer.span("client.open_loop", |_| -> Result<(), String> {
        let start = Instant::now() + Duration::from_millis(5);
        for i in 0..w.open_loop_jobs {
            let due = start + Duration::from_secs_f64(i as f64 / w.rate_jobs_s);
            session.client.pump(due, |_| false)?;
            let id = session.next_id;
            session.next_id += 1;
            let (spec, cold) = mix.job(id);
            let sent = session.client.submit(id, &spec, due, cold)?;
            send_lag_ms.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        }
        session
            .client
            .pump(Instant::now() + DRAIN, |c| c.unfinished() == 0)
    })?;
    let open_ids: Vec<u64> = (open_first..session.next_id).collect();

    closed_phase(
        &mut session,
        &mix,
        w.closed_loop_s / 2.0,
        tracer,
        &mut closed,
    )?;
    let trace_overhead = tracer
        .enabled()
        .then(|| closed[0].rate() / closed[1].rate());
    let [mut closed, traced] = closed;
    closed.absorb(traced);

    // The rows a warm job streamed must equal an in-process run_job of
    // the same spec.
    let rows_gate = match open_ids.iter().find(|id| {
        let job = &session.client.jobs[id];
        !job.cold && job.done_at.is_some()
    }) {
        None => Err("no warm open-loop job finished".to_string()),
        Some(&id) => {
            let mut expected = Vec::new();
            tracer
                .span("server.run_job_in_process", |_| {
                    run_job(&mix.job(id).0, &StateCache::new(), |row| {
                        expected.push(trial_line(&JobId::Num(u128::from(id)), row));
                    })
                })
                .map_err(|e| format!("in-process run_job: {e}"))?;
            gates::rows_match(&session.client.jobs[&id].rows, &expected)
        }
    };

    session.client.send_line("{\"op\":\"stats\"}")?;
    let stats = session
        .client
        .await_other("{\"event\":\"stats\"", Duration::from_secs(30))?;
    let stats = json::parse(&stats).map_err(|e| format!("stats line: {e}"))?;
    let cache = |key: &str| -> u64 {
        stats
            .get("cache")
            .and_then(|c| c.get(key))
            .and_then(Json::as_num)
            .and_then(|v| u64::try_from(v).ok())
            .unwrap_or(0)
    };
    let (cache_hits, cache_misses) = (cache("hits"), cache("misses"));

    let jobs = tracer.span("server.shutdown", |_| session.stop())?;
    for rep in SERVE_SETUPS / 2..SERVE_SETUPS {
        timed_setup(rep, tracer)?.stop()?;
    }
    let submitted = jobs.len() as u64;
    let done = jobs.values().filter(|j| j.done_at.is_some()).count() as u64;
    let errors = jobs.values().filter(|j| j.error).count() as u64;
    let short = jobs
        .values()
        .filter(|j| {
            j.done_at.is_some()
                && (j.rows.len() as u64 != j.trials || j.trials != w.spec.trials as u64)
        })
        .count() as u64;

    let open: Vec<&JobRecord> = open_ids.iter().map(|id| &jobs[id]).collect();
    let open_latency_ms: Vec<f64> = open.iter().filter_map(|j| j.latency_ms()).collect();
    let queue_wait_ms = open
        .iter()
        .filter_map(|j| Some(j.latency_ms()? - (j.setup_ns + j.run_ns) as f64 / 1e6))
        .collect();
    let trial_s = open
        .iter()
        .filter(|j| !j.cold && j.done_at.is_some())
        .map(|j| j.run_ns as f64 / 1e9 / j.trials as f64)
        .collect();
    let tick_ms = closed
        .ids
        .iter()
        .map(|id| &jobs[id])
        .filter(|j| j.done_at.is_some() && j.ticks > 0.0)
        .map(|j| j.run_ns as f64 / 1e6 / j.ticks)
        .collect();
    Ok(ServeOutcome {
        setups_s: setups,
        open_latency_ms,
        queue_wait_ms,
        send_lag_ms,
        trial_s,
        tick_ms,
        capacity_jobs_s: closed.rate(),
        cache_hits,
        cache_misses,
        trace_overhead,
        submitted,
        failed: submitted - done + short,
        jobs_gate: gates::jobs_complete(submitted, done, errors, short),
        rows_gate,
    })
}

/// The untraced measurement: one serve pass whose open loop fills the
/// `seconds` the closed loop leaves, reported as the end-to-end metrics.
/// A pass that lost jobs fails its gate and reports no latencies.
pub fn measure(
    w: &ServeWorkload,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<ServeOutcome, String> {
    let open_s = (seconds - w.closed_loop_s).max(0.0);
    let w = ServeWorkload {
        open_loop_jobs: ((open_s * w.rate_jobs_s) as usize).max(1),
        ..w.clone()
    };
    let out = run_pass(&w, seed, tracer)?;
    out.record(report);
    if out.jobs_gate.is_err() {
        return Ok(out);
    }
    let lag_p99 = quantile(&out.send_lag_ms, 0.99);
    eprintln!(
        "perfbench: serve-mixed: {} open-loop jobs at {} jobs/s, send lag p99 {lag_p99:.3} ms \
         (bound {} ms), queue wait p50 {:.3} ms, set-ups {:.1?} ms",
        out.open_latency_ms.len(),
        w.rate_jobs_s,
        w.max_send_lag_p99_ms,
        median(&out.queue_wait_ms),
        out.setups_s.iter().map(|s| s * 1e3).collect::<Vec<_>>(),
    );
    report.gate(gates::send_lag_within(lag_p99, w.max_send_lag_p99_ms));
    report.metric("round_ms_t2", median(&out.tick_ms), "ms");
    report.metric("trial_s", median(&out.trial_s), "s");
    report.metric("setup_s", median(&out.setups_s), "s");
    report.metric("job_p50_ms", median(&out.open_latency_ms), "ms");
    report.metric("capacity_jobs_s", out.capacity_jobs_s, "jobs/s");
    Ok(out)
}
