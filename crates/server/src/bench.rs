//! Open-loop bench driver for the job server (à la summerset's bench
//! client): submit jobs at a fixed *target* frequency for a fixed
//! duration — never waiting for responses before the next send — and
//! measure sustained throughput plus client-observed job latency
//! percentiles from the PR 6 telemetry histogram.
//!
//! An optional **cache probe** runs first: `probe` jobs at distinct
//! seeds (cold — each salts a fresh random-regular wiring), then the
//! same seeds again (warm — every lookup hits), comparing median
//! server-side state-build time and median client latency.  With a
//! seed-independent topology (clique/ring/torus) only the first probe
//! job is cold; use `topology = random-regular` for a full cold set.

use crate::spec::JobSpec;
use plurality_telemetry::json::{self, escape, Json};
use plurality_telemetry::LogHistogram;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Bench run parameters.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Server address, e.g. `127.0.0.1:7117`.
    pub addr: String,
    /// Target submission frequency, jobs/second.
    pub freq: f64,
    /// Open-loop phase length, seconds.
    pub secs: f64,
    /// The job submitted repeatedly (the open-loop phase keeps its seed
    /// fixed, so a warm cache serves every submission).
    pub spec: JobSpec,
    /// Cold/warm probe jobs before the open-loop phase (0 disables).
    pub probe: usize,
    /// Print periodic stats lines while driving.
    pub progress: bool,
    /// Total attempt budget per connect/submit (≥ 1).  Failed attempts
    /// back off exponentially with jitter before retrying.
    pub attempts: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7117".into(),
            freq: 50.0,
            secs: 5.0,
            spec: JobSpec::default(),
            probe: 8,
            progress: true,
            attempts: 4,
        }
    }
}

/// Backoff ceiling — a retry never sleeps longer than this.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Jittered exponential backoff for 0-based `attempt`: `25ms · 2^a`
/// plus up to +50% jitter from the system clock's subsecond nanos (the
/// bench driver measures wall time anyway, so clock jitter is free and
/// keeps synchronized clients from hammering a recovering server in
/// lockstep), capped at [`BACKOFF_CAP`].
fn backoff(attempt: u32) -> Duration {
    let base_ms = 25u64.saturating_mul(1 << attempt.min(10));
    let jitter_ns = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| u64::from(d.subsec_nanos()));
    let jitter_ms = jitter_ns % (base_ms / 2).max(1);
    Duration::from_millis(base_ms + jitter_ms).min(BACKOFF_CAP)
}

/// Median build/latency over one probe phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Jobs probed.
    pub jobs: u64,
    /// Median server-side prebuilt-state build time, nanoseconds.
    pub median_build_ns: u64,
    /// Median client-observed submit→done latency, nanoseconds.
    pub median_latency_ns: u64,
}

/// The bench driver's result.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Jobs submitted during the open-loop phase.
    pub submitted: u64,
    /// Jobs that returned `done`.
    pub completed: u64,
    /// Jobs that returned `error`.
    pub errors: u64,
    /// Open-loop wall time (submission start to last completion), ns.
    pub elapsed_ns: u64,
    /// Sustained completions/second over the open-loop phase.
    pub throughput: f64,
    /// Client-observed submit→done latency distribution, ns.
    pub latency: LogHistogram,
    /// Cold probe phase (distinct seeds), when a probe ran.
    pub cold: Option<ProbeStats>,
    /// Warm probe phase (repeated seeds), when a probe ran.
    pub warm: Option<ProbeStats>,
}

impl BenchReport {
    /// Latency quantile in microseconds.
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> u64 {
        self.latency.quantile(q) / 1_000
    }

    /// Human-readable summary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = format!(
            "open-loop: {}/{} jobs completed ({} errors) in {:.2}s — {:.1} jobs/s sustained\n\
             latency: p50 {}us · p95 {}us · p99 {}us · max {}us\n",
            self.completed,
            self.submitted,
            self.errors,
            self.elapsed_ns as f64 / 1e9,
            self.throughput,
            self.quantile_us(0.50),
            self.quantile_us(0.95),
            self.quantile_us(0.99),
            self.latency.max() / 1_000,
        );
        if let (Some(cold), Some(warm)) = (&self.cold, &self.warm) {
            s.push_str(&format!(
                "cache probe ({} jobs): cold build {}us / latency {}us → warm build {}us / latency {}us\n",
                cold.jobs,
                cold.median_build_ns / 1_000,
                cold.median_latency_ns / 1_000,
                warm.median_build_ns / 1_000,
                warm.median_latency_ns / 1_000,
            ));
        }
        s
    }

    /// The `plurality-bench-server/v1` report that `--bench-out` writes
    /// (stays inside the workspace JSON subset: integers + decimal
    /// strings).
    #[must_use]
    pub fn to_json(&self, cfg: &BenchConfig) -> String {
        let mut s = format!(
            "{{\"schema\":\"plurality-bench-server/v1\",\
             \"note\":\"open-loop driver against plurality serve; latencies are \
             client-observed submit to done\",\
             \"config\":{{\"addr\":{},\"freq\":\"{}\",\"secs\":\"{}\",\"probe\":{},\"spec\":{}}},\
             \"open_loop\":{{\"submitted\":{},\"completed\":{},\"errors\":{},\
             \"elapsed_us\":{},\"throughput_per_sec\":\"{:.1}\",\
             \"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"max_us\":{}}}",
            escape(&cfg.addr),
            cfg.freq,
            cfg.secs,
            cfg.probe,
            cfg.spec.to_json(),
            self.submitted,
            self.completed,
            self.errors,
            self.elapsed_ns / 1_000,
            self.throughput,
            self.quantile_us(0.50),
            self.quantile_us(0.95),
            self.quantile_us(0.99),
            self.latency.max() / 1_000,
        );
        if let (Some(cold), Some(warm)) = (&self.cold, &self.warm) {
            s.push_str(&format!(
                ",\"cache_probe\":{{\"cold\":{{\"jobs\":{},\"median_build_us\":{},\
                 \"median_latency_us\":{}}},\"warm\":{{\"jobs\":{},\"median_build_us\":{},\
                 \"median_latency_us\":{}}}}}",
                cold.jobs,
                cold.median_build_ns / 1_000,
                cold.median_latency_ns / 1_000,
                warm.jobs,
                warm.median_build_ns / 1_000,
                warm.median_latency_ns / 1_000,
            ));
        }
        s.push('}');
        s
    }
}

/// What the reader thread tracks per in-flight job.
#[derive(Default)]
struct ClientState {
    pending: HashMap<u64, Instant>,
    latency: LogHistogram,
    /// Per-job `(latency_ns, build_ns)` — kept only during probes.
    probe_rows: Vec<(u64, u64)>,
    keep_probe_rows: bool,
    completed: u64,
    errors: u64,
    disconnected: bool,
}

struct Client {
    stream: TcpStream,
    state: Arc<(Mutex<ClientState>, Condvar)>,
    next_id: u64,
}

impl Drop for Client {
    fn drop(&mut self) {
        // The reader thread holds a cloned fd; shutting the socket down
        // (rather than just dropping our half) delivers EOF to both that
        // thread and the server's connection handler, so an in-process
        // server can drain and join.
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

impl Client {
    fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // Submissions are one small line each; without nodelay the
        // kernel batches them and the measured latency is mostly Nagle.
        let _ = stream.set_nodelay(true);
        let reader = stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        let state = Arc::new((Mutex::new(ClientState::default()), Condvar::new()));
        let shared = Arc::clone(&state);
        std::thread::spawn(move || reader_loop(reader, &shared));
        Ok(Self {
            stream,
            state,
            next_id: 0,
        })
    }

    /// Submit one job; returns its id.
    fn submit(&mut self, spec: &JobSpec) -> Result<u64, String> {
        let id = self.next_id;
        self.next_id += 1;
        let line = format!(
            "{{\"op\":\"run\",\"id\":{id},\"spec\":{}}}\n",
            spec.to_json()
        );
        {
            let (lock, _) = &*self.state;
            let mut st = lock.lock().expect("bench state poisoned");
            st.pending.insert(id, Instant::now());
        }
        if let Err(e) = self.stream.write_all(line.as_bytes()) {
            // The job never reached the server: un-track it so a retry
            // (or the drain barrier) doesn't wait on a ghost.
            let (lock, _) = &*self.state;
            let mut st = lock.lock().expect("bench state poisoned");
            st.pending.remove(&id);
            return Err(format!("submit: {e}"));
        }
        Ok(id)
    }

    /// [`Self::submit`] with a bounded attempt budget and jittered
    /// exponential backoff between failures.
    fn submit_retrying(&mut self, spec: &JobSpec, attempts: usize) -> Result<u64, String> {
        let attempts = attempts.max(1);
        let mut last = String::new();
        for attempt in 0..attempts {
            match self.submit(spec) {
                Ok(id) => return Ok(id),
                Err(e) => last = e,
            }
            if attempt + 1 < attempts {
                std::thread::sleep(backoff(attempt as u32));
            }
        }
        Err(format!("submit failed after {attempts} attempts: {last}"))
    }

    fn counts(&self) -> (u64, u64, bool) {
        let (lock, _) = &*self.state;
        let st = lock.lock().expect("bench state poisoned");
        (st.completed, st.errors, st.disconnected)
    }

    /// Block until `target` jobs have finished (or the connection died /
    /// `deadline` passed).  Returns the finished count.
    fn wait_for(&self, target: u64, deadline: Instant) -> u64 {
        let (lock, cvar) = &*self.state;
        let mut st = lock.lock().expect("bench state poisoned");
        loop {
            let finished = st.completed + st.errors;
            if finished >= target || st.disconnected {
                return finished;
            }
            let now = Instant::now();
            if now >= deadline {
                return finished;
            }
            let (next, _) = cvar
                .wait_timeout(st, deadline - now)
                .expect("bench state poisoned");
            st = next;
        }
    }
}

/// [`Client::connect`] with a bounded attempt budget and jittered
/// exponential backoff — a bench launched alongside the server should
/// not lose the race by a few milliseconds.
fn connect_retrying(addr: &str, attempts: usize) -> Result<Client, String> {
    let attempts = attempts.max(1);
    let mut last = String::new();
    for attempt in 0..attempts {
        match Client::connect(addr) {
            Ok(c) => return Ok(c),
            Err(e) => last = e,
        }
        if attempt + 1 < attempts {
            std::thread::sleep(backoff(attempt as u32));
        }
    }
    Err(format!("connect failed after {attempts} attempts: {last}"))
}

fn reader_loop(stream: TcpStream, state: &Arc<(Mutex<ClientState>, Condvar)>) {
    let reader = BufReader::new(stream);
    let (lock, cvar) = &**state;
    for line in reader.lines() {
        let Ok(line) = line else { break };
        let Ok(doc) = json::parse(&line) else {
            continue;
        };
        let event = doc.get("event").and_then(Json::as_str);
        let done = matches!(event, Some("done"));
        let error = matches!(event, Some("error"));
        if !done && !error {
            continue; // trial lines, pongs, stats
        }
        let id = doc.get("id").and_then(Json::as_num).map(|n| n as u64);
        let mut st = lock.lock().expect("bench state poisoned");
        if let Some(started) = id.and_then(|id| st.pending.remove(&id)) {
            let latency_ns = started.elapsed().as_nanos() as u64;
            st.latency.record(latency_ns);
            if st.keep_probe_rows {
                let build_ns = doc.get("build_ns").and_then(Json::as_num).unwrap_or(0) as u64;
                st.probe_rows.push((latency_ns, build_ns));
            }
        }
        if done {
            st.completed += 1;
        } else {
            st.errors += 1;
        }
        cvar.notify_all();
    }
    let mut st = lock.lock().expect("bench state poisoned");
    st.disconnected = true;
    cvar.notify_all();
}

fn median(sorted: &mut [u64]) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted.sort_unstable();
    sorted[sorted.len() / 2]
}

/// Run one probe phase (jobs at `seed_of(i)`), returning its medians.
fn probe_phase(
    client: &mut Client,
    spec: &JobSpec,
    probe: usize,
    attempts: usize,
    seed_of: impl Fn(usize) -> u64,
) -> Result<ProbeStats, String> {
    {
        let (lock, _) = &*client.state;
        let mut st = lock.lock().expect("bench state poisoned");
        st.keep_probe_rows = true;
        st.probe_rows.clear();
    }
    let already = {
        let (c, e, _) = client.counts();
        c + e
    };
    for i in 0..probe {
        let mut job = spec.clone();
        job.seed = seed_of(i);
        client.submit_retrying(&job, attempts)?;
        // One at a time: probe latency should not include queueing.
        client.wait_for(
            already + i as u64 + 1,
            Instant::now() + Duration::from_secs(60),
        );
    }
    let (lock, _) = &*client.state;
    let mut st = lock.lock().expect("bench state poisoned");
    st.keep_probe_rows = false;
    let mut lat: Vec<u64> = st.probe_rows.iter().map(|r| r.0).collect();
    let mut build: Vec<u64> = st.probe_rows.iter().map(|r| r.1).collect();
    Ok(ProbeStats {
        jobs: lat.len() as u64,
        median_build_ns: median(&mut build),
        median_latency_ns: median(&mut lat),
    })
}

/// Send a `shutdown` op and wait for the `bye` line.
pub fn send_shutdown(addr: &str) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .write_all(b"{\"op\":\"shutdown\"}\n")
        .map_err(|e| format!("shutdown: {e}"))?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| format!("shutdown reply: {e}"))?;
    if line.contains("\"bye\"") {
        Ok(())
    } else {
        Err(format!("unexpected shutdown reply: {}", line.trim()))
    }
}

/// Drive the server open-loop and return the measured report.
pub fn run_bench(cfg: &BenchConfig) -> Result<BenchReport, String> {
    let mut client = connect_retrying(&cfg.addr, cfg.attempts)?;

    // Cold/warm cache probe, sequential jobs.
    let (cold, warm) = if cfg.probe > 0 {
        let base = cfg.spec.seed;
        let cold = probe_phase(&mut client, &cfg.spec, cfg.probe, cfg.attempts, |i| {
            base + 10_000 + i as u64
        })?;
        let warm = probe_phase(&mut client, &cfg.spec, cfg.probe, cfg.attempts, |i| {
            base + 10_000 + i as u64
        })?;
        if cfg.progress {
            println!(
                "probe: cold build {}us / latency {}us → warm build {}us / latency {}us",
                cold.median_build_ns / 1_000,
                cold.median_latency_ns / 1_000,
                warm.median_build_ns / 1_000,
                warm.median_latency_ns / 1_000,
            );
        }
        (Some(cold), Some(warm))
    } else {
        (None, None)
    };

    // Reset per-phase counters by snapshotting before the open loop.
    let (pre_completed, pre_errors, _) = client.counts();
    let pre_finished = pre_completed + pre_errors;
    {
        let (lock, _) = &*client.state;
        let mut st = lock.lock().expect("bench state poisoned");
        st.latency = LogHistogram::new();
    }

    if !(cfg.freq.is_finite() && cfg.freq > 0.0) {
        return Err(format!("freq {} must be finite and > 0", cfg.freq));
    }
    let period = Duration::from_secs_f64(1.0 / cfg.freq);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(cfg.secs);
    let mut submitted: u64 = 0;
    let mut next_send = start;
    let mut next_print = start + Duration::from_secs(1);
    while Instant::now() < end {
        let now = Instant::now();
        // Open loop: issue every send whose scheduled time has passed,
        // regardless of how many responses are outstanding.
        while next_send <= now {
            client.submit_retrying(&cfg.spec, cfg.attempts)?;
            submitted += 1;
            next_send += period;
        }
        if cfg.progress && now >= next_print {
            let (c, e, _) = client.counts();
            let finished = (c + e).saturating_sub(pre_finished);
            // Take the quantiles before the println: a MutexGuard born in
            // a block-tail format argument would live to the end of the
            // whole statement and self-deadlock on the second lock.
            let (p50, p95) = {
                let (lock, _) = &*client.state;
                let st = lock.lock().expect("bench state poisoned");
                (
                    st.latency.quantile(0.50) / 1_000,
                    st.latency.quantile(0.95) / 1_000,
                )
            };
            println!(
                "t={:.0}s submitted={} finished={} p50={p50}us p95={p95}us",
                now.duration_since(start).as_secs_f64(),
                submitted,
                finished,
            );
            next_print += Duration::from_secs(1);
        }
        let wake = next_send.min(next_print).min(end);
        let now = Instant::now();
        if wake > now {
            std::thread::sleep((wake - now).min(Duration::from_millis(50)));
        }
    }

    // Drain outstanding jobs (generous cap; small jobs finish in ms).
    let drain_deadline = Instant::now() + Duration::from_secs(30);
    let finished = client
        .wait_for(pre_finished + submitted, drain_deadline)
        .saturating_sub(pre_finished);
    let elapsed_ns = start.elapsed().as_nanos() as u64;

    let (completed_total, errors_total, _) = client.counts();
    let completed = completed_total.saturating_sub(pre_completed);
    let errors = errors_total.saturating_sub(pre_errors);
    let latency = {
        let (lock, _) = &*client.state;
        lock.lock().expect("bench state poisoned").latency.clone()
    };
    let report = BenchReport {
        submitted,
        completed,
        errors,
        elapsed_ns,
        throughput: finished as f64 / (elapsed_ns as f64 / 1e9),
        latency,
        cold,
        warm,
    };
    if cfg.progress {
        print!("{}", report.render());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let base = |a| Duration::from_millis(25u64 << a);
        for attempt in 0..4u32 {
            let d = backoff(attempt);
            assert!(d >= base(attempt), "attempt {attempt}: {d:?} below base");
            // Base + 50% jitter, never past the ceiling.
            assert!(d <= (base(attempt) * 3 / 2).min(BACKOFF_CAP));
        }
        assert_eq!(backoff(20), BACKOFF_CAP, "large attempts must cap");
    }

    #[test]
    fn connect_retries_are_bounded() {
        // Nothing listens on the discard port; every attempt must fail
        // fast and the budget must be respected.
        let err = match connect_retrying("127.0.0.1:9", 2) {
            Ok(_) => panic!("connected to the discard port"),
            Err(e) => e,
        };
        assert!(err.contains("after 2 attempts"), "got: {err}");
    }
}
