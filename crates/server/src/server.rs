//! The job server: NDJSON requests over TCP, a worker pool, streamed
//! responses.
//!
//! # Protocol (one JSON document per line)
//!
//! | request | responses |
//! |---|---|
//! | `{"op":"run","id":I,"spec":{…}}` | one `trial` line per trial, then one `done` line (or an `error` line) |
//! | `{"op":"ping"}` | `{"event":"pong"}` |
//! | `{"op":"stats"}` | cache counters + the merged `plurality-metrics/v1` report |
//! | `{"op":"shutdown"}` | `{"event":"bye"}`, then the server stops accepting |
//!
//! Multiple jobs may be in flight on one connection; every job-scoped
//! line carries the client's `id`, so responses demultiplex by id (lines
//! of concurrent jobs interleave, but each job's `trial` lines arrive in
//! trial order with its `done` line last).
//!
//! # Scheduling
//!
//! Accepted jobs wait in one FIFO.  An idle worker takes the oldest job
//! that has work left: its setup ([`prepare`], once per job, before any
//! of its trials), else its next unclaimed trial.  A job's trials thus
//! spread across idle workers, and a per-job reorder buffer streams its
//! `trial` lines in trial order.  The worker that sees the job's last
//! handed-out trial finish sends the `done` (or `error`) line.  Trial `i`
//! runs with the same seed on whichever worker claims it, so rows equal a
//! sequential [`run_job`](crate::exec::run_job), and one worker
//! reproduces its line sequence.
//!
//! In a `done` line, `run_ns` is wall time from the first trial's start
//! to the last trial's end, so it is less than the sum of the trial
//! times when trials overlap; `setup_ns` and the `cache` fields describe
//! the job's one setup.
//!
//! A `timeout-ms` budget runs from the start of the job's setup and is
//! checked before each trial after the first is handed out.  Trials
//! already handed out finish and stream, so the rows are always trials
//! `0..completed`.  A panic in setup or in a trial answers a
//! `kind:"internal"` error line and drops the job's unclaimed trials;
//! the worker keeps serving.
//!
//! # Shutdown
//!
//! `shutdown` stops the accept loop immediately; queued jobs still
//! drain.  [`Server::run`] returns once every client connection has
//! closed (each open connection may still submit jobs, so it keeps the
//! worker pool alive).

use crate::cache::StateCache;
use crate::exec::{prepare, JobError, JobOutcome, PreparedJob, TrialRow};
use crate::spec::JobSpec;
use crate::wire::{done_line, error_line, job_error_line, trial_line, JobId};
use plurality_telemetry::json::{self, Json};
use plurality_telemetry::{Counter, Hist, MetricsRecorder, MetricsReport, Recorder};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Where a connection's response lines go.
type Sink = Arc<Mutex<dyn Write + Send>>;

/// Write one protocol line (appends the newline) under the writer lock.
fn send(writer: &Sink, line: &str) {
    let mut guard = writer.lock().expect("connection writer poisoned");
    // A client that hung up mid-stream is not a server error: drop the
    // rest of its lines.
    let _ = guard
        .write_all(line.as_bytes())
        .and_then(|()| guard.write_all(b"\n"));
}

/// One accepted job: the parsed spec, the connection to stream to, and
/// its progress.
struct Job {
    id: JobId,
    spec: JobSpec,
    writer: Sink,
    /// What has been handed out; claims lock it under the queue lock.
    claim: Mutex<Claim>,
    /// Finished rows, streamed in trial order.
    stream: Mutex<Stream>,
}

#[derive(Default)]
struct Claim {
    /// When the setup was handed to a worker (`None` while queued).
    setup_start: Option<Instant>,
    /// The setup, once it succeeded.
    prepared: Option<Arc<PreparedJob>>,
    /// The next trial to hand out: trials `0..next` are out.
    next: usize,
    /// Trials handed out and not yet finished.
    running: usize,
    /// Why no further trial is handed out (failed setup, timeout, panic).
    stop: Option<JobError>,
    /// When trial 0 was handed out.
    run_start: Option<Instant>,
}

impl Claim {
    /// No trial is running and none will be handed out: the job's
    /// terminal line is due.
    fn concluded(&self) -> bool {
        self.running == 0
            && (self.stop.is_some()
                || self
                    .prepared
                    .as_ref()
                    .is_some_and(|p| self.next == p.trials()))
    }
}

#[derive(Default)]
struct Stream {
    /// Rows that finished before an earlier trial, by trial index.
    early: BTreeMap<usize, TrialRow>,
    /// The rows streamed so far: trials `0..tally.trials`.
    tally: JobOutcome,
}

/// Work a worker claimed.
enum Task {
    /// Run the job's setup.
    Setup(Arc<Job>),
    /// Run trial `i` of a prepared job.
    Trial(Arc<Job>, Arc<PreparedJob>, usize),
    /// Send the terminal line of a job whose budget ran out while none
    /// of its trials was running.
    Conclude(Arc<Job>),
}

impl Job {
    /// Hand out this job's next piece of work, if any.  The flag is
    /// `true` once the job has nothing more to hand out, so it can
    /// leave the queue.
    fn claim(self: &Arc<Self>) -> (Option<Task>, bool) {
        let mut c = self.claim.lock().expect("job state poisoned");
        if c.stop.is_some() {
            return (None, true);
        }
        let Some(prepared) = c.prepared.clone() else {
            if c.setup_start.is_some() {
                return (None, false);
            }
            c.setup_start = Some(Instant::now());
            return (Some(Task::Setup(Arc::clone(self))), false);
        };
        let i = c.next;
        if let Err(timeout) = prepared.over_budget(i) {
            c.stop = Some(timeout);
            let task = c.concluded().then(|| Task::Conclude(Arc::clone(self)));
            return (task, true);
        }
        c.next += 1;
        c.running += 1;
        c.run_start.get_or_insert_with(Instant::now);
        let handed_out_all = c.next == prepared.trials();
        (
            Some(Task::Trial(Arc::clone(self), prepared, i)),
            handed_out_all,
        )
    }
}

/// The FIFO of accepted jobs, oldest first.
#[derive(Default)]
struct Queue {
    fifo: Mutex<Fifo>,
    /// Signalled when work may have become claimable, or the last
    /// producer left.
    ready: Condvar,
}

#[derive(Default)]
struct Fifo {
    jobs: VecDeque<Arc<Job>>,
    /// Open handles that may still submit jobs.
    producers: usize,
}

impl Queue {
    fn push(&self, job: Job) {
        self.fifo
            .lock()
            .expect("job queue poisoned")
            .jobs
            .push_back(Arc::new(job));
        self.ready.notify_all();
    }

    /// Wake waiting workers after a change they must re-check.  Taking
    /// the lock first orders the change before any waiter's next scan.
    fn wake(&self) {
        drop(self.fifo.lock().expect("job queue poisoned"));
        self.ready.notify_all();
    }

    /// Block until work is claimable: the oldest job's setup or next
    /// trial.  `None` once every producer is gone and the queue is empty.
    fn claim(&self) -> Option<Task> {
        let mut fifo = self.fifo.lock().expect("job queue poisoned");
        loop {
            let mut at = 0;
            while at < fifo.jobs.len() {
                let (task, exhausted) = fifo.jobs[at].claim();
                if exhausted {
                    fifo.jobs.remove(at);
                } else {
                    at += 1;
                }
                if task.is_some() {
                    return task;
                }
            }
            if fifo.producers == 0 && fifo.jobs.is_empty() {
                self.ready.notify_all();
                return None;
            }
            fifo = self.ready.wait(fifo).expect("job queue poisoned");
        }
    }
}

/// A handle that may still submit jobs; the workers exit once every
/// handle is dropped and the queue has drained.
struct Producer(Arc<Shared>);

impl Producer {
    fn new(shared: &Arc<Shared>) -> Self {
        shared
            .queue
            .fifo
            .lock()
            .expect("job queue poisoned")
            .producers += 1;
        Self(Arc::clone(shared))
    }
}

impl Drop for Producer {
    fn drop(&mut self) {
        if let Ok(mut fifo) = self.0.queue.fifo.lock() {
            fifo.producers -= 1;
        }
        self.0.queue.ready.notify_all();
    }
}

/// State shared by the accept loop, connection handlers, and workers.
struct Shared {
    cache: StateCache,
    metrics: Mutex<MetricsReport>,
    queue: Queue,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

impl Shared {
    fn new(addr: SocketAddr) -> Self {
        Self {
            cache: StateCache::new(),
            metrics: Mutex::new(MetricsReport::new(format!("plurality-server {addr}"))),
            queue: Queue::default(),
            shutdown: AtomicBool::new(false),
            addr,
        }
    }
}

/// The job server.  Bind, then [`Server::run`] (blocking) — or drive it
/// from a thread via [`Server::spawn`] for in-process use.
pub struct Server {
    listener: TcpListener,
    workers: usize,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) with a
    /// pool of `workers` job threads.
    pub fn bind(addr: impl ToSocketAddrs, workers: usize) -> std::io::Result<Self> {
        assert!(workers > 0, "need at least one worker");
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Self {
            listener,
            workers,
            shared: Arc::new(Shared::new(addr)),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Bind and serve from a background thread; returns the bound
    /// address and the join handle.
    pub fn spawn(
        addr: impl ToSocketAddrs,
        workers: usize,
    ) -> std::io::Result<(SocketAddr, std::thread::JoinHandle<()>)> {
        let server = Self::bind(addr, workers)?;
        let bound = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        Ok((bound, handle))
    }

    /// Serve until a `shutdown` op arrives, then drain and return.
    pub fn run(self) {
        let accepting = Producer::new(&self.shared);
        let workers: Vec<_> = (0..self.workers)
            .map(|_| {
                let shared = Arc::clone(&self.shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            // Result lines are small; Nagle + delayed ACK would add tens
            // of ms to every job on an otherwise idle connection.
            let _ = stream.set_nodelay(true);
            let producer = Producer::new(&self.shared);
            std::thread::spawn(move || handle_connection(stream, &producer.0));
        }

        // Workers exit once the last connection closes and the queue
        // drains.
        drop(accepting);
        for w in workers {
            let _ = w.join();
        }
    }
}

/// Run `f`, turning a panic into [`JobError::Internal`].
fn isolate<T>(what: &str, f: impl FnOnce() -> T) -> Result<T, JobError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string panic payload");
        JobError::Internal(format!("{what} panicked: {msg}"))
    })
}

fn worker_loop(shared: &Shared) {
    while let Some(task) = shared.queue.claim() {
        match task {
            Task::Setup(job) => run_setup(shared, &job),
            Task::Trial(job, prepared, i) => {
                run_trial(shared, &job, i, || prepared.run_trial(i));
            }
            Task::Conclude(job) => conclude(shared, &job),
        }
    }
}

/// Run a claimed job's setup; a failed setup answers its error line and
/// runs no trials.
fn run_setup(shared: &Shared, job: &Job) {
    let prepared = isolate("setup", || prepare(&job.spec, &shared.cache)).and_then(|p| p);
    let failed = {
        let mut c = job.claim.lock().expect("job state poisoned");
        match prepared {
            Ok(prepared) => c.prepared = Some(Arc::new(prepared)),
            Err(e) => c.stop = Some(e),
        }
        c.stop.is_some()
    };
    shared.queue.wake();
    if failed {
        conclude(shared, job);
    }
}

/// Run claimed trial `i` through `trial`, stream its row in trial order,
/// and send the terminal line if it was the job's last trial out.
fn run_trial(shared: &Shared, job: &Job, i: usize, trial: impl FnOnce() -> TrialRow) {
    let panic = match isolate(&format!("trial {i}"), trial) {
        Ok(row) => {
            let mut guard = job.stream.lock().expect("job stream poisoned");
            let stream = &mut *guard;
            stream.early.insert(i, row);
            while let Some(next) = stream.early.remove(&stream.tally.trials) {
                send(&job.writer, &trial_line(&job.id, &next));
                stream.tally.count(&next);
            }
            None
        }
        Err(panic) => Some(panic),
    };
    let concluded = {
        let mut c = job.claim.lock().expect("job state poisoned");
        if panic.is_some() {
            c.stop = panic;
        }
        c.running -= 1;
        c.concluded()
    };
    if concluded {
        conclude(shared, job);
    }
}

/// Merge a finished job into the fleet metrics, then send its terminal
/// line.  Runs once per job, after its last row streamed.
fn conclude(shared: &Shared, job: &Job) {
    let tally = std::mem::take(&mut job.stream.lock().expect("job stream poisoned").tally);
    let (result, setup_start) = {
        let c = job.claim.lock().expect("job state poisoned");
        let result = match (&c.stop, &c.prepared) {
            (Some(e), _) => Err((e.clone(), tally.trials)),
            (None, Some(prepared)) => {
                let run = c.run_start.map(|t| t.elapsed()).unwrap_or_default();
                Ok(prepared.outcome(tally, run))
            }
            (None, None) => unreachable!("a job concludes without a stop only after its setup"),
        };
        (result, c.setup_start)
    };
    let mut rec = MetricsRecorder::new();
    let terminal = match &result {
        Ok(outcome) => {
            rec.incr(Counter::JobsCompleted);
            rec.add(Counter::TrialsRun, outcome.trials as u64);
            for lookup in [
                outcome.cache.topology,
                outcome.cache.rates,
                outcome.cache.edge_table,
            ]
            .into_iter()
            .flatten()
            {
                rec.incr(if lookup.hit {
                    Counter::CacheHits
                } else {
                    Counter::CacheMisses
                });
            }
            rec.observe(Hist::StateBuildNanos, outcome.cache.build_ns());
            done_line(&job.id, outcome)
        }
        Err((e, streamed)) => {
            rec.incr(Counter::JobsFailed);
            rec.add(Counter::TrialsRun, *streamed as u64);
            match e {
                JobError::Timeout { .. } => rec.incr(Counter::JobsTimedOut),
                JobError::Internal(_) => rec.incr(Counter::JobsPanicked),
                JobError::Failed(_) => {}
            }
            job_error_line(&job.id, e)
        }
    };
    if let Some(start) = setup_start {
        rec.observe(Hist::JobWallNanos, start.elapsed().as_nanos() as u64);
    }
    {
        let mut fleet = shared.metrics.lock().expect("metrics poisoned");
        fleet.merge(&rec.report());
    }
    // Merge happened before the terminal line goes out: a client that
    // reads `done` and immediately asks for `stats` must see this job
    // in the report.
    send(&job.writer, &terminal);
}

/// The `stats` event line: cache counters plus the merged metrics
/// report (a `plurality-metrics/v1` object embedded under `"report"`).
fn stats_line(shared: &Shared) -> String {
    let c = shared.cache.stats();
    let report = shared.metrics.lock().expect("metrics poisoned").to_json();
    format!(
        "{{\"event\":\"stats\",\"cache\":{{\"hits\":{},\"misses\":{},\"build_ns\":{},\
         \"entries\":{}}},\"report\":{report}}}",
        c.hits, c.misses, c.build_ns, c.entries
    )
}

fn handle_request(line: &str, shared: &Shared, writer: &Sink) {
    let doc = match json::parse(line) {
        Ok(doc) => doc,
        Err(e) => {
            send(writer, &error_line(None, &format!("bad request: {e}")));
            return;
        }
    };
    let id = doc.get("id").map(JobId::from_json).transpose();
    let id = match id {
        Ok(id) => id,
        Err(e) => {
            send(writer, &error_line(None, &e));
            return;
        }
    };
    match doc.get("op").and_then(Json::as_str) {
        Some("run") => {
            let Some(id) = id else {
                send(writer, &error_line(None, "run: missing id"));
                return;
            };
            let spec = doc
                .get("spec")
                .ok_or_else(|| "run: missing spec".to_string())
                .and_then(JobSpec::from_json);
            match spec {
                Ok(spec) => {
                    {
                        let mut rec = MetricsRecorder::new();
                        rec.incr(Counter::JobsAccepted);
                        let mut fleet = shared.metrics.lock().expect("metrics poisoned");
                        fleet.merge(&rec.report());
                    }
                    shared.queue.push(Job {
                        id,
                        spec,
                        writer: Arc::clone(writer),
                        claim: Mutex::default(),
                        stream: Mutex::default(),
                    });
                }
                Err(e) => {
                    let mut rec = MetricsRecorder::new();
                    rec.incr(Counter::JobsFailed);
                    let mut fleet = shared.metrics.lock().expect("metrics poisoned");
                    fleet.merge(&rec.report());
                    drop(fleet);
                    send(writer, &error_line(Some(&id), &e));
                }
            }
        }
        Some("ping") => send(writer, "{\"event\":\"pong\"}"),
        Some("stats") => send(writer, &stats_line(shared)),
        Some("shutdown") => {
            send(writer, "{\"event\":\"bye\"}");
            shared.shutdown.store(true, Ordering::SeqCst);
            // Wake the accept loop so it observes the flag.
            let _ = TcpStream::connect(shared.addr);
        }
        Some(other) => send(
            writer,
            &error_line(id.as_ref(), &format!("unknown op '{other}'")),
        ),
        None => send(writer, &error_line(id.as_ref(), "missing op")),
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let writer: Sink = Arc::new(Mutex::new(stream));
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        handle_request(&line, shared, &writer);
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A server state with no producer open, so [`Queue::claim`] returns
    /// `None` once nothing is left, and a job whose lines land in a buffer.
    fn one_job(spec: JobSpec) -> (Shared, Arc<Mutex<Vec<u8>>>) {
        let shared = Shared::new("127.0.0.1:0".parse().expect("literal address"));
        let lines = Arc::new(Mutex::new(Vec::new()));
        shared.queue.push(Job {
            id: JobId::Num(1),
            spec,
            writer: lines.clone(),
            claim: Mutex::default(),
            stream: Mutex::default(),
        });
        (shared, lines)
    }

    fn small(trials: usize) -> JobSpec {
        JobSpec {
            n: 300,
            k: 2,
            bias: Some(60),
            trials,
            max_rounds: 5_000,
            ..JobSpec::default()
        }
    }

    fn setup(shared: &Shared) {
        let Some(Task::Setup(job)) = shared.queue.claim() else {
            panic!("a job's setup is claimed before its trials");
        };
        run_setup(shared, &job);
    }

    fn trial(shared: &Shared) -> (Arc<Job>, Arc<PreparedJob>, usize) {
        match shared.queue.claim() {
            Some(Task::Trial(job, prepared, i)) => (job, prepared, i),
            _ => panic!("expected a trial to claim"),
        }
    }

    fn events(lines: &Mutex<Vec<u8>>) -> Vec<Json> {
        let bytes = lines.lock().expect("buffer").clone();
        String::from_utf8(bytes)
            .expect("lines are UTF-8")
            .lines()
            .map(|l| json::parse(l).expect("lines parse"))
            .collect()
    }

    fn field<'a>(doc: &'a Json, key: &str) -> Option<&'a str> {
        doc.get(key).and_then(Json::as_str)
    }

    #[test]
    fn a_panicking_trial_ends_its_job_with_an_internal_error() {
        let (shared, lines) = one_job(small(4));
        setup(&shared);
        let (job, prepared, i) = trial(&shared);
        run_trial(&shared, &job, i, || prepared.run_trial(i));
        let (job, _, i) = trial(&shared);
        run_trial(&shared, &job, i, || panic!("boom"));
        assert!(
            shared.queue.claim().is_none(),
            "the job's unclaimed trials are dropped"
        );

        let docs = events(&lines);
        assert_eq!(docs.len(), 2, "{docs:?}");
        assert_eq!(field(&docs[0], "event"), Some("trial"));
        assert_eq!(field(&docs[1], "event"), Some("error"));
        assert_eq!(field(&docs[1], "kind"), Some("internal"));
        assert_eq!(field(&docs[1], "error"), Some("trial 1 panicked: boom"));
        let fleet = shared.metrics.lock().expect("metrics");
        assert_eq!(fleet.counter(Counter::JobsPanicked), 1);
        assert_eq!(fleet.counter(Counter::JobsFailed), 1);
        assert_eq!(fleet.counter(Counter::TrialsRun), 1);
    }

    #[test]
    fn rows_stream_in_trial_order_when_trials_finish_out_of_order() {
        let (shared, lines) = one_job(small(3));
        setup(&shared);
        let claimed = [trial(&shared), trial(&shared), trial(&shared)];
        for (job, prepared, i) in claimed.iter().rev() {
            run_trial(&shared, job, *i, || prepared.run_trial(*i));
        }
        assert!(shared.queue.claim().is_none());

        let docs = events(&lines);
        let trials: Vec<_> = docs[..3]
            .iter()
            .map(|d| d.get("trial").and_then(Json::as_num))
            .collect();
        assert_eq!(trials, [Some(0), Some(1), Some(2)]);
        assert_eq!(field(&docs[3], "event"), Some("done"));
        assert_eq!(docs[3].get("trials").and_then(Json::as_num), Some(3));
    }

    #[test]
    fn an_expired_budget_concludes_from_the_claim_or_the_last_running_trial() {
        let mut spec = small(4);
        spec.timeout_ms = Some(200);
        let spend_budget = || std::thread::sleep(std::time::Duration::from_millis(250));

        // Nothing running when the budget is found spent: the claim
        // concludes the job.
        let (shared, lines) = one_job(spec.clone());
        setup(&shared);
        let (job, prepared, i) = trial(&shared);
        run_trial(&shared, &job, i, || prepared.run_trial(i));
        spend_budget();
        let Some(Task::Conclude(job)) = shared.queue.claim() else {
            panic!("the claim that finds the budget spent concludes an idle job");
        };
        conclude(&shared, &job);
        let docs = events(&lines);
        assert_eq!(docs.len(), 2);
        assert_eq!(field(&docs[1], "kind"), Some("timeout"));
        assert_eq!(docs[1].get("completed").and_then(Json::as_num), Some(1));

        // Two trials out when the budget is found spent: the last one to
        // finish concludes, after both rows.
        let (shared, lines) = one_job(spec);
        setup(&shared);
        let (first, second) = (trial(&shared), trial(&shared));
        spend_budget();
        assert!(shared.queue.claim().is_none(), "trials 2 and 3 are dropped");
        for (job, prepared, i) in [second, first] {
            run_trial(&shared, &job, i, || prepared.run_trial(i));
        }
        let docs = events(&lines);
        assert_eq!(docs.len(), 3);
        assert_eq!(field(&docs[2], "kind"), Some("timeout"));
        assert_eq!(docs[2].get("completed").and_then(Json::as_num), Some(2));
        let fleet = shared.metrics.lock().expect("metrics");
        assert_eq!(fleet.counter(Counter::JobsTimedOut), 1);
        assert_eq!(fleet.counter(Counter::TrialsRun), 2);
    }
}
