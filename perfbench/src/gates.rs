//! Correctness gates.  A gate that fails marks the run incorrect (exit
//! code 1) instead of letting a wrong program print a fast number.

/// One finished agent-engine call.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentTrial {
    /// Trial index (its seed is derived from the workload seed).
    pub trial: u64,
    /// Worker threads.
    pub threads: usize,
    /// Wall time of the engine call, seconds.
    pub wall_s: f64,
    /// Rounds executed.
    pub rounds: u64,
    /// Consensus color, if reached.
    pub winner: Option<usize>,
    /// Plurality color of the initial configuration.
    pub initial_plurality: usize,
}

impl AgentTrial {
    /// Did the trial reach consensus on the initial plurality?
    #[must_use]
    pub fn succeeded(&self) -> bool {
        self.winner == Some(self.initial_plurality)
    }
}

/// Every trial reaches consensus on the initial plurality.
pub fn winner_is_initial_plurality(trials: &[AgentTrial]) -> Result<(), String> {
    match trials.iter().find(|t| !t.succeeded()) {
        None => Ok(()),
        Some(t) => Err(format!(
            "trial {} at T={} ended with winner {:?}, initial plurality {}",
            t.trial, t.threads, t.winner, t.initial_plurality
        )),
    }
}

/// Every call of the same trial seed — at any thread count, and on any
/// repeat — gives the same rounds and winner (the thread-invariance of
/// `docs/DETERMINISM.md`).
pub fn thread_invariant(trials: &[AgentTrial]) -> Result<(), String> {
    for a in trials {
        if let Some(b) = trials
            .iter()
            .find(|b| b.trial == a.trial && (b.rounds, b.winner) != (a.rounds, a.winner))
        {
            return Err(format!(
                "trial {} is not thread-invariant: T={} gave {} rounds / winner {:?}, \
                 T={} gave {} rounds / winner {:?}",
                a.trial, a.threads, a.rounds, a.winner, b.threads, b.rounds, b.winner
            ));
        }
    }
    Ok(())
}

/// The engine drew exactly `expected` neighbor samples per node update.
pub fn samples_per_update(
    samples_drawn: u64,
    updates: u64,
    expected: u64,
    label: &str,
) -> Result<(), String> {
    if updates > 0 && samples_drawn == expected * updates {
        Ok(())
    } else {
        Err(format!(
            "{label}: {samples_drawn} samples over {updates} updates, expected exactly \
             {expected} per update"
        ))
    }
}

/// Every submitted job ended in `done` with its full set of trial rows.
pub fn jobs_complete(
    submitted: u64,
    done: u64,
    errors: u64,
    short_rows: u64,
) -> Result<(), String> {
    if done == submitted && errors == 0 && short_rows == 0 {
        Ok(())
    } else {
        Err(format!(
            "{submitted} jobs submitted: {done} done, {errors} error lines, \
             {short_rows} done without all their trial rows, {} missing",
            submitted.saturating_sub(done + errors)
        ))
    }
}

/// The rows a server job streamed equal those of an in-process
/// `run_job` of the same spec.
pub fn rows_match(served: &[String], in_process: &[String]) -> Result<(), String> {
    if served == in_process {
        Ok(())
    } else {
        Err(format!(
            "served rows differ from an in-process run_job of the same spec:\n  served:     \
             {served:?}\n  in-process: {in_process:?}"
        ))
    }
}

/// The open-loop generator kept its schedule: p99 send lag within bound.
pub fn send_lag_within(p99_ms: f64, bound_ms: f64) -> Result<(), String> {
    if p99_ms <= bound_ms {
        Ok(())
    } else {
        Err(format!(
            "open-loop generator ran late: send lag p99 {p99_ms:.3} ms exceeds the \
             {bound_ms} ms bound, so the run is invalid"
        ))
    }
}
