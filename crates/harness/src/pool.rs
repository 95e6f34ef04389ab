//! The std-only worker pool: a shared injector queue, per-job panic
//! isolation, a supervising watchdog/progress thread, and retry
//! policies for quarantined and cancelled jobs.
//!
//! Scheduling never affects results — each job is a pure function of
//! its `(cell, trial)` coordinates — so the pool is free to run jobs in
//! any order on any number of threads. Failure handling follows from
//! determinism too: a panic would recur on every retry, so panicking
//! jobs fail immediately; a *wall-time* overrun may be host contention,
//! so those jobs are quarantined and retried up to
//! [`Exec::max_retries`] times; a simulated-cycle overrun is
//! deterministic and is flagged, not retried.
//!
//! On top of the soft quarantine sits the **hard supervision plane**:
//! when [`Exec::job_deadline`] is set, every attempt runs under its own
//! [`CancelToken`], and the watchdog trips the token once the attempt
//! exceeds its (per-retry doubled) deadline — the simulation unwinds at
//! its next scheduler checkpoint instead of running to completion.
//! Cancelled attempts re-enter the queue after an exponential backoff
//! ([`Exec::retry_backoff`]); a cancelled final attempt permanently
//! fails the job as [`JobFailure::Deadline`]. A tripped
//! [`Exec::campaign_deadline`] cancels every in-flight attempt and
//! drains the remaining queue as deadline failures, so `run_jobs`
//! always resolves every pending job and returns.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use vpsec::experiment::{CellPlan, PairOutcome};
use vpsim_pipeline::CancelToken;

use crate::exec::Exec;

/// A schedulable unit: one paired trial of one cell.
#[derive(Debug, Clone, Copy)]
struct JobRef {
    /// Index into the campaign's global job list.
    index: usize,
    cell: usize,
    trial: usize,
    /// Zero-based attempt counter (incremented on quarantine or
    /// cancellation retry).
    attempt: u32,
    /// Backoff gate: the job is not eligible to run before this
    /// instant (set on cancellation retries).
    not_before: Option<Instant>,
}

/// A successfully finished job.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JobDone {
    pub pair: PairOutcome,
    pub wall_nanos: u64,
    pub attempts: u32,
}

/// Why a job permanently failed.
#[derive(Debug, Clone)]
pub(crate) enum JobFailure {
    /// The job panicked; deterministic, so never retried.
    Panic(String),
    /// The job was cancelled on its final attempt (hard deadline) or
    /// drained after the campaign deadline expired.
    Deadline { attempts: u32 },
    /// The job took down `crashes` distinct worker processes (abort,
    /// OOM kill, ...) and was quarantined by the fleet supervisor
    /// instead of crash-looping. Only the process backend produces
    /// this.
    Poisoned { crashes: u32 },
}

/// Counters shared by workers and the watchdog.
#[derive(Debug, Default)]
pub(crate) struct PoolStats {
    pub jobs_run: AtomicU64,
    pub retries: AtomicU64,
    pub quarantined_wall: AtomicU64,
    pub quarantined_cycles: AtomicU64,
    pub panics: AtomicU64,
    pub sim_cycles: AtomicU64,
    /// Watchdog cancellations observed by running attempts.
    pub cancelled: AtomicU64,
    /// Cancelled attempts re-queued with backoff.
    pub backoff_retries: AtomicU64,
    /// Jobs permanently failed as timed out.
    pub deadline_failed: AtomicU64,
    /// Scheduler cycles actually ticked across completed jobs.
    pub sched_ticks: AtomicU64,
    /// Quiescent cycles skipped by the next-event clock.
    pub sched_skipped: AtomicU64,
    /// Worker processes that died unexpectedly (process backend only;
    /// the thread backend leaves this at zero).
    pub worker_crashes: AtomicU64,
    /// Worker processes respawned after a death (process backend only).
    pub worker_respawns: AtomicU64,
}

/// What the watchdog knows about a worker's in-flight attempt.
struct Slot {
    index: usize,
    start: Instant,
    attempt: u32,
    token: CancelToken,
}

struct Shared<'a> {
    plans: &'a [Option<CellPlan>],
    exec: &'a Exec,
    queue: Mutex<VecDeque<JobRef>>,
    cond: Condvar,
    /// Jobs not yet permanently resolved (done or failed).
    outstanding: AtomicU64,
    done: AtomicBool,
    /// The campaign deadline expired: cancel everything, drain the rest.
    expired: AtomicBool,
    results: Mutex<Vec<Option<Result<JobDone, JobFailure>>>>,
    /// Per-worker in-flight attempt, for the watchdog's stall
    /// detection and cancellation delivery.
    slots: Mutex<Vec<Option<Slot>>>,
    stats: &'a PoolStats,
    on_done: &'a (dyn Fn(usize, usize, &JobDone) + Sync),
}

impl Shared<'_> {
    /// Pop the next eligible job: any job whose backoff gate has
    /// passed, or — once the campaign deadline expired — any job at all
    /// (the worker drains it as a failure without running it). Sleeps
    /// on the condvar (bounded by the earliest backoff gate) when the
    /// queue holds only gated jobs.
    fn pop(&self) -> Option<JobRef> {
        let mut q = self.queue.lock().expect("queue poisoned");
        loop {
            let now = Instant::now();
            let drain = self.expired.load(Ordering::Acquire);
            if let Some(pos) = q
                .iter()
                .position(|j| drain || j.not_before.is_none_or(|t| t <= now))
            {
                return q.remove(pos);
            }
            if self.done.load(Ordering::Acquire) {
                return None;
            }
            let next_gate = q.iter().filter_map(|j| j.not_before).min();
            match next_gate {
                Some(gate) => {
                    let wait = gate.saturating_duration_since(now);
                    let (guard, _) = self
                        .cond
                        .wait_timeout(q, wait.max(Duration::from_millis(1)))
                        .expect("queue poisoned");
                    q = guard;
                }
                None => q = self.cond.wait(q).expect("queue poisoned"),
            }
        }
    }

    fn requeue(&self, job: JobRef) {
        self.queue.lock().expect("queue poisoned").push_back(job);
        self.cond.notify_one();
    }

    fn resolve(&self, index: usize, result: Result<JobDone, JobFailure>) {
        self.results.lock().expect("results poisoned")[index] = Some(result);
        if self.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Under the queue lock: `pop` checks `done` and then waits
            // while holding it, so the store cannot land between the two
            // and leave a worker asleep for good.
            let _queue = self.queue.lock().expect("queue poisoned");
            self.done.store(true, Ordering::Release);
            self.cond.notify_all();
        }
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

fn worker(shared: &Shared<'_>, slot: usize) {
    loop {
        let wait_start = Instant::now();
        let Some(job) = shared.pop() else { break };
        if let Some(m) = &shared.exec.metrics {
            m.queue_wait_seconds
                .observe(wait_start.elapsed().as_secs_f64());
        }
        // Campaign deadline expired: resolve without running. Every
        // queued job still gets a result, so the campaign reduction
        // never sees a hole.
        if shared.expired.load(Ordering::Acquire) {
            shared.stats.deadline_failed.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = &shared.exec.metrics {
                m.jobs_failed.inc();
            }
            shared.resolve(
                job.index,
                Err(JobFailure::Deadline {
                    attempts: job.attempt,
                }),
            );
            continue;
        }
        let plan = shared.plans[job.cell]
            .as_ref()
            .expect("queued jobs only reference planned cells");
        let token = CancelToken::new();
        let start = Instant::now();
        shared.slots.lock().expect("slots poisoned")[slot] = Some(Slot {
            index: job.index,
            start,
            attempt: job.attempt,
            token: token.clone(),
        });
        let result = catch_unwind(AssertUnwindSafe(|| {
            plan.run_pair_supervised(job.trial, Some(&token))
        }));
        let elapsed = start.elapsed();
        shared.slots.lock().expect("slots poisoned")[slot] = None;
        if let Some(m) = &shared.exec.metrics {
            m.run_seconds.observe(elapsed.as_secs_f64());
        }
        match result {
            Ok(Ok(pair)) => {
                let over_wall = elapsed > shared.exec.job_wall_budget;
                if over_wall {
                    shared
                        .stats
                        .quarantined_wall
                        .fetch_add(1, Ordering::Relaxed);
                    if job.attempt < shared.exec.max_retries {
                        shared.stats.retries.fetch_add(1, Ordering::Relaxed);
                        if let Some(m) = &shared.exec.metrics {
                            m.retries.inc();
                        }
                        shared.requeue(JobRef {
                            attempt: job.attempt + 1,
                            not_before: None,
                            ..job
                        });
                        continue;
                    }
                }
                if pair.total_cycles() > shared.exec.cycle_budget {
                    shared
                        .stats
                        .quarantined_cycles
                        .fetch_add(1, Ordering::Relaxed);
                }
                shared.stats.jobs_run.fetch_add(1, Ordering::Relaxed);
                shared
                    .stats
                    .sim_cycles
                    .fetch_add(pair.total_cycles(), Ordering::Relaxed);
                let sched = pair.sched();
                shared
                    .stats
                    .sched_ticks
                    .fetch_add(sched.ticks, Ordering::Relaxed);
                shared
                    .stats
                    .sched_skipped
                    .fetch_add(sched.skipped_cycles, Ordering::Relaxed);
                if let Some(m) = &shared.exec.metrics {
                    m.jobs_done.inc();
                    m.sim_cycles.add(pair.total_cycles());
                    m.sched_ticks.add(sched.ticks);
                    m.sched_skipped.add(sched.skipped_cycles);
                }
                let done = JobDone {
                    pair,
                    wall_nanos: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
                    attempts: job.attempt + 1,
                };
                let sink_start = Instant::now();
                (shared.on_done)(job.cell, job.trial, &done);
                if let Some(m) = &shared.exec.metrics {
                    m.sink_seconds.observe(sink_start.elapsed().as_secs_f64());
                }
                shared.resolve(job.index, Ok(done));
            }
            Ok(Err(_interrupted)) => {
                shared.stats.cancelled.fetch_add(1, Ordering::Relaxed);
                let expired = shared.expired.load(Ordering::Acquire);
                if expired || job.attempt >= shared.exec.max_retries {
                    shared.stats.deadline_failed.fetch_add(1, Ordering::Relaxed);
                    if let Some(m) = &shared.exec.metrics {
                        m.jobs_failed.inc();
                    }
                    shared.resolve(
                        job.index,
                        Err(JobFailure::Deadline {
                            attempts: job.attempt + 1,
                        }),
                    );
                } else {
                    shared.stats.backoff_retries.fetch_add(1, Ordering::Relaxed);
                    let backoff = shared.exec.backoff_for_attempt(job.attempt);
                    if let Some(m) = &shared.exec.metrics {
                        m.retries.inc();
                        m.backoff_seconds.observe(backoff.as_secs_f64());
                    }
                    shared.requeue(JobRef {
                        attempt: job.attempt + 1,
                        not_before: Some(Instant::now() + backoff),
                        ..job
                    });
                }
            }
            Err(payload) => {
                shared.stats.panics.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = &shared.exec.metrics {
                    m.jobs_failed.inc();
                }
                shared.resolve(
                    job.index,
                    Err(JobFailure::Panic(panic_message(payload.as_ref()))),
                );
            }
        }
    }
}

/// The watchdog doubles as the progress reporter and the cancellation
/// authority: it periodically logs throughput (when enabled), warns
/// about jobs running past the soft wall budget, **trips the cancel
/// token** of attempts exceeding their hard deadline, and enforces the
/// campaign deadline budget. The soft-quarantine decision itself is
/// still taken by the worker at job completion, where the elapsed time
/// is exact.
fn watchdog(shared: &Shared<'_>, campaign: &str, total: usize, resumed: usize) {
    let started = Instant::now();
    let mut warned: Vec<usize> = Vec::new();
    let mut last_report = Instant::now();
    while !shared.done.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(50));
        let externally_cancelled = shared
            .exec
            .cancel
            .as_ref()
            .is_some_and(vpsim_pipeline::CancelToken::is_cancelled);
        let campaign_over = externally_cancelled
            || shared
                .exec
                .campaign_deadline
                .is_some_and(|budget| started.elapsed() > budget);
        if campaign_over && !shared.expired.swap(true, Ordering::AcqRel) {
            if externally_cancelled {
                eprintln!(
                    "[{campaign}] watchdog: external cancellation requested; \
                     cancelling in-flight jobs and draining the queue"
                );
            } else {
                eprintln!(
                    "[{campaign}] watchdog: campaign deadline {:?} exhausted; \
                     cancelling in-flight jobs and draining the queue",
                    shared.exec.campaign_deadline.unwrap_or_default()
                );
            }
            // Wake gated sleepers so the queue drains immediately. The
            // queue lock orders this after any `pop` that read `expired`
            // as false but has not yet started waiting.
            let _queue = shared.queue.lock().expect("queue poisoned");
            shared.cond.notify_all();
        }
        for slot in shared
            .slots
            .lock()
            .expect("slots poisoned")
            .iter()
            .flatten()
        {
            let elapsed = slot.start.elapsed();
            if campaign_over && !slot.token.is_cancelled() {
                slot.token.cancel();
                continue;
            }
            if let Some(deadline) = shared.exec.deadline_for_attempt(slot.attempt) {
                if elapsed > deadline && !slot.token.is_cancelled() {
                    slot.token.cancel();
                    eprintln!(
                        "[{campaign}] watchdog: job {} exceeded its hard deadline \
                         ({deadline:?}, attempt {}); cancelling mid-simulation",
                        slot.index,
                        slot.attempt + 1
                    );
                    continue;
                }
            }
            if elapsed > shared.exec.job_wall_budget && !warned.contains(&slot.index) {
                warned.push(slot.index);
                eprintln!(
                    "[{campaign}] watchdog: job {} over wall budget ({:?}), \
                     will quarantine on completion",
                    slot.index, shared.exec.job_wall_budget
                );
            }
        }
        if shared.exec.progress && last_report.elapsed() >= Duration::from_secs(1) {
            last_report = Instant::now();
            let run = shared.stats.jobs_run.load(Ordering::Relaxed) as usize;
            let secs = started.elapsed().as_secs_f64().max(1e-9);
            let mut line = format!(
                "[{campaign}] {}/{total} jobs ({resumed} resumed), {:.1} jobs/s, {:.1} Mcycles simulated",
                resumed + run,
                run as f64 / secs,
                shared.stats.sim_cycles.load(Ordering::Relaxed) as f64 / 1e6
            );
            let ticks = shared.stats.sched_ticks.load(Ordering::Relaxed);
            let skipped = shared.stats.sched_skipped.load(Ordering::Relaxed);
            if ticks + skipped > 0 {
                line.push_str(&format!(
                    " ({:.1}% cycles skipped)",
                    skipped as f64 / (ticks + skipped) as f64 * 100.0
                ));
            }
            let cancelled = shared.stats.cancelled.load(Ordering::Relaxed);
            let backoff = shared.stats.backoff_retries.load(Ordering::Relaxed);
            let wall_q = shared.stats.quarantined_wall.load(Ordering::Relaxed);
            if cancelled + backoff + wall_q > 0 {
                line.push_str(&format!(
                    "; {cancelled} cancelled ({backoff} backoff-retried), \
                     {wall_q} wall-quarantined"
                ));
            }
            eprintln!("{line}");
        }
    }
}

/// The work a single pool run executes: the campaign's cell plans, the
/// still-pending jobs (as positions into the campaign-global job list),
/// and the bookkeeping the progress reporter needs.
pub(crate) struct Batch<'a> {
    pub campaign: &'a str,
    pub plans: &'a [Option<CellPlan>],
    pub pending: &'a [(usize, usize, usize)],
    pub total_jobs: usize,
    pub resumed: usize,
}

/// Run the batch's pending jobs and return one result per global job
/// index; indices not in `batch.pending` stay `None`.
pub(crate) fn run_jobs(
    batch: &Batch<'_>,
    exec: &Exec,
    stats: &PoolStats,
    on_done: &(dyn Fn(usize, usize, &JobDone) + Sync),
) -> Vec<Option<Result<JobDone, JobFailure>>> {
    if batch.pending.is_empty() {
        return vec![None; batch.total_jobs];
    }
    let shared = Shared {
        plans: batch.plans,
        exec,
        queue: Mutex::new(
            batch
                .pending
                .iter()
                .map(|&(index, cell, trial)| JobRef {
                    index,
                    cell,
                    trial,
                    attempt: 0,
                    not_before: None,
                })
                .collect(),
        ),
        cond: Condvar::new(),
        outstanding: AtomicU64::new(batch.pending.len() as u64),
        done: AtomicBool::new(false),
        // A pre-tripped external cancel token (e.g. resuming a campaign
        // that was cancelled before the restart) drains the whole queue
        // without running a single job.
        expired: AtomicBool::new(
            exec.cancel
                .as_ref()
                .is_some_and(vpsim_pipeline::CancelToken::is_cancelled),
        ),
        results: Mutex::new(vec![None; batch.total_jobs]),
        slots: Mutex::new((0..exec.effective_jobs()).map(|_| None).collect()),
        stats,
        on_done,
    };
    std::thread::scope(|scope| {
        let shared = &shared;
        for slot in 0..exec.effective_jobs() {
            std::thread::Builder::new()
                .name(format!("pool-worker-{slot}"))
                .spawn_scoped(scope, move || worker(shared, slot))
                .expect("failed to spawn pool worker");
        }
        std::thread::Builder::new()
            .name("pool-watchdog".to_owned())
            .spawn_scoped(scope, move || {
                watchdog(shared, batch.campaign, batch.total_jobs, batch.resumed);
            })
            .expect("failed to spawn pool watchdog");
    });
    shared.results.into_inner().expect("results poisoned")
}
