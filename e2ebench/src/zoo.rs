//! The zoo campaign (`train_test` and `test_hit`, timing window, lvp)
//! through `CampaignSpec` and `Campaign::run` on the thread backend,
//! without a manifest. Its first campaign is checked against the
//! process fleet, and the traced run adds one probe campaign with an
//! fsync'd resume manifest (the sink) and one on the process fleet.
//!
//! The fleet and manifest variants are probes, not workloads: on
//! virtual machines whose CPUs are also lent to other guests, their
//! blocking (pipes, `sync_data`) made the run-to-run spread of their
//! end-to-end figures 0.35-0.67 (see `CHANGES.md`).

use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use vpsec::experiment::CellPlan;
use vpsim_harness::{
    Campaign, CampaignMetrics, CampaignOutcome, CampaignSpec, CellOutcome, Exec, FleetConfig,
    HarnessError, JobObserver, JobRecord, RealIo, SinkIo, WorkerBackend,
};
use vpsim_obs::{Registry, SeriesValue, Snapshot};
use vpsim_serve::registry::result_line;

use crate::replica::{self, LayerTimes};
use crate::spans::{span, Tracer};
use crate::wait::{self, Gave};
use crate::{stats, Ctx, Outcome, Requests, SetupTimes};

/// Paired trials per cell. A campaign takes about a second, so the
/// pool watchdog's 50 ms tick, which `Campaign::run` waits for before
/// it returns, is a small share of its latency.
const TRIALS: usize = 1500;
/// Pool worker threads. One: with two, the pool's lost wakeup (a worker
/// that checks `done` just before the last job resolves sleeps forever)
/// leaves about one `Campaign::run` in 4000 hung after its last job,
/// so runs would differ in their failure counts.
const THREADS: usize = 1;
/// Fleet worker processes; the fleet's supervisor does not use the
/// pool's condition variable.
const FLEET_WORKERS: usize = 2;
/// Specs generated per set-up sample.
const SETUP_BATCH: usize = 128;
/// Pairs per campaign the traced replica re-runs.
const REPLICA_PAIRS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// In-process worker threads.
    Thread,
    /// Supervised worker subprocesses (this binary, re-executed with
    /// `--worker-loop`).
    Fleet,
}

impl Backend {
    fn workers(self) -> usize {
        match self {
            Backend::Thread => THREADS,
            Backend::Fleet => FLEET_WORKERS,
        }
    }
}

/// The spec document of campaign `k` of a run with workload seed
/// `seed`: the program under test sees only this JSON.
pub fn spec_json(seed: u64, k: usize, trials: usize, cells: &[&str]) -> String {
    let cells: Vec<String> = cells
        .iter()
        .map(|c| {
            format!("{{\"category\":\"{c}\",\"channel\":\"timing_window\",\"predictor\":\"lvp\"}}")
        })
        .collect();
    let mut s = seed ^ (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let spec_seed = vpsim_rng::splitmix64(&mut s);
    format!(
        "{{\"name\":\"bench-{seed}-{k}\",\"trials\":{trials},\"seed\":{spec_seed},\"cells\":[{}]}}",
        cells.join(",")
    )
}

fn zoo_spec(seed: u64, k: usize) -> CampaignSpec {
    CampaignSpec::parse(&spec_json(seed, k, TRIALS, &["train_test", "test_hit"]))
        .expect("generated zoo spec is valid")
}

/// Collects job records and the time of the last completion.
#[derive(Debug, Default)]
pub struct Collect {
    recs: Mutex<Vec<JobRecord>>,
    last_done: Mutex<Option<Instant>>,
}

impl JobObserver for Collect {
    fn job_done(&self, rec: &JobRecord, _resumed: bool) {
        self.recs.lock().expect("records poisoned").push(*rec);
        *self.last_done.lock().expect("clock poisoned") = Some(Instant::now());
    }
}

impl Collect {
    /// The records in canonical `(cell, trial)` order.
    pub fn sorted(&self) -> Vec<JobRecord> {
        let mut recs = self.recs.lock().expect("records poisoned").clone();
        recs.sort_by_key(|r| (r.cell, r.trial));
        recs
    }

    pub fn count(&self) -> usize {
        self.recs.lock().expect("records poisoned").len()
    }

    pub fn last_done(&self) -> Option<Instant> {
        *self.last_done.lock().expect("clock poisoned")
    }
}

/// The daemon's result-line form of `recs`.
pub fn result_lines(recs: &[JobRecord]) -> Vec<String> {
    recs.iter().map(result_line).collect()
}

/// The manifest filesystem, timing every append as a `sink.append`
/// span under the campaign's span.
#[derive(Debug)]
struct TimingIo {
    tracer: Arc<Tracer>,
    parent: u64,
    request: u64,
    append_us: Mutex<Vec<f64>>,
}

impl SinkIo for TimingIo {
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        RealIo.create_dir_all(dir)
    }
    fn exists(&self, path: &Path) -> bool {
        RealIo.exists(path)
    }
    fn read(&self, path: &Path) -> std::io::Result<String> {
        RealIo.read(path)
    }
    fn replace(&self, path: &Path, contents: &str) -> std::io::Result<()> {
        RealIo.replace(path, contents)
    }
    fn append(&self, path: &Path, data: &str) -> std::io::Result<()> {
        let open = self.tracer.open();
        let r = RealIo.append(path, data);
        let s = self
            .tracer
            .close(open, "sink.append", self.parent, self.request);
        self.append_us
            .lock()
            .expect("append times poisoned")
            .push((s.end_ns - s.start_ns) as f64 / 1e3);
        r
    }
    fn remove(&self, path: &Path) -> std::io::Result<()> {
        RealIo.remove(path)
    }
}

/// One finished campaign.
pub struct Run {
    /// `Campaign::run` called to its return.
    pub latency: Duration,
    pub jobs: u64,
    pub dispatched: u64,
    pub recs: Vec<JobRecord>,
    /// Last job completion to `Campaign::run` returning.
    pub tail: Duration,
    pub worker_crashes: u64,
    pub worker_respawns: u64,
    /// Harness metrics, when traced.
    pub metrics: Option<Snapshot>,
    /// Per-append times, when traced with a manifest.
    pub append_us: Vec<f64>,
}

/// Histogram `(count, sum)` of `family` in `snap`.
pub fn histo(snap: &Snapshot, family: &str) -> (u64, f64) {
    snap.families
        .iter()
        .filter(|f| f.name == family)
        .flat_map(|f| &f.series)
        .fold((0, 0.0), |(c, s), series| match series.value {
            SeriesValue::Histogram { count, sum, .. } => (c + count, s + sum),
            _ => (c, s),
        })
}

/// Counter `family` in `snap`.
pub fn counter(snap: &Snapshot, family: &str) -> u64 {
    snap.families
        .iter()
        .filter(|f| f.name == family)
        .flat_map(|f| &f.series)
        .map(|series| match series.value {
            SeriesValue::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

/// Longest a campaign may run before it is abandoned.
const CAMPAIGN_BOUND: Duration = Duration::from_secs(30);

/// `campaign.run(&exec)` on its own thread, with the instant it
/// returned. A run that outlives [`CAMPAIGN_BOUND`], or does not return
/// within [`wait::TAIL_BOUND`] of its last job, is abandoned with its
/// thread and reported as `Err`.
pub fn bounded_run(
    campaign: Campaign,
    exec: Exec,
    collect: &Collect,
    jobs: usize,
) -> Result<(Result<CampaignOutcome, HarnessError>, Instant), String> {
    let started = Instant::now();
    let (tx, rx) = mpsc::channel();
    let thread = std::thread::Builder::new()
        .name("bench-campaign".to_owned())
        .spawn(move || {
            let result = campaign.run(&exec);
            let _ = tx.send((result, Instant::now()));
        })
        .map_err(|e| format!("cannot spawn the campaign thread: {e}"))?;
    let all_done = || collect.last_done().filter(|_| collect.count() == jobs);
    match wait::wait(&rx, started, CAMPAIGN_BOUND, all_done) {
        Ok(done) => {
            let _ = thread.join();
            Ok(done)
        }
        Err(Gave::Panicked) => Err("the campaign thread panicked".to_owned()),
        Err(Gave::Hung) => Err(format!(
            "Campaign::run did not return ({} of {jobs} jobs done after {:?})",
            collect.count(),
            started.elapsed()
        )),
    }
}

/// Run campaign `k` (request id `k`), with a manifest under `state`
/// if `manifest`, and check its outcome.
fn run_campaign(
    backend: Backend,
    manifest: bool,
    state: &Path,
    spec: &CampaignSpec,
    k: u64,
    tracer: Option<&Arc<Tracer>>,
    out: &mut Outcome,
) -> Option<Run> {
    let campaign: Campaign = spec.to_campaign();
    let collect = Arc::new(Collect::default());
    let manifest_dir: Option<PathBuf> = manifest.then(|| state.join(format!("manifest-{k}")));
    let registry = Registry::new();
    let open = tracer.map(|t| t.open());
    let timing_io = match (tracer, &open, &manifest_dir) {
        (Some(t), Some(o), Some(_)) => Some(Arc::new(TimingIo {
            tracer: Arc::clone(t),
            parent: o.id(),
            request: k,
            append_us: Mutex::new(Vec::new()),
        })),
        _ => None,
    };
    let exec = Exec {
        jobs: backend.workers(),
        resume: manifest_dir.clone(),
        observer: Some(Arc::clone(&collect) as Arc<dyn JobObserver>),
        metrics: tracer.map(|_| CampaignMetrics::register(&registry, campaign.name())),
        sink_io: timing_io.clone().map(|io| io as Arc<dyn SinkIo>),
        backend: match backend {
            Backend::Thread => WorkerBackend::Thread,
            Backend::Fleet => WorkerBackend::Process(FleetConfig {
                workers: FLEET_WORKERS,
                ..FleetConfig::default()
            }),
        },
        ..Exec::default()
    };
    let jobs = spec.num_jobs();
    let started = Instant::now();
    let result = bounded_run(campaign, exec, &collect, jobs);
    if let (Some(t), Some(o)) = (tracer, open) {
        t.close(o, "harness.campaign_run", 0, k);
    }
    if let Some(dir) = &manifest_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let (outcome, ended) = match result {
        Ok((Ok(o), ended)) => (o, ended),
        Ok((Err(e), _)) => {
            out.check(false, || format!("campaign {k}: {e}"));
            return None;
        }
        Err(why) => {
            out.notes.push(format!("campaign {k} abandoned: {why}"));
            return None;
        }
    };
    let wall = ended.duration_since(started);
    let recs = collect.sorted();
    let mut ok = out.check(recs.len() == jobs && outcome.stats.jobs_run == jobs, || {
        format!(
            "campaign {k}: {} records, {} jobs run, {jobs} expected",
            recs.len(),
            outcome.stats.jobs_run
        )
    });
    for cell in outcome.cells() {
        ok &= out.check(
            matches!(&cell.outcome, CellOutcome::Evaluated(e) if e.succeeds()),
            || {
                format!(
                    "campaign {k}: cell {} did not leak: {:?}",
                    cell.name, cell.outcome
                )
            },
        );
    }
    let last_done = collect
        .last_done()
        .map_or(wall, |t| t.saturating_duration_since(started));
    let append_us = timing_io
        .map(|io| io.append_us.lock().expect("append times poisoned").clone())
        .unwrap_or_default();
    ok.then(|| Run {
        latency: wall,
        tail: wall.saturating_sub(last_done),
        jobs: jobs as u64,
        dispatched: outcome.stats.sched.dispatched,
        recs,
        worker_crashes: outcome.stats.worker_crashes as u64,
        worker_respawns: outcome.stats.worker_respawns as u64,
        metrics: tracer.map(|_| registry.snapshot()),
        append_us,
    })
}

/// Check sampled pairs of `run` against `CellPlan::run_pair`.
fn spot_check(spec: &CampaignSpec, run: &Run, k: u64, out: &mut Outcome) -> bool {
    let cfg = spec.experiment_config();
    let mut ok = true;
    for (cell, c) in spec.cells.iter().enumerate() {
        let plan = CellPlan::new(c.category, c.channel, c.predictor, &cfg).expect("supported");
        let t = (k as usize * 7 + cell) % spec.trials;
        let rec = &run.recs[cell * spec.trials + t];
        let pair = plan.run_pair(t);
        ok &= out.check(rec.pair == pair, || {
            format!("campaign {k}: pair ({cell},{t}) differs from CellPlan::run_pair")
        });
    }
    ok
}

/// Sums of the traced campaigns' layer data.
#[derive(Default)]
struct Traced {
    campaigns: u64,
    wall_s: f64,
    queue_wait_s: f64,
    run_s: f64,
    sink_s: f64,
    retries: u64,
    jobs_failed: u64,
    tail_ms: Vec<f64>,
    replica: LayerTimes,
    exact: Option<LayerTimes>,
}

pub fn run(ctx: &Ctx, tracer: Option<Arc<Tracer>>, out: &mut Outcome) {
    let mut setup = SetupTimes::default();
    let sample_setup = |setup: &mut SetupTimes| {
        setup.sample(SETUP_BATCH, |call| {
            std::hint::black_box(zoo_spec(ctx.seed, call).to_campaign());
        });
    };
    sample_setup(&mut setup);

    // Warm-up: campaign 0, untimed; its result lines must be the same
    // on the process fleet.
    let spec0 = zoo_spec(ctx.seed, 0);
    out.attempted += 1;
    match run_campaign(Backend::Thread, false, &ctx.state, &spec0, 0, None, out) {
        Some(warm) => cross_check(ctx, &spec0, &warm, out),
        None => out.failed += 1,
    }

    // With tracing, every other campaign is traced, so that traced and
    // untraced campaigns meet the same host conditions.
    let mut untraced = Requests::default();
    let mut traced = Requests::default();
    let mut acc = Traced::default();
    let phase = Instant::now();
    let mut i = 0;
    while ctx.more(phase, i) && !tracer.as_ref().is_some_and(|t| t.is_full()) {
        let k = i as u64 + 1;
        let trace = tracer.as_ref().filter(|_| i % 2 == 1);
        i += 1;
        sample_setup(&mut setup);
        let spec = zoo_spec(ctx.seed, k as usize);
        out.attempted += 1;
        let Some(r) = run_campaign(Backend::Thread, false, &ctx.state, &spec, k, trace, out) else {
            out.failed += 1;
            continue;
        };
        match trace {
            None if spot_check(&spec, &r, k, out) => untraced.push(r.latency, r.jobs, r.dispatched),
            None => out.failed += 1,
            Some(tracer) => {
                traced.push(r.latency, r.jobs, r.dispatched);
                acc.add(tracer, &spec, k, &r, out);
            }
        }
    }

    let Some(tracer) = &tracer else {
        out.set_end_to_end(&untraced, setup.median_s());
        return;
    };
    set_layers(out, &acc);
    // Probes of the layers the thread backend does not use: one campaign
    // with an fsync'd manifest, and one on the process fleet.
    let probe = |backend, manifest, k: u64, out: &mut Outcome| {
        let spec = zoo_spec(ctx.seed, k as usize);
        out.attempted += 1;
        let r = run_campaign(backend, manifest, &ctx.state, &spec, k, Some(tracer), out)
            .filter(|r| spot_check(&spec, r, k, out));
        if r.is_none() {
            out.failed += 1;
        }
        r
    };
    let k = i as u64 + 1;
    if let Some(r) = probe(Backend::Thread, true, k, out) {
        set_sink(out, &r.append_us);
    }
    if let Some(r) = probe(Backend::Fleet, false, k + 1, out) {
        set_fleet(out, &r);
    }
    out.set_overhead(&untraced, &traced);
    out.set_self_times(tracer, acc.campaigns as usize);
}

/// Run campaign 0 on the other backend and check that its result lines
/// are the same.
fn cross_check(ctx: &Ctx, spec0: &CampaignSpec, warm: &Run, out: &mut Outcome) {
    let (backend, other) = (Backend::Thread, Backend::Fleet);
    let ours = stats::digest(&result_lines(&warm.recs));
    out.attempted += 1;
    let theirs = run_campaign(other, false, &ctx.state, spec0, 0, None, out)
        .map(|r| stats::digest(&result_lines(&r.recs)));
    match theirs {
        Some(theirs) => {
            out.check(theirs == ours, || {
                format!("campaign 0 digest {ours:016x} on {backend:?}, {theirs:016x} on {other:?}")
            });
        }
        None => out.failed += 1,
    }
    out.notes.push(format!(
        "campaign 0 result-line digest {ours:016x} ({} lines), equal on {other:?}: {}",
        warm.recs.len(),
        theirs == Some(ours)
    ));
}

impl Traced {
    /// Fold in traced campaign `k`, and replay sampled pairs of it. The
    /// first traced campaign replays a fixed sample, whose counts are
    /// reported exactly.
    fn add(&mut self, tracer: &Tracer, spec: &CampaignSpec, k: u64, r: &Run, out: &mut Outcome) {
        let snap = r.metrics.as_ref().expect("traced run has metrics");
        self.campaigns += 1;
        self.wall_s += r.latency.as_secs_f64();
        self.queue_wait_s += histo(snap, "vpsim_phase_queue_wait_seconds").1;
        self.run_s += histo(snap, "vpsim_phase_run_seconds").1;
        self.sink_s += histo(snap, "vpsim_phase_sink_seconds").1;
        self.retries += counter(snap, "vpsim_job_retries_total");
        self.jobs_failed += counter(snap, "vpsim_jobs_failed_total");
        self.tail_ms.push(r.tail.as_secs_f64() * 1e3);

        let first = self.exact.is_none();
        let mut times = LayerTimes::default();
        let ok = span(Some(tracer), "core.replica", 0, k, |parent| {
            let cells = replica::cell_trials(Some(tracer), parent, k, spec);
            (0..REPLICA_PAIRS).all(|i| {
                let cell = i % spec.cells.len();
                let t = if first {
                    i
                } else {
                    (k as usize * 13 + i) % spec.trials
                };
                let rec = &r.recs[cell * spec.trials + t];
                replica::replay_pair(Some(tracer), parent, k, &cells, cell, t, rec, &mut times)
            })
        });
        out.check(ok, || {
            format!("campaign {k}: replica differs from the campaign")
        });
        self.replica.merge(&times);
        if first {
            self.exact = Some(times);
        }
    }
}

fn set_layers(out: &mut Outcome, acc: &Traced) {
    let n = acc.campaigns.max(1) as f64;
    out.set("harness.queue_wait_s", acc.queue_wait_s / n);
    out.set("harness.run_s", acc.run_s / n);
    out.set("harness.sink_s", acc.sink_s / n);
    out.set(
        "harness.busy_frac",
        acc.run_s / (THREADS as f64 * acc.wall_s),
    );
    out.set_noted(
        "harness.tail_ms",
        stats::median(&acc.tail_ms),
        format!("p50, n={}", acc.tail_ms.len()),
    );
    out.set("harness.retries", acc.retries as f64);
    out.set("harness.jobs_failed", acc.jobs_failed as f64);
    if let Some(exact) = &acc.exact {
        replica::set_metrics(out, &acc.replica, exact);
    }
}

/// The sink metrics from the manifest probe's append times.
fn set_sink(out: &mut Outcome, append_us: &[f64]) {
    let note = || "one campaign with an fsync'd manifest".to_owned();
    out.set_noted("sink.appends", append_us.len() as f64, note());
    out.set_noted("sink.append_us.p50", stats::median(append_us), note());
    out.set_noted("sink.append_s", append_us.iter().sum::<f64>() / 1e6, note());
}

/// The fleet metrics from the fleet probe: slot time per job (workers
/// x campaign wall / jobs) against the workers' own run time per job.
fn set_fleet(out: &mut Outcome, r: &Run) {
    let snap = r.metrics.as_ref().expect("traced run has metrics");
    let (runs, run_s) = histo(snap, "vpsim_phase_run_seconds");
    let rtt_us = FLEET_WORKERS as f64 * r.latency.as_secs_f64() * 1e6 / r.jobs as f64;
    let worker_us = run_s * 1e6 / runs.max(1) as f64;
    let note = || "one campaign on the process fleet".to_owned();
    out.set_noted("fleet.job_rtt_us.mean", rtt_us, note());
    out.set_noted("fleet.worker_run_us.mean", worker_us, note());
    out.set_noted("fleet.ipc_overhead_us", rtt_us - worker_us, note());
    out.set_noted("fleet.worker_crashes", r.worker_crashes as f64, note());
    out.set_noted("fleet.worker_respawns", r.worker_respawns as f64, note());
}
