//! Small campaigns through the daemon: an in-process `Server` (one
//! runner, one worker thread per campaign, thread backend) and one
//! closed-loop client that submits a one-cell campaign, streams its
//! results to the terminal status line, and only then submits the next.
//! Every campaign has its own name, so no two specs are identical.

use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use vpsec::experiment::{CellPlan, PairOutcome, TrialOutcome};
use vpsim_harness::{CampaignSpec, Exec, JobObserver, JobRecord};
use vpsim_json::Json;
use vpsim_pipeline::SchedStats;
use vpsim_serve::{client, ServeConfig, Server};

use crate::replica::{self, LayerTimes};
use crate::spans::{span, Tracer};
use crate::wait::{self, Gave};
use crate::zoo::{self, result_lines, spec_json, Collect};
use crate::{stats, Ctx, Outcome, Requests, SetupTimes};

/// Worker threads per campaign. One, for the reason given at
/// `zoo::THREADS`: with two, about one campaign in 10000 never closes
/// its stream.
const JOBS: usize = 1;
/// Paired trials per campaign.
const TRIALS: usize = 12;
/// The cells campaigns take in turn (timing window, lvp).
const CELLS: [&str; 2] = ["train_test", "test_hit"];
/// Daemon starts per set-up sample.
const STARTS_PER_SAMPLE: usize = 2;
/// Bound on a daemon shutdown's join.
const JOIN_BOUND: Duration = Duration::from_secs(3);
/// Longest one campaign's stream may stay open.
const STREAM_BOUND: Duration = Duration::from_secs(30);
/// Traced campaigns whose spec is also run in process, to time the
/// harness tail the daemon hides.
const TAIL_PROBES: usize = 10;

/// Campaigns take the cells two at a time, so that traced and untraced
/// campaigns (which alternate) see the same mix.
fn spec_text(seed: u64, k: usize) -> String {
    spec_json(seed, k, TRIALS, &[CELLS[k / 2 % CELLS.len()]])
}

/// Start a daemon and wait until `/healthz` answers. `Server::start`
/// binds its listener before it returns, so one request is enough.
fn start(state: &Path) -> std::io::Result<Server> {
    let server = Server::start(ServeConfig {
        state_dir: state.to_path_buf(),
        runners: 1,
        jobs: JOBS,
        ..ServeConfig::default()
    })?;
    match client::request(&server.addr().to_string(), "GET", "/healthz", None) {
        Ok(r) if r.status == 200 => Ok(server),
        answer => {
            stop(server);
            Err(std::io::Error::other(format!(
                "/healthz answered {:?}",
                answer.map(|r| r.status)
            )))
        }
    }
}

/// Shut the daemon down and join it within [`JOIN_BOUND`]; `false` if
/// the join missed the bound (the daemon threads are then abandoned to
/// process exit).
fn stop(server: Server) -> bool {
    server.shutdown();
    let (tx, rx) = mpsc::channel();
    let joiner = std::thread::spawn(move || {
        server.join();
        let _ = tx.send(());
    });
    if rx.recv_timeout(JOIN_BOUND).is_ok() {
        let _ = joiner.join();
        true
    } else {
        false
    }
}

/// One set-up sample: start [`STARTS_PER_SAMPLE`] daemons, timed
/// together, and return them running.
fn sample_starts(state: &Path, setup: &mut SetupTimes, out: &mut Outcome) -> Vec<Server> {
    let mut started = Vec::new();
    setup.sample(STARTS_PER_SAMPLE, |call| {
        match start(&state.join(format!("daemon-{call}"))) {
            Ok(s) => started.push(s),
            Err(e) => {
                out.check(false, || format!("daemon start: {e}"));
            }
        }
    });
    started
}

/// Stop `daemons`, outside every timing; a join that misses its bound
/// counts as a failed operation.
fn stop_all(daemons: Vec<Server>, out: &mut Outcome) {
    for s in daemons {
        if !stop(s) {
            out.failed += 1;
            out.notes
                .push(format!("daemon join missed its {JOIN_BOUND:?} bound"));
        }
    }
}

/// Client-side timeline of one campaign, in ms since its submission.
#[derive(Debug, Default, Clone)]
struct Timeline {
    ack: f64,
    first_line: f64,
    last_result: f64,
    close: f64,
    lines: usize,
}

/// One streamed campaign.
struct Streamed {
    k: usize,
    id: u64,
    results: Vec<String>,
    timeline: Timeline,
}

/// Lines of one result stream as they arrive.
#[derive(Debug, Default)]
struct StreamState {
    first: Option<Instant>,
    last_result: Option<Instant>,
    results: Vec<String>,
    status: Option<String>,
    lines: usize,
}

/// Why a campaign request failed.
enum Failure {
    /// The daemon answered wrongly.
    Bad(String),
    /// The stream did not close in time; the daemon may be stuck.
    Hung(String),
}

/// Submit campaign `k` and stream it to its close. The stream is read
/// on its own thread: one that stays open [`wait::TAIL_BOUND`] after its
/// last result line, or longer than [`STREAM_BOUND`] in all, is
/// abandoned as hung.
fn campaign(addr: &str, seed: u64, k: usize, tracer: Option<&Tracer>) -> Result<Streamed, Failure> {
    let spec = spec_text(seed, k);
    let t0 = Instant::now();
    let ms = |t: Instant| t.duration_since(t0).as_secs_f64() * 1e3;
    let resp = span(tracer, "serve.submit", 0, k as u64, |_| {
        client::request(addr, "POST", "/campaigns", Some(&spec))
    })
    .map_err(|e| Failure::Bad(format!("submit: {e}")))?;
    let ack = Instant::now();
    if resp.status != 201 {
        return Err(Failure::Bad(format!(
            "submit: HTTP {} {}",
            resp.status,
            resp.body.trim()
        )));
    }
    let id = vpsim_json::field_u64(&resp.body, "id")
        .ok_or_else(|| Failure::Bad("submit: no id in the 201 body".to_owned()))?;

    let state = Arc::new(Mutex::new(StreamState::default()));
    let open = tracer.map(Tracer::open);
    let (tx, rx) = mpsc::channel();
    let reader = {
        let (addr, state) = (addr.to_owned(), Arc::clone(&state));
        std::thread::Builder::new()
            .name("bench-stream".to_owned())
            .spawn(move || {
                let http = client::stream(&addr, &format!("/campaigns/{id}/results"), |line| {
                    let now = Instant::now();
                    let mut st = state.lock().expect("stream state poisoned");
                    st.first.get_or_insert(now);
                    st.lines += 1;
                    match vpsim_json::field_str(line, "type") {
                        Some("result") => {
                            st.last_result = Some(now);
                            st.results.push(line.to_owned());
                        }
                        Some("status") => st.status = Some(line.to_owned()),
                        _ => {}
                    }
                });
                let _ = tx.send((http, Instant::now()));
            })
            .map_err(|e| Failure::Bad(format!("cannot spawn the stream reader: {e}")))?
    };
    let all_results = || {
        let st = state.lock().expect("stream state poisoned");
        st.last_result.filter(|_| st.results.len() == TRIALS)
    };
    let (http, close) = match wait::wait(&rx, t0, STREAM_BOUND, all_results) {
        Ok(done) => {
            let _ = reader.join();
            done
        }
        Err(Gave::Panicked) => {
            return Err(Failure::Bad("the stream reader panicked".to_owned()));
        }
        Err(Gave::Hung) => {
            let st = state.lock().expect("stream state poisoned");
            return Err(Failure::Hung(format!(
                "campaign {k} (id {id}): stream open {:?} after submission with {} of \
                 {TRIALS} results and no end",
                t0.elapsed(),
                st.results.len()
            )));
        }
    };
    if let (Some(t), Some(o)) = (tracer, open) {
        t.close(o, "serve.stream", 0, k as u64);
    }
    let http = http.map_err(|e| Failure::Bad(format!("stream: {e}")))?;
    if http != 200 {
        return Err(Failure::Bad(format!("stream: HTTP {http}")));
    }
    let st = std::mem::take(&mut *state.lock().expect("stream state poisoned"));
    let status = st
        .status
        .ok_or_else(|| Failure::Bad("stream closed without a status line".to_owned()))?;
    let total = vpsim_json::field_u64(&status, "jobs_total");
    if vpsim_json::field_str(&status, "state") != Some("done")
        || total != Some(TRIALS as u64)
        || vpsim_json::field_u64(&status, "jobs_done") != total
        || vpsim_json::field_u64(&status, "failed_cells") != Some(0)
    {
        return Err(Failure::Bad(format!("stream ended with {status}")));
    }
    Ok(Streamed {
        k,
        id,
        results: st.results,
        timeline: Timeline {
            ack: ms(ack),
            first_line: st.first.map_or(f64::NAN, ms),
            last_result: st.last_result.map_or(f64::NAN, ms),
            close: ms(close),
            lines: st.lines,
        },
    })
}

/// The daemon under test. A daemon whose stream hung is shut down
/// without a join (its stuck threads are abandoned to process exit)
/// and replaced by a fresh one.
struct Daemon {
    server: Server,
    addr: String,
    state: PathBuf,
    replaced: usize,
}

impl Daemon {
    /// Issue campaign `k`; `None` if it failed.
    fn campaign(
        &mut self,
        seed: u64,
        k: usize,
        tracer: Option<&Tracer>,
        out: &mut Outcome,
    ) -> Option<Streamed> {
        out.attempted += 1;
        match campaign(&self.addr, seed, k, tracer) {
            Ok(c) => Some(c),
            Err(Failure::Bad(e)) => {
                out.failed += 1;
                out.check(false, || format!("campaign {k}: {e}"));
                None
            }
            Err(Failure::Hung(e)) => {
                out.failed += 1;
                out.notes.push(format!("abandoned daemon: {e}"));
                self.replaced += 1;
                match start(
                    &self
                        .state
                        .join(format!("daemon-replacement-{}", self.replaced)),
                ) {
                    Ok(fresh) => {
                        self.addr = fresh.addr().to_string();
                        let hung = std::mem::replace(&mut self.server, fresh);
                        hung.shutdown();
                    }
                    Err(e) => {
                        out.check(false, || format!("replacement daemon start: {e}"));
                    }
                }
                None
            }
        }
    }
}

/// The result lines and dispatch count of campaign `k`, computed in
/// process through `CellPlan::run_pair`, untimed.
fn reference(seed: u64, k: usize) -> (Vec<String>, u64) {
    let spec = CampaignSpec::parse(&spec_text(seed, k)).expect("generated spec is valid");
    let cfg = spec.experiment_config();
    let c = &spec.cells[0];
    let plan = CellPlan::new(c.category, c.channel, c.predictor, &cfg).expect("supported cell");
    let mut dispatched = 0;
    let recs: Vec<JobRecord> = (0..TRIALS)
        .map(|trial| {
            let pair = plan.run_pair(trial);
            dispatched += pair.sched().dispatched;
            JobRecord {
                cell: 0,
                trial,
                pair,
                wall_nanos: 0,
                attempts: 1,
            }
        })
        .collect();
    (result_lines(&recs), dispatched)
}

/// Check every streamed campaign against its reference, on two
/// threads; returns the dispatch count per campaign.
fn verify(seed: u64, streamed: &[Streamed], out: &mut Outcome) -> Vec<u64> {
    let refs: Vec<(Vec<String>, u64)> = std::thread::scope(|s| {
        let halves: Vec<_> = streamed
            .chunks(streamed.len().div_ceil(2).max(1))
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|c| reference(seed, c.k))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    streamed
        .iter()
        .zip(&refs)
        .map(|(c, (lines, dispatched))| {
            out.check(&c.results == lines, || {
                format!(
                    "campaign {} (id {}): streamed results differ from the in-process run",
                    c.k, c.id
                )
            });
            *dispatched
        })
        .collect()
}

/// The job record a streamed result line carries (its telemetry
/// fields are not streamed).
fn stream_record(line: &str) -> Option<JobRecord> {
    use vpsim_json::{field_hex, field_u64};
    let arm = |obs: &str, cyc: &str| -> Option<TrialOutcome> {
        Some(TrialOutcome {
            observed: f64::from_bits(field_hex(line, obs)?),
            total_cycles: field_u64(line, cyc)?,
            sched: SchedStats::default(),
        })
    };
    Some(JobRecord {
        cell: usize::try_from(field_u64(line, "cell")?).ok()?,
        trial: usize::try_from(field_u64(line, "trial")?).ok()?,
        pair: PairOutcome {
            mapped: arm("m_obs", "m_cyc")?,
            unmapped: arm("u_obs", "u_cyc")?,
        },
        wall_nanos: 0,
        attempts: 1,
    })
}

/// Histogram `(count, sum)` or counter value of `family` in a
/// `/campaigns/<id>/metrics` document.
fn family(doc: &Json, family: &str) -> (f64, f64) {
    let fams = doc
        .get("metrics")
        .and_then(|m| m.get("families"))
        .and_then(Json::as_arr)
        .unwrap_or_default();
    let mut acc = (0.0, 0.0);
    for f in fams
        .iter()
        .filter(|f| f.get("name").and_then(Json::as_str) == Some(family))
    {
        for s in f.get("series").and_then(Json::as_arr).unwrap_or_default() {
            let num = |k: &str| s.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            acc.0 += num("count") + num("value");
            acc.1 += num("sum");
        }
    }
    acc
}

/// The harness tail (last completion to `Campaign::run` returning) of
/// campaign `k` run in process the way the daemon runs it; `None` if
/// the run was abandoned.
fn harness_tail_ms(seed: u64, k: usize, out: &mut Outcome) -> Option<f64> {
    let spec = CampaignSpec::parse(&spec_text(seed, k)).expect("generated spec is valid");
    let collect = Arc::new(Collect::default());
    let exec = Exec {
        jobs: JOBS,
        observer: Some(Arc::clone(&collect) as Arc<dyn JobObserver>),
        ..Exec::default()
    };
    out.attempted += 1;
    match zoo::bounded_run(spec.to_campaign(), exec, &collect, TRIALS) {
        Ok((Ok(_), ended)) => collect
            .last_done()
            .map(|t| ended.duration_since(t).as_secs_f64() * 1e3),
        Ok((Err(e), _)) => {
            out.check(false, || format!("in-process campaign {k}: {e}"));
            None
        }
        Err(why) => {
            out.failed += 1;
            out.notes
                .push(format!("in-process campaign {k} abandoned: {why}"));
            None
        }
    }
}

/// What the traced campaigns add beyond their client timelines.
#[derive(Default)]
struct Layers {
    /// Each campaign's `/campaigns/<id>/metrics` document.
    metrics_docs: Vec<Json>,
    /// Replica timings over every traced campaign.
    times: LayerTimes,
    /// The fixed replica sample of the first traced campaign.
    exact: Option<LayerTimes>,
}

impl Layers {
    /// Fetch traced campaign `c`'s harness metrics and replay one of its
    /// pairs (a fixed two on the first traced campaign, whose counts are
    /// reported exactly).
    fn add(&mut self, tracer: &Tracer, addr: &str, seed: u64, c: &Streamed, out: &mut Outcome) {
        let k = c.k;
        let path = format!("/campaigns/{}/metrics", c.id);
        let doc = span(Some(tracer), "serve.metrics", 0, k as u64, |_| {
            client::request(addr, "GET", &path, None)
        })
        .ok()
        .filter(|r| r.status == 200)
        .and_then(|r| vpsim_json::parse(&r.body).ok());
        out.check(doc.is_some(), || {
            format!("campaign {k}: no metrics document")
        });
        self.metrics_docs.extend(doc);

        let spec = CampaignSpec::parse(&spec_text(seed, k)).expect("generated spec is valid");
        let first = self.exact.is_none();
        let mut t = LayerTimes::default();
        let ok = span(Some(tracer), "core.replica", 0, k as u64, |parent| {
            let cells = replica::cell_trials(Some(tracer), parent, k as u64, &spec);
            let pairs: Vec<usize> = if first { vec![0, 1] } else { vec![k % TRIALS] };
            pairs.into_iter().all(|trial| {
                stream_record(&c.results[trial]).is_some_and(|rec| {
                    replica::replay_pair(
                        Some(tracer),
                        parent,
                        k as u64,
                        &cells,
                        0,
                        trial,
                        &rec,
                        &mut t,
                    )
                })
            })
        });
        out.check(ok, || {
            format!("campaign {k}: replica differs from the stream")
        });
        self.times.merge(&t);
        if first {
            self.exact = Some(t);
        }
    }
}

pub fn run(ctx: &Ctx, tracer: Option<Arc<Tracer>>, out: &mut Outcome) {
    // Set-up: start daemons until /healthz answers. The first set-up
    // sample's last daemon serves the run. The other daemons are
    // stopped one campaign later, once idle: a shutdown that lands
    // while the runner is between its shutdown check and its wait is
    // lost (a known lost wakeup), and a runner just started or just done
    // with a campaign may be there.
    let mut setup = SetupTimes::default();
    let mut idle = sample_starts(&ctx.state, &mut setup, out);
    let Some(server) = idle.pop() else {
        stop_all(idle, out);
        return;
    };
    let mut daemon = Daemon {
        addr: server.addr().to_string(),
        server,
        state: ctx.state.clone(),
        replaced: 0,
    };

    // Warm-up campaign, untimed but verified.
    let mut streamed = Vec::new();
    let mut k = 0usize;
    streamed.extend(daemon.campaign(ctx.seed, k, None, out));
    k += 1;

    // With tracing, every other campaign is traced, so that traced and
    // untraced campaigns meet the same host conditions.
    let mut untraced_idx = Vec::new();
    let mut traced_idx = Vec::new();
    let mut layers = Layers::default();
    let (phase, first_k) = (Instant::now(), k);
    while ctx.more(phase, k - first_k) && !tracer.as_ref().is_some_and(|t| t.is_full()) {
        let trace = tracer.as_deref().filter(|_| (k - first_k) % 2 == 1);
        let started = sample_starts(&ctx.state, &mut setup, out);
        stop_all(std::mem::replace(&mut idle, started), out);
        if let Some(c) = daemon.campaign(ctx.seed, k, trace, out) {
            match trace {
                None => untraced_idx.push(streamed.len()),
                Some(tracer) => {
                    layers.add(tracer, &daemon.addr, ctx.seed, &c, out);
                    traced_idx.push(streamed.len());
                }
            }
            streamed.push(c);
        }
        k += 1;
    }

    let dispatched = verify(ctx.seed, &streamed, out);
    idle.push(daemon.server);
    stop_all(idle, out);
    let requests = |idx: &[usize]| {
        let mut r = Requests::default();
        for &i in idx {
            let c = &streamed[i];
            r.push(
                Duration::from_secs_f64(c.timeline.close / 1e3),
                TRIALS as u64,
                dispatched[i],
            );
        }
        r
    };
    let untraced = requests(&untraced_idx);
    let Some(tracer) = tracer else {
        out.set_end_to_end(&untraced, setup.median_s());
        return;
    };

    let traced = requests(&traced_idx);
    let timelines: Vec<&Timeline> = traced_idx.iter().map(|&i| &streamed[i].timeline).collect();
    let p50 = |f: &dyn Fn(&Timeline) -> f64| {
        stats::median(&timelines.iter().map(|t| f(t)).collect::<Vec<_>>())
    };
    let n = format!("n={}", timelines.len());
    out.set_noted("serve.submit_ms.p50", p50(&|t| t.ack), n.clone());
    out.set_noted(
        "serve.ack_to_first_ms.p50",
        p50(&|t| t.first_line - t.ack),
        n.clone(),
    );
    out.set_noted("serve.first_line_ms.p50", p50(&|t| t.first_line), n.clone());
    out.set_tail(
        "serve.first_line_ms.tail",
        &timelines.iter().map(|t| t.first_line).collect::<Vec<_>>(),
    );
    out.set_noted(
        "serve.last_result_ms.p50",
        p50(&|t| t.last_result),
        n.clone(),
    );
    out.set_noted(
        "serve.close_tail_ms.p50",
        p50(&|t| t.close - t.last_result),
        n.clone(),
    );
    out.set_noted(
        "serve.stream_lines",
        stats::mean(&timelines.iter().map(|t| t.lines as f64).collect::<Vec<_>>()),
        "per stream".to_owned(),
    );

    let metrics_docs = &layers.metrics_docs;
    let sum = |fam: &str, which: fn((f64, f64)) -> f64| {
        metrics_docs
            .iter()
            .map(|d| which(family(d, fam)))
            .sum::<f64>()
    };
    let docs = metrics_docs.len().max(1) as f64;
    let run_s = sum("vpsim_phase_run_seconds", |h| h.1);
    let wall_s = traced.latency_ms.iter().sum::<f64>() / 1e3;
    out.set(
        "harness.queue_wait_s",
        sum("vpsim_phase_queue_wait_seconds", |h| h.1) / docs,
    );
    out.set("harness.run_s", run_s / docs);
    out.set(
        "harness.sink_s",
        sum("vpsim_phase_sink_seconds", |h| h.1) / docs,
    );
    out.set_noted(
        "harness.busy_frac",
        run_s / (JOBS as f64 * wall_s),
        "run time over workers x client-side campaign latency".to_owned(),
    );
    out.set("harness.retries", sum("vpsim_job_retries_total", |h| h.0));
    out.set(
        "harness.jobs_failed",
        sum("vpsim_jobs_failed_total", |h| h.0),
    );
    let probes: Vec<f64> = traced_idx
        .iter()
        .take(TAIL_PROBES)
        .filter_map(|&i| harness_tail_ms(ctx.seed, streamed[i].k, out))
        .collect();
    out.set_noted(
        "harness.tail_ms",
        stats::median(&probes),
        format!("p50 of {} in-process runs of served specs", probes.len()),
    );
    if let Some(exact) = &layers.exact {
        replica::set_metrics(out, &layers.times, exact);
    }
    out.set_overhead(&untraced, &traced);
    out.set_self_times(&tracer, traced.latency_ms.len());
}
