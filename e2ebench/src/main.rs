//! End-to-end and per-layer benchmark of the campaign engine, the
//! process fleet, the RSA exponent leak and the campaign daemon.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Every workload builds its inputs from
//! `--seed`, times its set-up, warms up untimed, then issues requests
//! back to back (one closed-loop client) for `--seconds` and checks
//! every output. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! traces every other request, prints the per-layer metrics and the
//! tracing overhead (traced against untraced requests), and writes its
//! spans to
//! `.bench_state/spans-<workload>.jsonl`. Human-readable lines come
//! first; the last line of stdout is one JSON object. Manifests and
//! daemon state go to a per-run directory under `.bench_state/`, removed
//! at exit.

mod replica;
mod rsa;
mod serve;
mod spans;
mod stats;
mod wait;
mod zoo;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spans::Tracer;
use stats::{END_TO_END, PER_LAYER};

/// The workloads, as named on the command line and in `BENCHMARK.json`.
pub const WORKLOADS: &[&str] = &["zoo_thread", "rsa_leak", "serve_small"];

/// Most spans one traced phase keeps; the phase ends early when full.
const SPAN_CAPACITY: usize = 300_000;

/// Fewest requests a run issues: a tail needs more than ten, among the
/// untraced half of a traced run too.
const MIN_REQUESTS: usize = 24;

/// What a workload needs to know about its run.
pub struct Ctx {
    /// The workload seed: every input is a function of it.
    pub seed: u64,
    /// Length of each measured phase.
    pub phase: Duration,
    /// Scratch directory for manifests and daemon state.
    pub state: PathBuf,
}

impl Ctx {
    /// Whether a phase started at `started` that issued `issued`
    /// requests goes on: for the phase length, and until it has enough
    /// requests for a tail latency.
    pub fn more(&self, started: Instant, issued: usize) -> bool {
        started.elapsed() < self.phase || issued < MIN_REQUESTS
    }
}

/// Requests of one measured phase, issued back to back.
#[derive(Debug, Default, Clone)]
pub struct Requests {
    /// Latency of each request, ms.
    pub latency_ms: Vec<f64>,
    /// Work units completed (paired trials, or exponent bits).
    pub units: u64,
    /// Instructions dispatched by those units.
    pub dispatched: u64,
}

impl Requests {
    pub fn push(&mut self, latency: Duration, units: u64, dispatched: u64) {
        self.latency_ms.push(latency.as_secs_f64() * 1e3);
        self.units += units;
        self.dispatched += dispatched;
    }

    fn busy_s(&self) -> f64 {
        self.latency_ms.iter().sum::<f64>() / 1e3
    }

    /// Work units per second of request time.
    pub fn units_per_s(&self) -> f64 {
        self.units as f64 / self.busy_s()
    }

    pub fn done_p50(&self) -> f64 {
        stats::median(&self.latency_ms)
    }
}

/// Result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests issued in the measured phases.
    pub attempted: u64,
    /// Requests that failed: failed jobs or cells, non-2xx responses,
    /// streams without a `done` status, output mismatches, teardown
    /// joins that missed their bound.
    pub failed: u64,
    /// Failed correctness checks (names and details).
    pub mismatches: Vec<String>,
    /// Correctness checks made.
    pub checks: u64,
    /// Metric values by name, with an optional note.
    pub metrics: BTreeMap<&'static str, (f64, String)>,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a correctness check; a failed one makes the run
    /// incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.checks += 1;
        if !ok {
            let what = what();
            eprintln!("check failed: {what}");
            self.mismatches.push(what);
        }
        ok
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, (value, String::new()));
    }

    pub fn set_noted(&mut self, name: &'static str, value: f64, note: String) {
        self.metrics.insert(name, (value, note));
    }

    /// Set the end-to-end metrics that every request-based workload
    /// derives the same way.
    pub fn set_end_to_end(&mut self, reqs: &Requests, setup_s: f64) {
        self.set("jobs_per_s", reqs.units_per_s());
        self.set(
            "ns_per_dispatched",
            reqs.busy_s() * 1e9 / reqs.dispatched as f64,
        );
        self.set_noted(
            "done_ms.p50",
            reqs.done_p50(),
            format!("n={}", reqs.latency_ms.len()),
        );
        self.set("setup_s", setup_s);
    }

    /// Set a tail metric with its percentile and sample count.
    pub fn set_tail(&mut self, name: &'static str, samples: &[f64]) {
        match stats::tail(samples) {
            Some(t) => self.set_noted(
                name,
                t.value,
                format!("p{:.1}, n={}, 10 beyond", t.percentile, t.n),
            ),
            None => self.set_noted(
                name,
                samples.iter().copied().fold(0.0, f64::max),
                format!("max of {} samples, too few for a tail", samples.len()),
            ),
        }
    }

    /// Set the tail latency of the untraced requests, and the tracing
    /// overhead: traced against untraced throughput and median latency.
    pub fn set_overhead(&mut self, untraced: &Requests, traced: &Requests) {
        self.set_tail("done_ms.tail", &untraced.latency_ms);
        self.set_noted(
            "trace.overhead.jobs_per_s",
            traced.units_per_s() / untraced.units_per_s() - 1.0,
            format!(
                "traced {:.1}/s vs untraced {:.1}/s",
                traced.units_per_s(),
                untraced.units_per_s()
            ),
        );
        self.set_noted(
            "trace.overhead.done_ms",
            traced.done_p50() - untraced.done_p50(),
            format!(
                "traced p50 {:.3} ms (n={}) vs untraced {:.3} ms (n={})",
                traced.done_p50(),
                traced.latency_ms.len(),
                untraced.done_p50(),
                untraced.latency_ms.len()
            ),
        );
    }

    /// Set each layer's self time per traced request, and the span
    /// count.
    pub fn set_self_times(&mut self, tracer: &Tracer, requests: usize) {
        let spans = tracer.spans();
        let by_layer = spans::self_time_by_layer(&spans);
        let per_request = |layer: &str| {
            by_layer.get(layer).copied().unwrap_or(0) as f64 / 1e6 / requests.max(1) as f64
        };
        for (name, layer) in [
            ("self.serve_ms", "serve"),
            ("self.harness_ms", "harness"),
            ("self.sink_ms", "sink"),
            ("self.core_ms", "core"),
            ("self.predictor_ms", "predictor"),
            ("self.mem_ms", "mem"),
            ("self.pipeline_ms", "pipeline"),
            ("self.crypto_ms", "crypto"),
        ] {
            self.set_noted(name, per_request(layer), "per traced request".to_owned());
        }
        self.set("trace.spans", spans.len() as f64);
    }
}

/// Set-up time, sampled through a run: once at set-up and once before
/// each request, so that the samples meet the same host conditions as
/// the requests. Each sample times a batch of set-up calls together, so
/// that a set-up of a microsecond still spans a measurable interval;
/// `setup_s` is the median sample.
#[derive(Debug, Default)]
pub struct SetupTimes {
    /// Seconds per call, one entry per sample.
    samples: Vec<f64>,
    /// Calls made so far.
    calls: usize,
}

impl SetupTimes {
    /// Time `batch` calls of `f(call)` as one sample; `call` counts on
    /// across samples.
    pub fn sample(&mut self, batch: usize, mut f: impl FnMut(usize)) {
        let t = Instant::now();
        for call in self.calls..self.calls + batch {
            f(call);
        }
        self.samples.push(t.elapsed().as_secs_f64() / batch as f64);
        self.calls += batch;
    }

    /// The median sample, in seconds per set-up.
    pub fn median_s(&self) -> f64 {
        stats::median(&self.samples)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be 1..=600, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The process fleet re-execs this binary as its workers.
    if argv.first().map(String::as_str) == Some("--worker-loop") {
        std::process::exit(vpsim_harness::worker_loop());
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let state = PathBuf::from(".bench_state").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&state) {
        eprintln!("error: cannot create {}: {e}", state.display());
        std::process::exit(1);
    }
    let ctx = Ctx {
        seed: args.seed,
        phase: Duration::from_secs(args.seconds),
        state,
    };
    let tracer = args.trace.then(|| Arc::new(Tracer::new(SPAN_CAPACITY)));
    let mut out = Outcome::default();
    let (started, steal0) = (Instant::now(), stats::cpu_and_steal_s().1);
    match args.workload.as_str() {
        "zoo_thread" => zoo::run(&ctx, tracer.clone(), &mut out),
        "rsa_leak" => rsa::run(&ctx, tracer.clone(), &mut out),
        "serve_small" => serve::run(&ctx, tracer.clone(), &mut out),
        _ => unreachable!("workload validated by parse_args"),
    }
    let _ = std::fs::remove_dir_all(&ctx.state);
    if let Some(tracer) = &tracer {
        let path = PathBuf::from(".bench_state").join(format!("spans-{}.jsonl", args.workload));
        match tracer.write_jsonl(&path) {
            Ok(()) => out.notes.push(format!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            )),
            Err(e) => out
                .notes
                .push(format!("spans: could not write {}: {e}", path.display())),
        }
    }
    if !args.trace {
        out.set("peak_rss_mib", stats::peak_rss_mib());
    }
    let (cpu_s, steal1) = stats::cpu_and_steal_s();
    out.notes.push(format!(
        "host: {} CPUs; this run {:.2} s wall, {cpu_s:.2} s CPU (fleet workers excluded), \
         {:.2} s stolen from the host's CPUs by other guests",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        started.elapsed().as_secs_f64(),
        steal1 - steal0
    ));
    out.notes.push(
        "model: unvalidated against hardware, so no accuracy or error figure is reported; \
         all times are host time"
            .to_owned(),
    );
    std::process::exit(report(&args, &mut out));
}

/// Print the metrics and the result line; returns the exit code, which
/// is not 0 when a check failed.
fn report(args: &Args, out: &mut Outcome) -> i32 {
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        // A layer this workload does not exercise reads 0.
        for (name, _) in PER_LAYER {
            out.metrics
                .entry(name)
                .or_insert((0.0, "not exercised".to_owned()));
        }
    }
    let names: Vec<&str> = out.metrics.keys().copied().collect();
    let mut want: Vec<&str> = declared.iter().map(|&(n, _)| n).collect();
    want.sort_unstable();
    if names != want {
        eprintln!("error: metric set {names:?} differs from the declared {want:?}");
        return 1;
    }
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    for note in &out.notes {
        println!("# {note}");
    }
    let mut json = String::from("{");
    let _ = write!(
        json,
        "\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        out.mismatches.is_empty(),
        out.attempted.max(1),
        out.failed
    );
    for (i, &(name, unit)) in declared.iter().enumerate() {
        let (value, note) = &out.metrics[name];
        let value = if value.is_finite() {
            *value
        } else {
            out.mismatches.push(format!("{name} is not finite"));
            0.0
        };
        println!(
            "# {name} = {value} {unit}{}",
            if note.is_empty() {
                String::new()
            } else {
                format!("  ({note})")
            }
        );
        if i > 0 {
            json.push(',');
        }
        let _ = write!(json, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    json.push_str("}}");
    if !out.mismatches.is_empty() {
        // A non-finite value found above makes the run incorrect too.
        json = json.replacen("\"correct\":true", "\"correct\":false", 1);
    }
    println!(
        "# failed_frac = {} ({} of {} requests), checks {} made, {} failed",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted,
        out.checks,
        out.mismatches.len()
    );
    println!("{json}");
    i32::from(!out.mismatches.is_empty())
}
