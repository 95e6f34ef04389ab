//! `bench_pipeline` — run the pipeline-executor workload matrix and emit
//! the machine-readable `BENCH_pipeline.json` performance baseline.
//!
//! ```text
//! bench_pipeline                         # full matrix -> BENCH_pipeline.json
//! bench_pipeline --quick                 # CI-sized matrix
//! bench_pipeline --out FILE              # write elsewhere
//! bench_pipeline --baseline FILE         # embed FILE as "before" + speedups
//! bench_pipeline --check FILE            # compare against FILE: fail on
//!                                        #   cycle/counter drift or a >2x slowdown
//! bench_pipeline --check FILE --max-slowdown 3
//! bench_pipeline --deadline 300          # budget the whole matrix
//! bench_pipeline --strict                # escalate warnings to failures
//! bench_pipeline --traced                # run with event tracing on; the
//!                                        #   --check gate then bounds the
//!                                        #   tracing overhead
//! ```
//!
//! Simulated cycle counts and scheduler counters are bit-deterministic;
//! `--check` therefore treats *any* drift in them as an error (the
//! scheduler must stay cycle-exact) and only tolerates wall-clock noise
//! in ns per dispatched instruction up to the slowdown factor.
//!
//! Unlike `repro`, this bin drives the executor directly rather than
//! through the campaign engine, so `--deadline` is a *whole-matrix*
//! wall budget checked after the sweep (an overrun warns, or fails the
//! run under `--strict`) — it cannot cancel a workload mid-simulation.
//! For cooperative per-job cancellation use `repro --deadline`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use vpsim_bench::pipeline_bench::{
    check_against, render, report_from_json, run_matrix, run_matrix_traced, to_json,
};

#[derive(Debug, Default)]
struct Args {
    quick: bool,
    traced: bool,
    out: Option<PathBuf>,
    baseline: Option<PathBuf>,
    check: Option<PathBuf>,
    max_slowdown: f64,
    deadline: Option<Duration>,
    strict: bool,
}

fn parse_from<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
    let mut args = Args {
        max_slowdown: 2.0,
        ..Args::default()
    };
    let mut it = argv.into_iter();
    let value = |flag: &str, it: &mut dyn Iterator<Item = String>| -> Result<String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--traced" => args.traced = true,
            "--out" => args.out = Some(PathBuf::from(value("--out", &mut it)?)),
            "--baseline" => args.baseline = Some(PathBuf::from(value("--baseline", &mut it)?)),
            "--check" => args.check = Some(PathBuf::from(value("--check", &mut it)?)),
            "--max-slowdown" => {
                let v = value("--max-slowdown", &mut it)?;
                args.max_slowdown = v
                    .parse()
                    .map_err(|_| format!("--max-slowdown expects a number, got `{v}`"))?;
                if args.max_slowdown < 1.0 {
                    return Err("--max-slowdown must be >= 1".to_owned());
                }
            }
            "--deadline" => {
                let v = value("--deadline", &mut it)?;
                let secs: u64 = v
                    .parse()
                    .map_err(|_| format!("--deadline expects whole seconds, got `{v}`"))?;
                if secs == 0 {
                    return Err("--deadline must be positive".to_owned());
                }
                args.deadline = Some(Duration::from_secs(secs));
            }
            "--strict" => args.strict = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_from(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: bench_pipeline [--quick] [--traced] [--out FILE] [--baseline FILE] \
                 [--check FILE] [--max-slowdown X] [--deadline SECS] [--strict]"
            );
            return ExitCode::FAILURE;
        }
    };
    let started = Instant::now();
    let report = if args.traced {
        run_matrix_traced(args.quick)
    } else {
        run_matrix(args.quick)
    };
    print!("{}", render(&report));

    if let Some(budget) = args.deadline {
        let elapsed = started.elapsed();
        if elapsed > budget {
            eprintln!(
                "deadline: matrix took {elapsed:?}, over the {budget:?} budget{}",
                if args.strict { "" } else { " (warning)" }
            );
            if args.strict {
                return ExitCode::FAILURE;
            }
        }
    }
    if args.strict {
        let degenerate: Vec<&str> = report
            .cells
            .iter()
            .filter(|c| c.cycles == 0 || c.wall_ns == 0)
            .map(|c| c.workload.as_str())
            .collect();
        if !degenerate.is_empty() {
            eprintln!(
                "strict: {} cell(s) produced degenerate measurements: {}",
                degenerate.len(),
                degenerate.join(", ")
            );
            return ExitCode::FAILURE;
        }
    }

    if let Some(path) = &args.check {
        let baseline = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read baseline {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        match check_against(&report, &baseline, args.max_slowdown) {
            Ok(()) => {
                println!(
                    "check: {} cells within {}x of {}",
                    report.cells.len(),
                    args.max_slowdown,
                    path.display()
                );
            }
            Err(problems) => {
                eprintln!("perf check FAILED against {}:\n{problems}", path.display());
                return ExitCode::FAILURE;
            }
        }
        // --check is read-only: never overwrite the committed baseline.
        return ExitCode::SUCCESS;
    }

    let before = match &args.baseline {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(s) => {
                let before = report_from_json(&s);
                if before.cells.is_empty() {
                    eprintln!("error: baseline {} contains no cells", path.display());
                    return ExitCode::FAILURE;
                }
                Some(before)
            }
            Err(e) => {
                eprintln!("error: cannot read baseline {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let json = to_json(&report, before.as_ref());
    let out = args
        .out
        .unwrap_or_else(|| PathBuf::from("BENCH_pipeline.json"));
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("error: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", out.display());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_from(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_supervision_flags() {
        let a = parse(&["--quick", "--deadline", "300", "--strict"]).unwrap();
        assert!(a.quick);
        assert!(a.strict);
        assert_eq!(a.deadline, Some(Duration::from_secs(300)));
        assert!(!parse(&["--quick"]).unwrap().strict);
    }

    #[test]
    fn parses_traced_flag() {
        assert!(parse(&["--quick", "--traced"]).unwrap().traced);
        assert!(!parse(&["--quick"]).unwrap().traced);
    }

    #[test]
    fn rejects_bad_deadlines() {
        assert!(parse(&["--deadline", "0"]).is_err());
        assert!(parse(&["--deadline", "soon"]).is_err());
        assert!(parse(&["--deadline"]).is_err());
    }
}
