//! Sample statistics, result digests and the declared metric set.
//!
//! The metric names below are the ones `BENCHMARK.json` declares; the
//! unit tests keep the two in step, and `main` refuses to print a
//! result whose metric set differs from the declaration.

/// End-to-end metrics, printed by every workload with `--trace 0`:
/// `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("jobs_per_s", "1/s"),
    ("ns_per_dispatched", "ns"),
    ("done_ms.p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("done_ms.tail", "ms"),
    ("serve.submit_ms.p50", "ms"),
    ("serve.ack_to_first_ms.p50", "ms"),
    ("serve.first_line_ms.p50", "ms"),
    ("serve.first_line_ms.tail", "ms"),
    ("serve.last_result_ms.p50", "ms"),
    ("serve.close_tail_ms.p50", "ms"),
    ("serve.stream_lines", "count"),
    ("harness.queue_wait_s", "s"),
    ("harness.run_s", "s"),
    ("harness.sink_s", "s"),
    ("harness.busy_frac", "ratio"),
    ("harness.tail_ms", "ms"),
    ("harness.retries", "count"),
    ("harness.jobs_failed", "count"),
    ("sink.appends", "count"),
    ("sink.append_us.p50", "us"),
    ("sink.append_s", "s"),
    ("fleet.job_rtt_us.mean", "us"),
    ("fleet.worker_run_us.mean", "us"),
    ("fleet.ipc_overhead_us", "us"),
    ("fleet.worker_crashes", "count"),
    ("fleet.worker_respawns", "count"),
    ("core.build_us.mean", "us"),
    ("core.build_share", "ratio"),
    ("pipeline.run_us.mean", "us"),
    ("pipeline.ns_per_tick", "ns"),
    ("pipeline.sim_cycles", "count"),
    ("pipeline.ticks", "count"),
    ("pipeline.skipped_cycles", "count"),
    ("pipeline.dispatched", "count"),
    ("mem.l1_hits", "count"),
    ("mem.l1_misses", "count"),
    ("mem.l2_misses", "count"),
    ("predictor.predictions", "count"),
    ("predictor.mispredictions", "count"),
    ("crypto.observe_us.mean", "us"),
    ("crypto.bits_correct", "count"),
    ("self.serve_ms", "ms"),
    ("self.harness_ms", "ms"),
    ("self.sink_ms", "ms"),
    ("self.core_ms", "ms"),
    ("self.predictor_ms", "ms"),
    ("self.mem_ms", "ms"),
    ("self.pipeline_ms", "ms"),
    ("self.crypto_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead.jobs_per_s", "ratio"),
    ("trace.overhead.done_ms", "ms"),
];

/// Whether `name` is a valid metric or workload name: it starts with
/// an ASCII letter or digit and holds at most 64 ASCII letters, digits,
/// `_`, `.` and `-`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 ASCII letters, digits, `_`,
/// `/`, `%`, `.` and `-`.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The median of `samples` (mean of the two middle values for an even
/// count); `0.0` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The mean of `samples`; `0.0` for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The tail of a latency sample: the highest percentile that still
/// has at least ten samples beyond it. With `n` samples that is the
/// eleventh largest, at percentile `100 (n - 10) / n`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at the tail percentile.
    pub value: f64,
    /// The percentile it sits at.
    pub percentile: f64,
    /// The number of samples.
    pub n: usize,
}

/// The [`Tail`] of `samples`, or `None` with ten samples or fewer (no
/// percentile then has ten samples beyond it).
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= 10 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Tail {
        value: v[n - 11],
        percentile: 100.0 * (n - 10) as f64 / n as f64,
        n,
    })
}

/// FNV-1a over the lines, each terminated by `\n`: the digest two
/// result streams are compared by.
pub fn digest<S: AsRef<str>>(lines: &[S]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for line in lines {
        for &b in line.as_ref().as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU seconds this process has used, and the host's steal time
/// (time its virtual CPUs were runnable but not running), both from
/// `/proc` clock ticks at 100 Hz; zeros where `/proc` is unreadable.
pub fn cpu_and_steal_s() -> (f64, f64) {
    let ticks = |v: Option<u64>| v.unwrap_or(0) as f64 / 100.0;
    let own = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and stime
            // are the 14th and 15th fields of the line.
            let rest = s.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
        });
    let steal = std::fs::read_to_string("/proc/stat").ok().and_then(|s| {
        s.lines()
            .next()?
            .split_whitespace()
            .nth(8)?
            .parse::<u64>()
            .ok()
    });
    (ticks(own), ticks(steal))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&samples).expect("100 samples have a tail");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.n, 100);
        assert_eq!(samples.iter().filter(|&&s| s > t.value).count(), 10);

        let t = tail(&(1..=25).rev().map(f64::from).collect::<Vec<_>>()).expect("25 samples");
        assert_eq!(t.value, 15.0);
        assert_eq!(t.percentile, 60.0);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert!(tail(&ten).is_none());
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&eleven).expect("eleven samples").value, 0.0);
    }

    #[test]
    fn digest_depends_on_content_and_order() {
        let a = digest(&["x", "y"]);
        assert_eq!(a, digest(&["x".to_owned(), "y".to_owned()]));
        assert_ne!(a, digest(&["y", "x"]));
        assert_ne!(a, digest(&["xy"]));
        assert_ne!(a, digest(&["x", "y", ""]));
        // FNV-1a offset basis for the empty input.
        assert_eq!(digest::<&str>(&[]), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn declared_names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "invalid metric name {name}");
            assert!(valid_unit(unit), "invalid unit {unit} of {name}");
            assert!(seen.insert(*name), "metric {name} declared twice");
        }
        assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn name_rules_reject_bad_names() {
        assert!(valid_name("done_ms.p50"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(!valid_name(""));
        assert!(valid_unit("1/s"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("per second"));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = vpsim_json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(vpsim_json::Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(vpsim_json::Json::as_str);
                    (
                        field("name").expect("name").to_owned(),
                        field("unit").expect("unit").to_owned(),
                    )
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(END_TO_END));
        assert_eq!(declared("per_layer"), ours(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(vpsim_json::Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(vpsim_json::Json::as_str)
                    .expect("name")
            })
            .collect();
        for name in &workloads {
            assert!(valid_name(name), "invalid workload name {name}");
        }
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
