//! The Figure 7 RSA exponent leak: `vpsim_crypto::leak_exponent` on
//! seeded random exponents, single-threaded. Every exponent bit is one
//! work unit.
//!
//! The traced phase replaces each leak by a replica of it through the
//! public calls `leak_exponent` makes (`train_program`,
//! `iteration_program`, `trigger_timing`, `Machine::new`,
//! `store_value`, `Machine::run`), with a span around each. The replica
//! must reproduce the library's observations, threshold and cycle count
//! bit for bit.

use std::sync::Arc;
use std::time::Instant;

use vpsec::attacks::{train_program, trigger_timing};
use vpsim_crypto::victim::iteration_program;
use vpsim_crypto::{leak_exponent, LeakConfig, LeakResult, Mpi};
use vpsim_pipeline::Machine;
use vpsim_predictor::{Lvp, LvpConfig};
use vpsim_rng::SmallRng;

use crate::replica::{self, elapsed_ns, LayerTimes, SimCounts};
use crate::spans::{span, Tracer};
use crate::{stats, Ctx, Outcome, Requests, SetupTimes};

/// Exponent length in bits (the top bit is always set).
const BITS: usize = 2048;
/// Distinct (exponent, machine seed) inputs per run, leaked in turn.
const POOL: usize = 8;
/// Input pools generated per set-up sample.
const SETUP_BATCH: usize = 2048;

// The victim's data layout, as `vpsim_crypto::victim` lays it out.
const SQR_ADDR: u64 = 0x41000;
const MUL_ADDR: u64 = 0x42000;
const TP_ADDR: u64 = 0x43000;
const TP_VALUE: u64 = 0x4040;

/// The inputs of one leak.
struct Input {
    exponent: Mpi,
    cfg: LeakConfig,
}

fn pool(seed: u64) -> Vec<Input> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..POOL)
        .map(|_| {
            let mut limbs: Vec<u64> = (0..BITS / 64).map(|_| rng.next_u64()).collect();
            *limbs.last_mut().expect("BITS >= 64") |= 1 << 63;
            Input {
                exponent: Mpi::from_limbs(limbs),
                cfg: LeakConfig {
                    seed: rng.next_u64(),
                    ..LeakConfig::default()
                },
            }
        })
        .collect()
}

/// A replayed leak.
struct Replica {
    observations: Vec<f64>,
    recovered: Vec<bool>,
    threshold: f64,
    total_cycles: u64,
    times: LayerTimes,
    observe_ns: Vec<u64>,
}

impl Replica {
    fn matches(&self, lib: &LeakResult) -> bool {
        let bits = |v: &[f64]| v.iter().map(|o| o.to_bits()).collect::<Vec<_>>();
        bits(&self.observations) == bits(&lib.observations)
            && self.recovered == lib.recovered_bits
            && self.threshold.to_bits() == lib.threshold.to_bits()
            && self.total_cycles == lib.total_cycles
    }
}

struct Leak<'a> {
    tracer: Option<&'a Tracer>,
    request: u64,
    cfg: &'a LeakConfig,
    times: LayerTimes,
    observe_ns: Vec<u64>,
}

impl Leak<'_> {
    /// Build a machine the way the victim module does.
    fn machine(&mut self, parent: u64, seed: u64) -> Machine {
        let (tr, req, cfg) = (self.tracer, self.request, self.cfg);
        let t = Instant::now();
        let lvp = span(tr, "predictor.new", parent, req, |_| {
            Lvp::new(LvpConfig {
                confidence_threshold: cfg.setup.confidence,
                ..LvpConfig::default()
            })
        });
        let mut machine = span(tr, "pipeline.machine_new", parent, req, |_| {
            Machine::new(cfg.core, cfg.mem, Box::new(lvp), seed)
        });
        span(tr, "mem.store_value", parent, req, |_| {
            let m = machine.mem_mut();
            m.store_value(SQR_ADDR, 0x5051);
            m.store_value(MUL_ADDR, 0x6061);
            m.store_value(TP_ADDR, TP_VALUE);
            m.store_value(cfg.setup.known_addr, cfg.setup.known_value);
        });
        self.times.build_ns += elapsed_ns(t);
        self.times.machines += 1;
        machine
    }

    fn run(
        &mut self,
        parent: u64,
        machine: &mut Machine,
        pid: u32,
        program: &vpsim_isa::Program,
        runs: &mut SimCounts,
    ) -> vpsim_pipeline::RunResult {
        let t = Instant::now();
        let r = span(self.tracer, "pipeline.run", parent, self.request, |_| {
            machine.run(pid, program)
        })
        .expect("leak programs run");
        self.times.run_ns += elapsed_ns(t);
        runs.add_run(&r);
        r
    }

    /// One receiver observation: train, run one victim iteration, time
    /// the trigger.
    fn observe(
        &mut self,
        parent: u64,
        machine: &mut Machine,
        bit: bool,
        runs: &mut SimCounts,
    ) -> f64 {
        let (tr, req) = (self.tracer, self.request);
        let setup = self.cfg.setup;
        let t = Instant::now();
        let obs = span(tr, "crypto.observe", parent, req, |id| {
            let train = train_program(&setup, setup.target_slot, setup.known_addr);
            for _ in 0..setup.confidence {
                self.run(id, machine, 2, &train, runs);
            }
            self.run(id, machine, 1, &iteration_program(bit, &setup), runs);
            let trigger = trigger_timing(
                &setup,
                setup.target_slot,
                setup.known_addr,
                &[setup.known_value, TP_VALUE],
            );
            self.run(id, machine, 2, &trigger, runs).timing_windows()[0] as f64
        });
        self.observe_ns.push(elapsed_ns(t));
        obs
    }

    /// Retire a machine: fold its memory and predictor counters in.
    fn retire(&mut self, machine: &Machine, runs: &SimCounts) {
        self.times.counts.absorb(machine, runs);
    }
}

/// Replay `leak_exponent(exponent, cfg)` (calibration, every bit, and
/// the bandwidth probe) as request `request`.
fn replay(tracer: Option<&Tracer>, request: u64, input: &Input) -> Replica {
    let cfg = &input.cfg;
    assert!(
        cfg.chaos.is_off() && cfg.recalibrate_every == 0,
        "the replica models the fixed-threshold, chaos-free leak"
    );
    let mut leak = Leak {
        tracer,
        request,
        cfg,
        times: LayerTimes::default(),
        observe_ns: Vec::new(),
    };
    let true_bits = input.exponent.bits_msb_first();
    let (observations, threshold, total_cycles) = span(tracer, "crypto.leak", 0, request, |root| {
        let mut main = leak.machine(root, cfg.seed);
        let mut main_runs = SimCounts::default();
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        for i in 0..cfg.calibration_runs as u64 {
            for (salt, bit, out) in [(0xca11, false, &mut fast), (0xca22, true, &mut slow)] {
                let mut cal = leak.machine(root, cfg.seed ^ (salt + i));
                let mut runs = SimCounts::default();
                out.push(leak.observe(root, &mut cal, bit, &mut runs));
                leak.retire(&cal, &runs);
            }
        }
        let threshold = (stats::mean(&fast) + stats::mean(&slow)) / 2.0;
        let mut total_cycles = 0u64;
        let mut observations = Vec::with_capacity(true_bits.len());
        for &bit in &true_bits {
            let obs = leak.observe(root, &mut main, bit, &mut main_runs);
            observations.push(obs);
            total_cycles += obs as u64;
        }
        leak.retire(&main, &main_runs);

        let mut probe = leak.machine(root, cfg.seed ^ 0xbead);
        let mut runs = SimCounts::default();
        let setup = &cfg.setup;
        let train = train_program(setup, setup.target_slot, setup.known_addr);
        let mut overhead = 0u64;
        for _ in 0..setup.confidence {
            overhead += leak.run(root, &mut probe, 2, &train, &mut runs).cycles;
        }
        overhead += leak
            .run(
                root,
                &mut probe,
                1,
                &iteration_program(true, setup),
                &mut runs,
            )
            .cycles;
        leak.retire(&probe, &runs);
        total_cycles += overhead * true_bits.len() as u64;
        (observations, threshold, total_cycles)
    });
    Replica {
        recovered: observations.iter().map(|&o| o > threshold).collect(),
        observations,
        threshold,
        total_cycles,
        times: leak.times,
        observe_ns: leak.observe_ns,
    }
}

pub fn run(ctx: &Ctx, tracer: Option<Arc<Tracer>>, out: &mut Outcome) {
    let mut setup = SetupTimes::default();
    let sample_setup = |setup: &mut SetupTimes| {
        setup.sample(SETUP_BATCH, |call| {
            std::hint::black_box(pool(ctx.seed ^ call as u64));
        });
    };
    sample_setup(&mut setup);
    let inputs = pool(ctx.seed);

    // Warm-up: leak every input once, untimed; these results are the
    // references later leaks and the replica must reproduce.
    let reference: Vec<LeakResult> = inputs
        .iter()
        .map(|i| leak_exponent(&i.exponent, &i.cfg))
        .collect();
    for (k, (input, lib)) in inputs.iter().zip(&reference).enumerate() {
        out.attempted += 1;
        let ok = out.check(
            lib.recovered_bits == input.exponent.bits_msb_first(),
            || format!("input {k}: recovered {:.4} of the bits", lib.success_rate()),
        );
        if !ok {
            out.failed += 1;
        }
    }

    // With tracing, every other leak is the traced replica, so that
    // traced and untraced leaks meet the same host conditions.
    let mut untraced = Requests::default();
    let mut traced = Requests::default();
    let mut leaked = [0u64; POOL];
    let mut times = LayerTimes::default();
    let mut observe_ns = Vec::new();
    let phase = Instant::now();
    let mut k = 0usize;
    while ctx.more(phase, k) && !tracer.as_ref().is_some_and(|t| t.is_full()) {
        // Traced and untraced leaks take the inputs in the same order.
        let idx = if tracer.is_some() {
            k / 2 % POOL
        } else {
            k % POOL
        };
        let (input, reference) = (&inputs[idx], &reference[idx]);
        let trace = tracer.as_deref().filter(|_| k % 2 == 1);
        sample_setup(&mut setup);
        out.attempted += 1;
        let t = Instant::now();
        if let Some(tracer) = trace {
            let rep = replay(Some(tracer), k as u64, input);
            let latency = t.elapsed();
            if out.check(rep.matches(reference), || {
                format!("traced leak {k}: the replica differs from leak_exponent")
            }) {
                traced.push(latency, BITS as u64, rep.times.counts.dispatched);
            } else {
                out.failed += 1;
            }
            times.merge(&rep.times);
            observe_ns.extend(rep.observe_ns);
        } else {
            let lib = leak_exponent(&input.exponent, &input.cfg);
            let latency = t.elapsed();
            let same = lib.recovered_bits == reference.recovered_bits
                && lib.observations == reference.observations;
            if out.check(same, || {
                format!("leak {k} differs from the warm-up leak of its input")
            }) {
                untraced.push(latency, BITS as u64, 0);
                leaked[idx] += 1;
            } else {
                out.failed += 1;
            }
        }
        k += 1;
    }

    // Exact per-input dispatch counts, and the replica checked against
    // the library on every input.
    let replicas: Vec<Replica> = inputs.iter().map(|i| replay(None, 0, i)).collect();
    for (k, (rep, lib)) in replicas.iter().zip(&reference).enumerate() {
        out.check(rep.matches(lib), || {
            format!("input {k}: the replica differs from leak_exponent")
        });
    }
    untraced.dispatched = replicas
        .iter()
        .zip(leaked)
        .map(|(r, n)| r.times.counts.dispatched * n)
        .sum();

    let Some(tracer) = tracer else {
        out.set_end_to_end(&untraced, setup.median_s());
        return;
    };
    let exact = &replicas[0];
    replica::set_metrics(out, &times, &exact.times);
    let bits = inputs[0].exponent.bits_msb_first();
    let correct = bits
        .iter()
        .zip(&exact.recovered)
        .filter(|(a, b)| a == b)
        .count();
    out.set_noted(
        "crypto.bits_correct",
        correct as f64,
        format!("exact, of {} bits of input 0", bits.len()),
    );
    let observe_us: Vec<f64> = observe_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    out.set_noted(
        "crypto.observe_us.mean",
        stats::mean(&observe_us),
        format!("{} observations", observe_us.len()),
    );
    out.set_overhead(&untraced, &traced);
    out.set_self_times(&tracer, traced.latency_ms.len());
}
