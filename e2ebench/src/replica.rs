//! A traced replica of one paired campaign trial, through the public
//! calls a job makes: the predictor stack (`Lvp::new`,
//! `DefenseSpec::apply`), `Machine::new`, `store_value` and
//! `Machine::run`, on trials from `build_trial`.
//!
//! It times machine build against simulation and reads the simulated
//! counts of the pipeline, memory hierarchy and predictor, which a
//! campaign does not expose per layer. It must reproduce the
//! campaign's `m_cyc/u_cyc/m_obs/u_obs` bit for bit; otherwise it
//! would be measuring a different program.

use std::time::Instant;

use vpsec::attacks::{build_trial, Trial};
use vpsec::experiment::{CellPlan, ExperimentConfig, PredictorKind};
use vpsim_harness::{CampaignSpec, JobRecord};
use vpsim_pipeline::Machine;
use vpsim_predictor::{Lvp, LvpConfig};

use crate::spans::{span, Tracer};
use crate::Outcome;

/// Simulated counts, summed over replicated trial arms. They are a
/// pure function of the inputs and repeat bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounts {
    pub sim_cycles: u64,
    pub ticks: u64,
    pub skipped_cycles: u64,
    pub dispatched: u64,
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub l2_misses: u64,
    pub predictions: u64,
    pub mispredictions: u64,
}

impl SimCounts {
    fn merge(&mut self, o: &SimCounts) {
        self.sim_cycles += o.sim_cycles;
        self.ticks += o.ticks;
        self.skipped_cycles += o.skipped_cycles;
        self.dispatched += o.dispatched;
        self.l1_hits += o.l1_hits;
        self.l1_misses += o.l1_misses;
        self.l2_misses += o.l2_misses;
        self.predictions += o.predictions;
        self.mispredictions += o.mispredictions;
    }

    /// Add the counts of one retired machine, whose runs produced
    /// `runs` (see [`SimCounts::add_run`]).
    pub fn absorb(&mut self, machine: &Machine, runs: &SimCounts) {
        let mem = machine.mem().stats();
        let pred = machine.predictor().stats();
        self.merge(runs);
        self.l1_hits += mem.l1.hits;
        self.l1_misses += mem.l1.misses;
        self.l2_misses += mem.l2.misses;
        self.predictions += pred.predictions;
        self.mispredictions += pred.incorrect;
    }

    /// Count one `Machine::run` result.
    pub fn add_run(&mut self, r: &vpsim_pipeline::RunResult) {
        self.sim_cycles += r.cycles;
        self.ticks += r.sched.ticks;
        self.skipped_cycles += r.sched.skipped_cycles;
        self.dispatched += r.sched.dispatched;
    }
}

/// Host time and counts accumulated over replicated machines.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// Machines built (trial arms, or leak machines).
    pub machines: u64,
    /// Host ns building them: predictor stack, `Machine::new`, memory
    /// initialisation.
    pub build_ns: u64,
    /// Host ns in `Machine::run`.
    pub run_ns: u64,
    /// Counts over every replicated machine.
    pub counts: SimCounts,
}

impl LayerTimes {
    pub fn merge(&mut self, o: &LayerTimes) {
        self.machines += o.machines;
        self.build_ns += o.build_ns;
        self.run_ns += o.run_ns;
        self.counts.merge(&o.counts);
    }
}

/// Set the core, pipeline, mem and predictor metrics: timings over
/// every replicated machine in `all`, exact counts over the fixed
/// sample `exact`.
pub fn set_metrics(out: &mut Outcome, all: &LayerTimes, exact: &LayerTimes) {
    let m = all.machines.max(1) as f64;
    out.set_noted(
        "core.build_us.mean",
        all.build_ns as f64 / 1e3 / m,
        format!("{} machines", all.machines),
    );
    out.set(
        "core.build_share",
        all.build_ns as f64 / (all.build_ns + all.run_ns).max(1) as f64,
    );
    out.set("pipeline.run_us.mean", all.run_ns as f64 / 1e3 / m);
    out.set(
        "pipeline.ns_per_tick",
        all.run_ns as f64 / all.counts.ticks.max(1) as f64,
    );
    let c = &exact.counts;
    let note = || format!("exact, over a fixed sample of {} machines", exact.machines);
    for (name, value) in [
        ("pipeline.sim_cycles", c.sim_cycles),
        ("pipeline.ticks", c.ticks),
        ("pipeline.skipped_cycles", c.skipped_cycles),
        ("pipeline.dispatched", c.dispatched),
        ("mem.l1_hits", c.l1_hits),
        ("mem.l1_misses", c.l1_misses),
        ("mem.l2_misses", c.l2_misses),
        ("predictor.predictions", c.predictions),
        ("predictor.mispredictions", c.mispredictions),
    ] {
        out.set_noted(name, value as f64, note());
    }
}

/// The trials of one cell of a spec, built once like `CellPlan` does.
pub struct CellTrials {
    mapped: Trial,
    unmapped: Trial,
    plan: CellPlan,
}

/// Build the trials of every cell of `spec` (all cells must be
/// supported, lvp-only, without chaos or background noise: the replica
/// models exactly that job).
pub fn cell_trials(
    tracer: Option<&Tracer>,
    parent: u64,
    request: u64,
    spec: &CampaignSpec,
) -> Vec<CellTrials> {
    let cfg = spec.experiment_config();
    assert!(
        cfg.chaos.is_off() && !cfg.background_noise,
        "the replica models chaos-free, noise-free jobs"
    );
    spec.cells
        .iter()
        .map(|c| {
            assert_eq!(
                c.predictor,
                PredictorKind::Lvp,
                "the replica models lvp cells"
            );
            let build = |mapped| {
                span(tracer, "core.build_trial", parent, request, |_| {
                    build_trial(c.category, c.channel, mapped, &cfg.setup)
                })
                .expect("zoo cells are supported")
            };
            CellTrials {
                mapped: build(true),
                unmapped: build(false),
                plan: CellPlan::new(c.category, c.channel, c.predictor, &cfg)
                    .expect("zoo cells are supported"),
            }
        })
        .collect()
}

/// One arm of a paired trial on a fresh machine: `(observed, cycles)`.
#[allow(clippy::too_many_arguments)]
fn arm(
    tracer: Option<&Tracer>,
    parent: u64,
    request: u64,
    trial: &Trial,
    cfg: &ExperimentConfig,
    seed: u64,
    defense_seed: u64,
    times: &mut LayerTimes,
) -> (f64, u64) {
    span(tracer, "core.arm", parent, request, |arm_id| {
        let t_build = Instant::now();
        let vp = span(tracer, "predictor.new", arm_id, request, |_| {
            let lvp = Lvp::new(LvpConfig {
                index: cfg.index,
                confidence_threshold: cfg.setup.confidence,
                ..LvpConfig::default()
            });
            cfg.defense.apply(lvp, cfg.index, defense_seed)
        });
        let mut core = cfg.core;
        core.delay_side_effects = core.delay_side_effects || cfg.defense.d_type;
        let mut machine = span(tracer, "pipeline.machine_new", arm_id, request, |_| {
            Machine::new(core, cfg.mem, vp, seed)
        });
        span(tracer, "mem.store_value", arm_id, request, |_| {
            for &(addr, value) in &trial.memory_init {
                machine.mem_mut().store_value(addr, value);
            }
        });
        times.build_ns += elapsed_ns(t_build);
        times.machines += 1;

        let t_run = Instant::now();
        let mut runs = SimCounts::default();
        let mut observed = 0.0;
        for (i, step) in trial.steps.iter().enumerate() {
            let mut last_window = None;
            for _ in 0..step.repeat {
                let r = span(tracer, "pipeline.run", arm_id, request, |_| {
                    machine.run(step.party.pid(), &step.program)
                })
                .unwrap_or_else(|e| panic!("step `{}` failed: {e}", step.label));
                runs.add_run(&r);
                last_window = r.timing_windows().first().copied();
            }
            if i == trial.observe_step {
                observed = last_window.expect("observed step has an rdtsc pair") as f64;
            }
        }
        times.run_ns += elapsed_ns(t_run);
        times.counts.absorb(&machine, &runs);
        (observed, runs.sim_cycles)
    })
}

/// Replay pair `t` of cell `cell` and report whether it reproduces
/// `rec` bit for bit.
#[allow(clippy::too_many_arguments)]
pub fn replay_pair(
    tracer: Option<&Tracer>,
    parent: u64,
    request: u64,
    cells: &[CellTrials],
    cell: usize,
    t: usize,
    rec: &JobRecord,
    times: &mut LayerTimes,
) -> bool {
    let c = &cells[cell];
    let cfg = c.plan.config();
    let base = c.plan.trial_seed(t);
    let (m_obs, m_cyc) = arm(
        tracer,
        parent,
        request,
        &c.mapped,
        cfg,
        base,
        base ^ 0x5ee3,
        times,
    );
    let (u_obs, u_cyc) = arm(
        tracer,
        parent,
        request,
        &c.unmapped,
        cfg,
        base,
        base ^ 0x0def_5eed,
        times,
    );
    rec.cell == cell
        && rec.trial == t
        && m_obs.to_bits() == rec.pair.mapped.observed.to_bits()
        && m_cyc == rec.pair.mapped.total_cycles
        && u_obs.to_bits() == rec.pair.unmapped.observed.to_bits()
        && u_cyc == rec.pair.unmapped.total_cycles
}

pub fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
