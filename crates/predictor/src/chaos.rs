//! The predictor-state perturbation wrapper of the fault-injection
//! plane: entry decay, value bit-flips and dropped training updates.

use vpsim_chaos::{ChaosEvents, PredChaos, PredChaosConfig};
use vpsim_obs::TraceEvent;

use crate::{LoadContext, Predicted, PredictorStats, ValuePredictor};

/// Wraps any predictor (including a full defense stack) and perturbs it
/// with seeded chaos:
///
/// * **decay** — a lookup's prediction is suppressed, as if the entry
///   had been evicted or its confidence decayed by co-tenant pressure;
/// * **bit-flip** — a surviving prediction has one random value bit
///   flipped (aliasing / partial-tag corruption), which the pipeline
///   later detects as a misprediction and squashes;
/// * **dropped training** — a training update is lost, as if the entry
///   was evicted between the miss and the update.
///
/// With an all-off config the wrapper consumes no RNG words and is
/// observation-equivalent to the bare inner predictor (the inner lookup
/// still runs first, so inner state evolves identically).
#[derive(Debug)]
pub struct ChaoticPredictor {
    inner: Box<dyn ValuePredictor>,
    chaos: PredChaos,
    /// Event tracing: injected faults are buffered unstamped and
    /// drained (and cycle-stamped) by the pipeline. Disabled (the
    /// default) buffers nothing.
    trace_enabled: bool,
    trace_buf: Vec<TraceEvent>,
}

impl ChaoticPredictor {
    /// Wrap `inner`, seeding the chaos stream from the machine seed.
    #[must_use]
    pub fn new(
        inner: Box<dyn ValuePredictor>,
        cfg: PredChaosConfig,
        seed: u64,
    ) -> ChaoticPredictor {
        ChaoticPredictor {
            inner,
            chaos: PredChaos::new(cfg, seed),
            trace_enabled: false,
            trace_buf: Vec::new(),
        }
    }

    /// Counters of injected predictor-chaos events.
    #[must_use]
    pub fn chaos_events(&self) -> ChaosEvents {
        *self.chaos.events()
    }

    /// The wrapped predictor.
    #[must_use]
    pub fn inner(&self) -> &dyn ValuePredictor {
        self.inner.as_ref()
    }
}

impl ValuePredictor for ChaoticPredictor {
    fn lookup(&mut self, ctx: &LoadContext) -> Option<Predicted> {
        // The inner lookup always runs so inner state (usefulness,
        // stats) evolves independently of the injected noise.
        let predicted = self.inner.lookup(ctx)?;
        if self.chaos.decay_fires() {
            if self.trace_enabled {
                self.trace_buf.push(TraceEvent::PredDecay { pc: ctx.pc });
            }
            return None;
        }
        let value = self.chaos.perturb_value(predicted.value);
        if self.trace_enabled && value != predicted.value {
            self.trace_buf.push(TraceEvent::PredFlip {
                pc: ctx.pc,
                original: predicted.value,
                perturbed: value,
            });
        }
        Some(Predicted {
            value,
            confidence: predicted.confidence,
        })
    }

    fn train(&mut self, ctx: &LoadContext, actual: u64, prediction: Option<u64>) {
        if self.chaos.drop_train_fires() {
            if self.trace_enabled {
                self.trace_buf
                    .push(TraceEvent::PredDropTrain { pc: ctx.pc });
            }
            return;
        }
        self.inner.train(ctx, actual, prediction);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn stats(&self) -> PredictorStats {
        self.inner.stats()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn chaos_events(&self) -> Option<ChaosEvents> {
        Some(*self.chaos.events())
    }

    fn set_tracing(&mut self, on: bool) {
        self.trace_enabled = on;
        if !on {
            self.trace_buf.clear();
        }
        self.inner.set_tracing(on);
    }

    fn drain_trace(&mut self, f: &mut dyn FnMut(TraceEvent)) {
        for ev in self.trace_buf.drain(..) {
            f(ev);
        }
        self.inner.drain_trace(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lvp, LvpConfig};

    fn trained_lvp() -> Box<dyn ValuePredictor> {
        let mut vp = Lvp::new(LvpConfig::default());
        let ctx = ctx();
        for _ in 0..4 {
            vp.lookup(&ctx);
            vp.train(&ctx, 7, None);
        }
        Box::new(vp)
    }

    fn ctx() -> LoadContext {
        LoadContext {
            pc: 0x40,
            addr: 0x1000,
            pid: 0,
        }
    }

    #[test]
    fn off_wrapper_is_transparent() {
        let mut bare = trained_lvp();
        let mut wrapped = ChaoticPredictor::new(trained_lvp(), PredChaosConfig::off(), 5);
        for _ in 0..20 {
            assert_eq!(bare.lookup(&ctx()), wrapped.lookup(&ctx()));
            bare.train(&ctx(), 7, Some(7));
            wrapped.train(&ctx(), 7, Some(7));
        }
        assert_eq!(bare.stats(), wrapped.stats());
        assert_eq!(wrapped.chaos_events(), ChaosEvents::default());
        assert_eq!(wrapped.name(), "lvp");
    }

    #[test]
    fn decay_suppresses_predictions() {
        let mut wrapped = ChaoticPredictor::new(
            trained_lvp(),
            PredChaosConfig {
                decay_prob: 1.0,
                ..PredChaosConfig::off()
            },
            5,
        );
        for _ in 0..10 {
            assert!(wrapped.lookup(&ctx()).is_none());
        }
        assert_eq!(wrapped.chaos_events().predictions_decayed, 10);
    }

    #[test]
    fn flips_change_exactly_one_bit() {
        let mut wrapped = ChaoticPredictor::new(
            trained_lvp(),
            PredChaosConfig {
                flip_prob: 1.0,
                ..PredChaosConfig::off()
            },
            5,
        );
        for _ in 0..10 {
            let p = wrapped.lookup(&ctx()).expect("still predicts");
            assert_eq!((p.value ^ 7).count_ones(), 1, "one flipped bit");
        }
        assert_eq!(wrapped.chaos_events().values_flipped, 10);
    }

    #[test]
    fn dropped_training_stalls_learning() {
        let mut wrapped = ChaoticPredictor::new(
            Box::new(Lvp::new(LvpConfig::default())),
            PredChaosConfig {
                drop_train_prob: 1.0,
                ..PredChaosConfig::off()
            },
            5,
        );
        for _ in 0..10 {
            assert!(wrapped.lookup(&ctx()).is_none());
            wrapped.train(&ctx(), 7, None);
        }
        // Every update was dropped: the predictor never gained
        // confidence.
        assert!(wrapped.lookup(&ctx()).is_none());
        assert_eq!(wrapped.chaos_events().trainings_dropped, 10);
    }

    #[test]
    fn tracing_records_injected_faults_without_changing_behaviour() {
        let cfg = PredChaosConfig {
            decay_prob: 0.3,
            flip_prob: 0.3,
            drop_train_prob: 0.3,
        };
        let run = |traced: bool| {
            let mut w = ChaoticPredictor::new(trained_lvp(), cfg, 9);
            w.set_tracing(traced);
            let mut out = Vec::new();
            let mut events = Vec::new();
            for _ in 0..50 {
                out.push(w.lookup(&ctx()));
                w.train(&ctx(), 7, Some(7));
            }
            w.drain_trace(&mut |e| events.push(e));
            (out, events)
        };
        let (traced_out, events) = run(true);
        let (plain_out, no_events) = run(false);
        assert_eq!(traced_out, plain_out, "tracing must not perturb chaos");
        assert!(no_events.is_empty(), "disabled tracing buffers nothing");
        let kinds: Vec<&str> = events.iter().map(TraceEvent::kind).collect();
        assert!(kinds.contains(&"pred_decay"));
        assert!(kinds.contains(&"pred_flip"));
        assert!(kinds.contains(&"pred_drop_train"));
    }

    #[test]
    fn chaos_stream_is_deterministic() {
        let run = |seed: u64| {
            let mut w = ChaoticPredictor::new(
                trained_lvp(),
                PredChaosConfig {
                    decay_prob: 0.3,
                    flip_prob: 0.3,
                    drop_train_prob: 0.3,
                },
                seed,
            );
            let mut out = Vec::new();
            for _ in 0..50 {
                out.push(w.lookup(&ctx()));
                w.train(&ctx(), 7, Some(7));
            }
            (out, w.chaos_events())
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
