//! Lost-wakeup stress: the last job's completion must wake every idle
//! worker of the pool. Many tiny campaigns, each with more workers than
//! jobs, race that wakeup against workers that have just found the
//! queue empty; the whole run is bounded, so a lost wakeup fails the
//! test instead of hanging it.

use std::sync::mpsc;
use std::time::Duration;

use vpsec::attacks::AttackCategory;
use vpsec::experiment::{Channel, ExperimentConfig, PredictorKind};
use vpsim_harness::{Campaign, CellSpec, Exec};

const CLIENTS: usize = 6;
const CAMPAIGNS_PER_CLIENT: usize = 100;
const BOUND: Duration = Duration::from_secs(120);

#[test]
fn last_completion_wakes_idle_workers() {
    let (tx, rx) = mpsc::channel();
    for client in 0..CLIENTS {
        let tx = tx.clone();
        std::thread::spawn(move || {
            let mut campaign = Campaign::new(format!("wakeup-{client}"));
            campaign.push(CellSpec::new(
                "train_test/tw/lvp",
                AttackCategory::TrainTest,
                Channel::TimingWindow,
                PredictorKind::Lvp,
                ExperimentConfig {
                    trials: 2,
                    ..ExperimentConfig::default()
                },
            ));
            let exec = Exec {
                jobs: 4,
                ..Exec::default()
            };
            for _ in 0..CAMPAIGNS_PER_CLIENT {
                campaign.run(&exec).expect("campaign runs");
                tx.send(()).expect("test thread waits");
            }
        });
    }
    for done in 0..CLIENTS * CAMPAIGNS_PER_CLIENT {
        rx.recv_timeout(BOUND).unwrap_or_else(|_| {
            panic!("campaign {done} did not return within {BOUND:?}: a worker missed its wakeup")
        });
    }
}
