//! Lost-wakeup stress: `shutdown()` must wake runners that are idle on
//! an empty queue. Each round starts a daemon and shuts it down at once,
//! racing the shutdown against runners that are just checking the flag
//! before they wait; every join is bounded, so a lost wakeup fails the
//! test instead of hanging it.

use std::sync::mpsc;
use std::time::Duration;

use vpsim_serve::{ServeConfig, Server};

const ROUNDS: usize = 1000;
const JOIN_BOUND: Duration = Duration::from_secs(10);

#[test]
fn shutdown_wakes_idle_runners() {
    let state = std::env::temp_dir().join(format!("vpsim-serve-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    for round in 0..ROUNDS {
        let server = Server::start(ServeConfig {
            state_dir: state.clone(),
            runners: 3,
            ..ServeConfig::default()
        })
        .expect("daemon starts");
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            server.shutdown();
            server.join();
            let _ = tx.send(());
        });
        rx.recv_timeout(JOIN_BOUND).unwrap_or_else(|_| {
            panic!("round {round}: daemon did not stop within {JOIN_BOUND:?}: a runner missed the shutdown")
        });
    }
    let _ = std::fs::remove_dir_all(&state);
}
