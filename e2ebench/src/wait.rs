//! Waiting on a request's thread without hanging on a stuck program.
//!
//! A campaign run and a result stream each run on a thread of their
//! own, which sends its value over a channel when it ends. The worker
//! pool's lost wakeup can leave a run that has done every job waiting
//! forever; [`wait`] gives such a request up instead of hanging the
//! benchmark.

use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Longest a request may take to end once its last unit of work is
/// done.
pub const TAIL_BOUND: Duration = Duration::from_secs(2);

/// Why [`wait`] returned without a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gave {
    /// The thread ended without sending: it panicked.
    Panicked,
    /// The request outlived its bound: [`TAIL_BOUND`] after its last
    /// unit of work, or its overall bound.
    Hung,
}

/// Wait for the value sent over `rx`. `last_done` reports, once every
/// unit of work of the request is done, when the last one finished
/// (`None` before). The request is given up as [`Gave::Hung`] when
/// that was more than [`TAIL_BOUND`] ago, or when `overall` has passed
/// since `started`.
pub fn wait<T>(
    rx: &mpsc::Receiver<T>,
    started: Instant,
    overall: Duration,
    last_done: impl Fn() -> Option<Instant>,
) -> Result<T, Gave> {
    loop {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(value) => return Ok(value),
            Err(mpsc::RecvTimeoutError::Disconnected) => return Err(Gave::Panicked),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let stuck_tail = last_done().is_some_and(|t| t.elapsed() > TAIL_BOUND);
                if stuck_tail || started.elapsed() > overall {
                    return Err(Gave::Hung);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn returns_the_value_sent() {
        let (tx, rx) = mpsc::channel();
        tx.send(7).expect("receiver alive");
        assert_eq!(
            wait(&rx, Instant::now(), Duration::from_secs(1), || None),
            Ok(7)
        );
    }

    #[test]
    fn a_dropped_sender_is_a_panic() {
        let (tx, rx) = mpsc::channel::<u8>();
        drop(tx);
        let r = wait(&rx, Instant::now(), Duration::from_secs(1), || None);
        assert_eq!(r, Err(Gave::Panicked));
    }

    #[test]
    fn a_request_past_its_bounds_is_hung() {
        let (_tx, rx) = mpsc::channel::<u8>();
        let r = wait(&rx, Instant::now(), Duration::ZERO, || None);
        assert_eq!(r, Err(Gave::Hung));
        let long_done = Instant::now().checked_sub(TAIL_BOUND * 2);
        let r = wait(&rx, Instant::now(), Duration::from_secs(60), || long_done);
        assert_eq!(r, Err(Gave::Hung));
    }
}
