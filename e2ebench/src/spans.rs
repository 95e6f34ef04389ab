//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out as JSONL when the benchmark ends.
//!
//! A span has a name whose prefix up to the first `.` is its layer
//! (`pipeline.run` belongs to `pipeline`), a start and an end on one
//! monotonic clock, the span that caused it, and the id of the request
//! (campaign or exponent leak) it belongs to.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`.
    pub name: &'static str,
    /// Unique id within the run (never 0).
    pub id: u64,
    /// The causing span's id, 0 for a root.
    pub parent: u64,
    /// The request this span belongs to.
    pub request: u64,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A started span; [`Tracer::close`] turns it into a [`Span`].
#[derive(Debug)]
pub struct Open {
    id: u64,
    start_ns: u64,
}

impl Open {
    /// The id the span will carry, for its children's `parent`.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// The span recorder. Thread-safe: fleet and pool worker threads close
/// spans concurrently.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    capacity: usize,
}

impl Tracer {
    /// A tracer that keeps at most `capacity` spans; see
    /// [`Tracer::is_full`].
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::with_capacity(capacity.min(1 << 16))),
            capacity,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Start a span now.
    pub fn open(&self) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            start_ns: self.now_ns(),
        }
    }

    /// End `open` now and keep it, unless the tracer is full (the
    /// caller stops its traced phase once [`Tracer::is_full`]).
    pub fn close(&self, open: Open, name: &'static str, parent: u64, request: u64) -> Span {
        let span = Span {
            name,
            id: open.id,
            parent,
            request,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
        };
        let mut spans = self.spans.lock().expect("span store poisoned");
        if spans.len() < self.capacity {
            spans.push(span);
        }
        span
    }

    /// Whether the store reached its capacity.
    pub fn is_full(&self) -> bool {
        self.spans.lock().expect("span store poisoned").len() >= self.capacity
    }

    /// A copy of every kept span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Write every kept span to `path` as JSONL.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span store poisoned").iter() {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Run `f` inside a span when `tracer` is set; `f` receives the span id
/// (0 when untraced) to pass to its children.
pub fn span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: u64,
    request: u64,
    f: impl FnOnce(u64) -> T,
) -> T {
    match tracer {
        None => f(0),
        Some(t) => {
            let open = t.open();
            let out = f(open.id());
            t.close(open, name, parent, request);
            out
        }
    }
}

/// Self time per layer, in ns: each span's duration minus the part of
/// its interval that its children cover (overlapping children count
/// once), summed by layer.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        *out.entry(s.layer()).or_insert(0) += s.duration_ns().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id,
            parent,
            request: 7,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            s("harness.run", 1, 0, 0, 100),
            // Two overlapping children on different threads: 10..40 and
            // 30..50 cover 40 ns together, not 50.
            s("sink.append", 2, 1, 10, 40),
            s("sink.append", 3, 1, 30, 50),
            // A child sticking out of its parent is clipped.
            s("sink.append", 4, 1, 90, 120),
        ];
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["harness"], 100 - 40 - 10);
        assert_eq!(by_layer["sink"], 30 + 20 + 30);
    }

    #[test]
    fn nested_spans_attribute_to_their_own_layer() {
        let spans = [
            s("core.arm", 1, 0, 0, 100),
            s("pipeline.run", 2, 1, 20, 90),
            s("mem.store_value", 3, 1, 5, 10),
        ];
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["core"], 25);
        assert_eq!(by_layer["pipeline"], 70);
        assert_eq!(by_layer["mem"], 5);
    }

    #[test]
    fn tracer_keeps_spans_up_to_capacity_with_shared_request_ids() {
        let t = Tracer::new(2);
        let out = span(Some(&t), "core.arm", 0, 3, |parent| {
            span(Some(&t), "pipeline.run", parent, 3, |_| 5)
        });
        assert_eq!(out, 5);
        assert!(t.is_full());
        span(Some(&t), "pipeline.run", 0, 3, |_| ());
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let (child, root) = (spans[0], spans[1]);
        assert_eq!(child.parent, root.id);
        assert_eq!(root.parent, 0);
        assert!(spans.iter().all(|s| s.request == 3));
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
        assert_eq!(span(None, "core.arm", 0, 0, |id| id), 0);
    }
}
