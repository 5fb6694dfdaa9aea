//! Span recording from the benchmark's own code, around each call into a
//! layer of the library. Nothing here reaches into the program: a span
//! brackets a public call, records who caused it (the enclosing span on
//! the same thread) and which op it served, and is kept in memory until
//! the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. `parent == 0` marks a root; `op == 0` marks work
/// outside any measured op (set-up, probes).
#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

thread_local! {
    /// Open spans on this thread: `(span id, op id)`.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Times calls, and records them as spans when enabled; when disabled,
/// [`Tracer::span`] is a plain timed call, so the untraced run measures
/// the program alone.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f`, returning its result and its duration in ms; when
    /// enabled, also records it as a span named `name`. A span opened
    /// with `op = Some(k)` starts op `k`; otherwise it joins the op of
    /// the span that encloses it on this thread.
    pub fn span<R>(&self, name: &'static str, op: Option<u64>, f: impl FnOnce() -> R) -> (R, f64) {
        if !self.enabled {
            let start = Instant::now();
            let out = f();
            return (out, start.elapsed().as_secs_f64() * 1e3);
        }
        let id = self.next_id.fetch_add(1, Relaxed);
        let (parent, outer_op) = OPEN.with(|s| s.borrow().last().copied().unwrap_or((0, 0)));
        let op = op.unwrap_or(outer_op);
        OPEN.with(|s| s.borrow_mut().push((id, op)));
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        OPEN.with(|s| s.borrow_mut().pop());
        let record = SpanRecord {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        };
        let ms = record.ms();
        self.spans
            .lock()
            .expect("a span recorder panicked")
            .push(record);
        (out, ms)
    }

    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("a span recorder panicked").clone()
    }

    /// Durations (ms) of every span named `name`, in completion order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRecord::ms)
            .collect()
    }

    /// Self time per span name: each span's duration minus the time its
    /// child spans cover, as `name -> self ms of each span`.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let spans = self.spans();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &spans {
            let children = child_ns.get(&s.id).copied().unwrap_or(0);
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            out.entry(s.name).or_default().push(own as f64 / 1e6);
        }
        out
    }

    /// Every span as one JSON object per line.
    pub fn to_json_lines(&self) -> String {
        let mut text = String::new();
        for s in self.spans() {
            let _ = writeln!(
                text,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            );
        }
        text
    }
}
