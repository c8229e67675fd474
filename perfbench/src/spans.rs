//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each of its own calls into a
//! layer's public functions. A span's layer is its name up to the first
//! dot (`sample.cell` belongs to `sample`). Spans stay in memory and
//! are written out as JSON lines when the run ends. A disabled recorder
//! records nothing, so the untraced runs pay one branch per call.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.what`.
    pub name: &'static str,
    /// Request the call belongs to.
    pub req: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    /// The layer the span's call went into.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle of an open span ([`Tracer::open`]).
#[derive(Debug, Clone, Copy)]
#[must_use = "close the span"]
pub struct SpanId(Option<usize>);

/// The recorder. One per thread; [`Tracer::absorb`] joins them.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    req: u64,
}

impl Tracer {
    /// A recorder that records when `on`, timing from `origin`.
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Tags the spans opened from now on with request `req`.
    pub fn set_req(&mut self, req: u64) {
        self.req = req;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req: self.req,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        SpanId(Some(idx))
    }

    /// Closes `id` (spans close innermost first).
    pub fn close(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.stack.pop(), Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = end_ns;
    }

    /// Closes every open span now (a call failed mid-request).
    pub fn unwind(&mut self) {
        let end_ns = self.now_ns();
        while let Some(idx) = self.stack.pop() {
            self.spans[idx].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id);
        r
    }

    /// Duration of an already-closed span, in seconds (0 when off).
    pub fn secs(&self, id: SpanId) -> f64 {
        id.0.map_or(0.0, |i| self.spans[i].secs())
    }

    /// Moves every span of `other` (recorded from the same origin) in.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines (name, request, parent index, start and
    /// duration in µs).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_us\":{:.3},\"dur_us\":{:.3}}}\n",
                s.name,
                s.req,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            ));
        }
        out
    }
}

/// How one root span's wall time splits among layers.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Wall time of the root span, s.
    pub wall_s: f64,
    /// Self time per layer (span duration minus its children), s. The
    /// root's own self time is the untraced gap, under `bench`.
    pub self_s: BTreeMap<&'static str, f64>,
    /// The largest self time of any one span below the root, s: the
    /// part of the request the trace cannot split any further.
    pub largest_self_s: f64,
}

impl Attribution {
    /// Sum of every self time: equals `wall_s` up to clock rounding by
    /// construction (the root's self time is whatever its children leave).
    pub fn accounted_s(&self) -> f64 {
        self.self_s.values().sum()
    }
}

/// Splits every root span of `spans` named `root` into per-layer self
/// times. Children of one span run on one thread, one after another, so
/// the part of a span its children cover is the sum of their durations.
pub fn attribute(spans: &[Span], root: &str) -> Vec<Attribution> {
    let mut child_s = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_s[p] += s.secs();
        }
    }
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        i
    };
    let mut out: BTreeMap<usize, Attribution> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let r = root_of(i);
        if spans[r].name != root {
            continue;
        }
        let a = out.entry(r).or_default();
        a.wall_s = spans[r].secs();
        let own = s.secs() - child_s[i];
        let layer = if i == r {
            "bench"
        } else {
            a.largest_self_s = a.largest_self_s.max(own);
            s.layer()
        };
        *a.self_s.entry(layer).or_default() += own;
    }
    out.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        let mut t = Tracer::new(true, Instant::now());
        let root = t.open("request");
        let a = t.open("sample.cell");
        let b = t.open("store.load");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(b);
        t.close(a);
        t.time("grid.merge", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.close(root);
        let attr = attribute(t.spans(), "request");
        assert_eq!(attr.len(), 1);
        let a = &attr[0];
        assert!((a.accounted_s() - a.wall_s).abs() < 1e-9);
        assert!(a.self_s["store"] >= 0.002);
        assert!(a.self_s["grid"] >= 0.001);
        assert!(a.self_s.contains_key("bench"));
        // One span per layer here, so the largest span is the largest layer.
        let largest = ["sample", "store", "grid"]
            .map(|l| a.self_s[l])
            .into_iter()
            .fold(0.0, f64::max);
        assert!((a.largest_self_s - largest).abs() < 1e-9);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.open("request");
        t.close(id);
        assert!(t.spans().is_empty());
        assert_eq!(t.secs(id), 0.0);
    }
}
