//! Span recording for the traced run.
//!
//! Every call the benchmark makes into a layer's public function runs
//! inside [`Tracer::span`]. Spans stay in memory (one [`Tracer`] per
//! client thread) and are written out once, when the run ends, as a
//! Chrome/Perfetto `trace.json`. With tracing off a span is a plain call.

use dta_json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    /// Index of the span inside its tracer.
    pub id: usize,
    pub parent: Option<usize>,
    /// Client thread that recorded the span.
    pub thread: usize,
    /// Job the span belongs to; all spans of one job share it.
    pub job: u64,
    /// Layer (crate) the call goes into, or `bench`/`loadgen` for the
    /// harness itself.
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    thread: usize,
    t0: Instant,
    job: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// `t0` is shared by all tracers of a run so their clocks line up.
    pub fn new(on: bool, thread: usize, t0: Instant) -> Tracer {
        Tracer {
            on,
            thread,
            t0,
            job: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Tags the spans that follow with job `job`.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            thread: self.thread,
            job: self.job,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-layer self time in ns: each span's duration minus the part its
/// direct children cover. `spans` may hold several tracers' spans;
/// parents are looked up within the same thread.
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry((s.thread, p)).or_default() += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let children = child_ns.get(&(s.thread, s.id)).copied().unwrap_or(0);
        *out.entry(s.layer).or_default() += s.dur_ns().saturating_sub(children);
    }
    out
}

/// Chrome/Perfetto trace document: one complete ("X") event per span,
/// one track per client thread, job and parent ids in `args`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let events = spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::Str(s.name.into())),
                ("cat", Json::Str(s.layer.into())),
                ("ph", Json::Str("X".into())),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(s.thread as f64)),
                (
                    "args",
                    Json::obj([
                        ("job", Json::Num(s.job as f64)),
                        ("id", Json::Num(s.id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([("traceEvents", Json::Arr(events))]).to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(true, 0, Instant::now());
        t.span("bench", "job", |t| {
            t.span("core", "outer", |t| {
                t.span("json", "inner", |_| std::hint::black_box(0));
            });
        });
        let spans = t.into_spans();
        let by_layer = self_ns_by_layer(&spans);
        let total: u64 = by_layer.values().sum();
        assert_eq!(
            total,
            spans[0].dur_ns(),
            "self times partition the root span"
        );
        assert_eq!(spans[2].parent, Some(1));
    }

    #[test]
    fn tracing_off_records_nothing() {
        let mut t = Tracer::new(false, 0, Instant::now());
        assert_eq!(t.span("core", "x", |_| 7), 7);
        assert!(t.into_spans().is_empty());
    }
}
