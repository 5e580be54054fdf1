//! In-memory spans recorded around the benchmark's calls into each layer,
//! exported as Chrome trace JSON when the run ends.
//!
//! A disabled tracer records nothing; every recording call then costs one
//! branch. Spans are kept in one vector behind a mutex so the tracer can
//! be shared by reference.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// The layer a root span's own time is charged to: time inside the
/// benchmark's measured region that no layer span covers.
pub const UNATTRIBUTED: &str = "unattributed";

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The layer this span's self time is charged to.
    pub layer: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    /// Request (or job) the span belongs to; spans of one request share it.
    pub req: u64,
}

pub type SpanId = usize;

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The span list. A recorder that panicked left every entry whole
    /// (spans are pushed or have one field set), so poison is ignored.
    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Opens a span that [`Tracer::close`] ends; `None` when disabled.
    pub fn open(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        req: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = Instant::now();
        let mut spans = self.spans();
        spans.push(Span {
            name,
            layer,
            start: now,
            end: now,
            parent,
            req,
        });
        Some(spans.len() - 1)
    }

    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let now = Instant::now();
            self.spans()[id].end = now;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, layer, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// Records an already-finished span tree: `tree[0]` is the root and
    /// every other entry names its parent by index into `tree`.
    pub fn record_tree(&self, tree: &[(Span, Option<usize>)]) {
        if !self.enabled || tree.is_empty() {
            return;
        }
        let mut spans = self.spans();
        let base = spans.len();
        for (span, local_parent) in tree {
            let mut span = span.clone();
            span.parent = local_parent.map(|p| base + p);
            spans.push(span);
        }
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans())
    }

    /// Writes `spans` as Chrome `trace_event` JSON (one complete event per
    /// span, one track per request).
    pub fn write_chrome(&self, spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ts = s.start.duration_since(self.epoch).as_secs_f64() * 1e6;
            let dur = s.end.duration_since(s.start).as_secs_f64() * 1e6;
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{i},\"parent\":{parent},\"req\":{}}}}}",
                s.name, s.layer, s.req, s.req
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Per-layer self time: each span's duration minus the part of it its
/// children cover, summed by layer. Root spans charge their self time to
/// their own layer; the benchmark opens its measured regions as
/// [`UNATTRIBUTED`] roots. Returns (self µs by layer, wall µs), where the
/// wall is the summed duration of every root span, so the self times add
/// up to it whenever sibling spans do not overlap.
pub fn self_times(spans: &[Span]) -> (BTreeMap<&'static str, f64>, f64) {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut wall = 0.0;
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            Some(p) => children[p].push(i),
            None => wall += s.end.duration_since(s.start).as_secs_f64() * 1e6,
        }
    }
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut cover: Vec<(Instant, Instant)> = children[i]
            .iter()
            .map(|&c| (spans[c].start.max(s.start), spans[c].end.min(s.end)))
            .filter(|(a, b)| b > a)
            .collect();
        cover.sort();
        let mut covered = 0.0;
        let mut cursor: Option<Instant> = None;
        for (a, b) in cover {
            let a = cursor.map_or(a, |c| a.max(c));
            if b > a {
                covered += b.duration_since(a).as_secs_f64() * 1e6;
                cursor = Some(b);
            }
        }
        let total = s.end.duration_since(s.start).as_secs_f64() * 1e6;
        *by_layer.entry(s.layer).or_insert(0.0) += total - covered;
    }
    (by_layer, wall)
}
