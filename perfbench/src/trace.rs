//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start, an end, the span that caused it and the id
//! of the request it belongs to. Each client thread owns one [`Tracer`];
//! spans stay in memory until the run ends, when [`write_jsonl`] writes
//! them out (with parents, so self times can be derived) and the per-layer
//! metrics are computed from them. A disabled
//! tracer records nothing, which is what the untraced run uses.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch,
/// which the writer and reader of one measured phase share.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span covers, e.g. `wire.decode`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (equal to `start_ns` while open).
    pub end_ns: u64,
    /// Index of the parent span in the same tracer.
    pub parent: Option<usize>,
    /// Request id shared by every span of one request.
    pub req: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Handle of an open span (`None` when the tracer is disabled).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    /// High bits of every request id this tracer hands out, so ids from
    /// different threads never collide.
    tag: u64,
    next_req: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recording tracer. `tag` distinguishes the owning thread.
    pub fn new(epoch: Instant, tag: u64) -> Self {
        Self { enabled: true, epoch, tag, next_req: 0, spans: Vec::new() }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self { enabled: false, epoch: Instant::now(), tag: 0, next_req: 0, spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span. A span without a parent starts a new request.
    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let req = match parent.0 {
            Some(p) => self.spans[p].req,
            None => {
                self.next_req += 1;
                (self.tag << 40) | self.next_req
            }
        };
        let now = self.now_ns();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent: parent.0, req });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes a span.
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consumes the tracer, returning its spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// The root of no span: passing it to [`Tracer::begin`] starts a request.
pub const ROOT: SpanId = SpanId(None);

/// Durations (ms) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
}

/// Writes spans as JSON lines: one object per span, with the parent as a
/// request-local index so a reader can rebuild each request's tree.
///
/// # Errors
/// Any I/O error creating or writing the file.
pub fn write_jsonl(path: &Path, groups: &[(&str, &[Span])]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, spans) in groups {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"thread\":\"{thread}\",\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_spans_share_their_request() {
        let mut t = Tracer::new(Instant::now(), 1);
        let root = t.begin("root", ROOT);
        t.span("child", root, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.end(root);
        let next = t.begin("next", ROOT);
        t.end(next);
        let spans = t.spans();
        assert_eq!(spans[0].req, spans[1].req);
        assert_ne!(spans[0].req, spans[2].req);
        assert!(durations(spans, "child")[0] >= 2.0);
        assert!(durations(spans, "root")[0] >= durations(spans, "child")[0]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.begin("x", ROOT);
        t.end(id);
        assert!(t.spans().is_empty());
    }
}
