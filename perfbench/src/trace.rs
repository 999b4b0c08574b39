//! Benchmark-side spans for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public API — nothing is recorded inside the program. Each span has a
//! name, the layer it enters, start and end, the span that caused it, and
//! the id of the job (or repetition) it belongs to. Spans are kept in
//! memory and written out once, when the run ends.
//!
//! A layer's *self time* is its spans' durations minus the part of each
//! span covered by its child spans. All spans are opened and closed on the
//! benchmark's driving thread, so children nest without overlapping.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Call being timed, e.g. `live.wait_job`.
    pub name: &'static str,
    /// Layer the call enters, e.g. `live`.
    pub layer: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Job or repetition the span belongs to.
    pub job: u64,
}

/// Records spans in memory. A disabled tracer records nothing, so the
/// untraced pass pays only a flag check per call.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` entering `layer`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let idx = self.begin(name, layer, job);
        let out = f();
        self.end(idx);
        out
    }

    /// Opens a span; close it with [`Tracer::end`]. Returns `usize::MAX`
    /// when disabled (ignored by `end`).
    pub fn begin(&mut self, name: &'static str, layer: &'static str, job: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(idx);
        idx
    }

    /// Closes span `idx` and any span opened inside it that is still open.
    pub fn end(&mut self, idx: usize) {
        if !self.enabled || idx == usize::MAX {
            return;
        }
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// Appends every span `other` recorded, moved onto this tracer's clock,
    /// as top-level spans of their own.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = u64::try_from(
            other
                .origin
                .saturating_duration_since(self.origin)
                .as_nanos(),
        )
        .unwrap_or(u64::MAX);
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start_ns: s.start_ns.saturating_add(shift),
            end_ns: s.end_ns.saturating_add(shift),
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
                s.name, s.layer, s.start_ns, s.end_ns, s.job
            )?;
        }
        out.flush()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Self time per layer of a span forest, in seconds: each span's duration
/// minus its direct children's durations, summed by layer.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut out = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(children);
        *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e9;
    }
    out
}
