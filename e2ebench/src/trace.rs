//! In-memory spans around the calls the benchmark makes.
//!
//! A span records its name, start, end, the span that caused it and the
//! request it belongs to. Spans stay in memory while the run measures and
//! are written out as JSON lines once it ends, so writing them costs the
//! measured run nothing.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A span recorder shared by every thread of a run.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span and returns its result with the span's id.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(Span {
                id,
                parent,
                request,
                name: name.to_string(),
                start_ns,
                end_ns,
            });
        (out, id)
    }

    /// Every span recorded so far, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Durations in microseconds of the spans called `name`.
    pub fn micros(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{},"parent":{parent},"request":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span when tracing, or bare when not.
pub fn maybe_span<T>(
    tracer: Option<&Tracer>,
    name: &str,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, None, request, f).0,
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_parents_and_requests() {
        let tracer = Tracer::default();
        let (value, root) = tracer.span("request", None, 7, || 41);
        let (_, child) = tracer.span("layer", Some(root), 7, || value + 1);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let layer = spans.iter().find(|s| s.id == child).unwrap();
        assert_eq!((layer.parent, layer.request), (Some(root), 7));
        assert_eq!(tracer.micros("layer").len(), 1);
    }
}
