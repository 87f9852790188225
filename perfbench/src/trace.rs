//! In-memory spans, written out when the benchmark ends.
//!
//! Spans are recorded by the benchmark around its calls into each layer;
//! nothing inside the program is instrumented. A span carries its name, the
//! request it belongs to (a transaction or an obligation), the name of the
//! span that caused it, and its start and end relative to the run's origin.
//! The per-layer metrics are computed from running sums kept next to the
//! spans; the raw spans of every `SAMPLE_EVERY`-th request (at most
//! `MAX_SPANS` in total) are kept so their shape can be inspected without
//! the log growing with the length of the run.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Keep the raw spans of one request in this many.
pub const SAMPLE_EVERY: u64 = 64;
const MAX_SPANS: usize = 20_000;

#[derive(Debug, Clone)]
pub struct Span {
    pub request: u64,
    pub name: &'static str,
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    thread: &'static str,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant, thread: &'static str) -> SpanLog {
        SpanLog {
            origin,
            thread,
            spans: Vec::new(),
        }
    }

    /// Whether `request`'s spans are kept.
    pub fn sampled(&self, request: u64) -> bool {
        request.is_multiple_of(SAMPLE_EVERY) && self.spans.len() < MAX_SPANS
    }

    pub fn record(
        &mut self,
        request: u64,
        name: &'static str,
        parent: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            request,
            name,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }
}

/// Where the benchmark writes its files: next to its own executable, i.e.
/// inside the build directory of the checkout.
pub fn out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    exe.parent()
        .map(Path::to_path_buf)
        .ok_or_else(|| "the executable has no parent directory".to_string())
}

/// Writes every log's spans as JSON lines to `path`.
pub fn write_spans(path: &Path, logs: &[SpanLog]) -> Result<(), String> {
    let mut out = String::new();
    for log in logs {
        for s in &log.spans {
            let _ = writeln!(
                out,
                "{{\"thread\": \"{}\", \"request\": {}, \"name\": \"{}\", \"parent\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                log.thread, s.request, s.name, s.parent, s.start_ns, s.end_ns
            );
        }
    }
    let mut file =
        std::fs::File::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?;
    file.write_all(out.as_bytes())
        .and_then(|()| file.flush())
        .map_err(|e| format!("writing {}: {e}", path.display()))
}
