//! In-memory span recorder for traced runs.
//!
//! A span covers one call into a layer: name, start, end, the span that
//! caused it, and the operation (one inversion or one service request) it
//! belongs to. Spans stay in memory and are written out once, at the end,
//! as Chrome trace-event JSON.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u64,
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span; `f` receives the span's id to parent its
    /// own children.
    pub fn span<T>(
        &self,
        op: u64,
        parent: Option<u32>,
        name: &'static str,
        f: impl FnOnce(u32) -> T,
    ) -> T {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_secs_f64();
        let out = f(id);
        let end = self.origin.elapsed().as_secs_f64();
        self.spans.lock().unwrap().push(Span {
            id,
            parent,
            op,
            name,
            start,
            end,
        });
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap().clone()
    }

    /// Per operation, the summed duration of the spans named in `names`
    /// (operations without such spans are skipped).
    pub fn per_op(&self, names: &[&str]) -> Vec<f64> {
        let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans().iter().filter(|s| names.contains(&s.name)) {
            *by_op.entry(s.op).or_default() += s.secs();
        }
        by_op.into_values().collect()
    }

    /// Self time per span name: each span's duration minus the time its
    /// direct children cover, summed over all spans of that name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut child: BTreeMap<u32, f64> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child.entry(p).or_default() += s.secs();
            }
        }
        let mut out = BTreeMap::new();
        for s in &spans {
            let own = s.secs() - child.get(&s.id).copied().unwrap_or(0.0);
            *out.entry(s.name).or_insert(0.0) += own;
        }
        out
    }

    /// Writes the spans as Chrome trace-event JSON (one `X` event each;
    /// `tid` is the operation id).
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let events: Vec<String> = self
            .spans()
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                    s.name,
                    s.op,
                    s.start * 1e6,
                    s.secs() * 1e6,
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string())
                )
            })
            .collect();
        std::fs::write(
            path,
            format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n")),
        )
    }
}
