//! In-memory spans recorded from the benchmark's own code around calls
//! into each layer. A span holds its name, start, end, parent and a
//! trace id shared by every span of one job or request; the spans are
//! written out when the run ends. A disabled tracer only runs the
//! closure, so the untraced run takes the same code path.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span.
pub struct Span {
    /// Layer-qualified name, e.g. `runtime.spec.parse`.
    pub name: String,
    /// Shared by every span of one job or request.
    pub trace: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder.
pub struct Tracer {
    enabled: Cell<bool>,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A recorder; a disabled one records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled: Cell::new(enabled),
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`; the innermost open span is
    /// its parent.
    pub fn span<T>(&self, name: &str, trace: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled.get() {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                trace,
                parent: self.open.borrow().last().copied(),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.now_ns();
        out
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.set(enabled);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Per span name: `(count, total ns, self ns)`, where self time is a
    /// span's duration minus the part its child spans cover. Children of
    /// a single-threaded tracer never overlap, so that part is their
    /// summed duration.
    pub fn self_times(&self) -> BTreeMap<String, (u64, u64, u64)> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        for (span, children) in spans.iter().zip(child_ns) {
            let entry = out.entry(span.name.clone()).or_default();
            entry.0 += 1;
            entry.1 += span.duration_ns();
            entry.2 += span.duration_ns().saturating_sub(children);
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"trace\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.trace, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let tracer = Tracer::new(true);
        tracer.span("outer", 1, || {
            tracer.span("inner", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let times = tracer.self_times();
        let (_, outer_total, outer_self) = times["outer"];
        let (_, inner_total, _) = times["inner"];
        assert_eq!(outer_self, outer_total - inner_total);
        assert!(inner_total >= 5_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", 0, || 7), 7);
        assert!(tracer.self_times().is_empty());
    }
}
