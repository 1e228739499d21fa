//! The in-memory span recorder and the traced run.
//!
//! Spans are recorded only in this package, around calls into each
//! crate's public functions; the library crates carry no instrumentation.
//! A span has a name, a start, an end, a parent and an operation id (every
//! span of one evaluated schedule, one request or one simulation shares
//! it). A disabled [`Tracer`] costs one branch per call, so the untraced
//! twin of a replay runs the same code for the overhead ratio.

use crate::report::{Outcome, Size};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// Single-threaded span recorder (every traced replay runs on one thread).
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: RefCell<State>,
}

/// Calls and summed self time of every span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    pub calls: u64,
    pub self_ns: u64,
    pub total_ns: u64,
}

impl Layer {
    /// Mean self time per call in the given unit (1e3 = µs, 1e6 = ms).
    pub fn per_call(&self, ns_per_unit: f64) -> f64 {
        self.self_ns as f64 / self.calls.max(1) as f64 / ns_per_unit
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            state: RefCell::new(State::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new operation: spans opened from now on share its id.
    pub fn begin_op(&self) {
        if self.enabled {
            self.state.borrow_mut().op += 1;
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut s = self.state.borrow_mut();
            let idx = s.spans.len();
            let parent = s.open.last().copied();
            let op = s.op;
            s.spans.push(Span {
                name,
                op,
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            s.open.push(idx);
            idx
        };
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let mut s = self.state.borrow_mut();
        s.spans[idx].start_ns = start;
        s.spans[idx].end_ns = end;
        s.open.pop();
        out
    }

    /// Per span name: calls, total time, and self time (the span minus the
    /// time its child spans cover; children of one span never overlap).
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let s = self.state.borrow();
        let mut child_ns = vec![0u64; s.spans.len()];
        for sp in &s.spans {
            if let Some(p) = sp.parent {
                child_ns[p] += sp.end_ns - sp.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (i, sp) in s.spans.iter().enumerate() {
            let total = sp.end_ns - sp.start_ns;
            let layer = out.entry(sp.name).or_default();
            layer.calls += 1;
            layer.total_ns += total;
            layer.self_ns += total.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, sp) in self.state.borrow().spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                sp.name, sp.op, sp.start_ns, sp.end_ns
            )?;
        }
        out.flush()
    }
}

/// Where the traced run writes its spans (relative to the working
/// directory, i.e. the repository root).
pub const SPAN_DIR: &str = ".bench_trace";

/// The traced run: every workload's per-layer replay, whatever workload
/// is named, so one traced run yields the whole per-layer table. The
/// replays have fixed sizes, so their counts repeat exactly.
pub fn run_traced(workload: &str, seed: u64, size: Size) -> Outcome {
    let tracer = Tracer::new(true);
    let mut out = Outcome::default();
    crate::study::traced(&tracer, seed, size, &mut out);
    crate::serve::traced(&tracer, seed, size, &mut out);
    crate::online::traced(&tracer, seed, size, &mut out);
    let path = std::path::Path::new(SPAN_DIR).join(format!("spans-{workload}-{seed}.jsonl"));
    if let Err(e) = tracer.write_jsonl(&path) {
        out.check(false, || format!("writing {}: {e}", path.display()));
    }
    out
}
