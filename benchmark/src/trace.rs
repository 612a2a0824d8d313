//! Benchmark-side tracing: in-memory spans around calls into the
//! program's public API, and an `Engine` wrapper that records one span
//! per engine call.
//!
//! Spans are kept in memory (name, start, end, parent) and written out
//! once, when the run ends. A span's self time is its duration minus
//! the time covered by its direct children.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use xstream_core::{EdgeProgram, Engine, IterationStats, VertexId};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Span recorder for one single-threaded benchmark driver. When
/// disabled it records nothing and costs one branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        out
    }

    /// Removes and returns the spans recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, child)| s.ns().saturating_sub(child))
        .collect()
}

/// Per-name totals over a span list: (count, total ns, self ns).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        let t = out.entry(s.name).or_default();
        t.0 += 1;
        t.1 += s.ns();
        t.2 += own;
    }
    out
}

/// Name of the nearest ancestor span that is one of `roots`.
pub fn root_of(spans: &[Span], mut i: usize, roots: &[&str]) -> Option<&'static str> {
    loop {
        if roots.contains(&spans[i].name) {
            return Some(spans[i].name);
        }
        i = spans[i].parent?;
    }
}

/// Writes spans as NDJSON, one object per span, with self time.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, (s, own)) in spans.iter().zip(self_ns(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"self_ns":{own}}}"#,
            s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// An engine that forwards every call to `inner`, recording a span per
/// call on the tracer.
pub struct Traced<'t, E> {
    pub inner: E,
    tracer: &'t Tracer,
}

impl<'t, E> Traced<'t, E> {
    pub fn new(inner: E, tracer: &'t Tracer) -> Self {
        Self { inner, tracer }
    }
}

impl<P: EdgeProgram, E: Engine<P>> Engine<P> for Traced<'_, E> {
    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.inner.num_edges()
    }

    fn scatter_gather(&mut self, program: &P) -> IterationStats {
        self.tracer
            .span("scatter_gather", || self.inner.scatter_gather(program))
    }

    fn vertex_map(&mut self, f: &mut dyn FnMut(VertexId, &mut P::State)) {
        self.tracer.span("vertex_map", || self.inner.vertex_map(f))
    }

    fn vertex_fold(
        &mut self,
        init: f64,
        f: &mut dyn FnMut(f64, VertexId, &P::State) -> f64,
    ) -> f64 {
        self.tracer
            .span("vertex_fold", || self.inner.vertex_fold(init, f))
    }

    fn states(&mut self) -> Vec<P::State> {
        self.tracer.span("states", || self.inner.states())
    }

    fn seed_frontier(&mut self, sources: &[VertexId]) {
        self.tracer
            .span("seed_frontier", || self.inner.seed_frontier(sources))
    }
}
