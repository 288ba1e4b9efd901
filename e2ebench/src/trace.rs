//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer of the workspace: a name, a start, an end and the span
//! that caused it. They stay in memory and are written out once, when
//! the run ends. Untraced runs create no tracer at all.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans in memory.
pub struct Tracer {
    t0: Instant,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id; close it with
    /// [`Tracer::close`]. Use this for spans that enclose other spans.
    pub fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        let start_ns = self.now_ns();
        spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&self, id: usize) {
        let end = self.now_ns();
        self.spans.borrow_mut()[id].end_ns = end;
    }

    /// Runs `f` inside a leaf span named `name`.
    pub fn span<T>(&self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Records a span measured elsewhere (e.g. on another thread), with
    /// instants taken from the same clock; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            name,
            start_ns: at(start),
            end_ns: at(end),
        });
        id
    }

    /// Total milliseconds of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// Share of the spans named `parent_name` covered by their direct
    /// children: the part of the traced operation's wall time the timed
    /// layers account for (children of one parent never overlap here).
    pub fn coverage(&self, parent_name: &str) -> f64 {
        let spans = self.spans.borrow();
        let mut whole = 0.0;
        let mut covered = 0.0;
        for p in spans.iter().filter(|s| s.name == parent_name) {
            whole += p.ms();
            covered += spans
                .iter()
                .filter(|c| c.parent == Some(p.id))
                .map(Span::ms)
                .sum::<f64>();
        }
        if whole > 0.0 {
            covered / whole
        } else {
            0.0
        }
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"spans\": [")?;
        let spans = self.spans.borrow();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}
