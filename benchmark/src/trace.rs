//! In-memory span recording for the traced run.
//!
//! A span is one call from the benchmark into a layer's public function:
//! name, start, end, parent span and request id. Each thread records into
//! its own [`Tracer`]; spans stay in memory and are merged and written out
//! when the run ends. A disabled tracer runs the wrapped call with no
//! bookkeeping at all, which is how the untraced halves of a run measure.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's span list.
    pub parent: Option<usize>,
    pub req: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, t0: Instant) -> Tracer {
        Tracer {
            on,
            t0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for request `req`.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        out
    }

    /// Record an already-finished interval (e.g. a request timed from its
    /// due time, which began before any code ran for it).
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if self.on {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: self.stack.last().copied(),
                req,
            });
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals over a span list.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerStat {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the time covered by child spans.
    pub self_ns: u64,
}

impl LayerStat {
    pub fn mean_self_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e6
        }
    }

    pub fn mean_total_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }
}

/// Aggregate one thread's spans by name. Children of a span run on the
/// same thread and never overlap, so their summed durations are the part
/// of the parent's interval they cover.
pub fn aggregate(spans: &[Span], into: &mut BTreeMap<&'static str, LayerStat>) {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    for (s, covered) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let e = into.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur.saturating_sub(covered);
    }
}

/// Write spans as JSON lines, one span per line, tagged with the thread
/// they were recorded on.
pub fn write_spans(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (t, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"thread":{t},"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"req":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
    }
    out.flush()
}
