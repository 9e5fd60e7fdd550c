//! In-memory span recorder for traced runs.
//!
//! Spans are recorded in the benchmark's own code around public calls
//! into each layer. Each span holds a name, start, end, its parent span
//! and the id of the op it belongs to. A layer's self time is its span's
//! duration minus the time its direct children cover. Spans stay in
//! memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// Self time and call count of one span name.
#[derive(Clone, Copy, Default)]
pub struct SelfTime {
    pub ns: u64,
    pub calls: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans begun from now on belong to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Self time and call count per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.ns += (s.end_ns - s.start_ns).saturating_sub(children);
            e.calls += 1;
        }
        out
    }

    /// Writes every span as one tab-separated line: id, parent (or -),
    /// op, name, start and end in nanoseconds since the tracer started.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::from("id\tparent\top\tname\tstart_ns\tend_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}
