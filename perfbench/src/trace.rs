//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer's public function, made from
//! the benchmark's own code: name, start, end, the span that caused it,
//! and the request it belongs to. Spans are kept in memory while the
//! workload runs, written out once at the end, and self time (a span's
//! duration minus the part its children cover) is computed from them.
//!
//! The untraced run never constructs a recorder that is on, so every
//! `begin`/`end` there is one branch.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// No parent / no request.
pub const NONE: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub req: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A per-thread span recorder. Spans nest through an explicit stack,
/// so a recorder must only be used from one thread; threads record
/// into their own recorder and [`Tracer::absorb`] merges them.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer { on, epoch, spans: Vec::new(), stack: Vec::new() }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, req: u32) -> Open {
        if !self.on {
            return Open(NONE);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, req });
        self.stack.push(idx);
        Open(idx)
    }

    /// Closes `open`, which must be the innermost open span. Returns
    /// its duration in nanoseconds (0 when tracing is off).
    pub fn end(&mut self, open: Open) -> u64 {
        if open.0 == NONE {
            return 0;
        }
        let end = self.now();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans close innermost first");
        let s = &mut self.spans[open.0 as usize];
        s.end = end;
        s.dur_ns()
    }

    /// Moves another thread's spans into this recorder, re-basing their
    /// parent links. Both recorders must share the same epoch.
    pub fn absorb(&mut self, other: Tracer) {
        debug_assert!(other.stack.is_empty(), "absorbing a recorder with open spans");
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += base;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).collect()
    }

    /// Total duration (ns) of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).sum()
    }

    /// Self time per span name: each span's duration minus the
    /// durations of its direct children (children nest inside their
    /// parent on one thread, so their durations never overlap).
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child[s.parent as usize] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// Writes every span as one JSON array per line:
    /// `[name, start_ns, end_ns, parent_index_or_-1, request_or_-1]`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        for s in &self.spans {
            let parent = if s.parent == NONE { -1 } else { i64::from(s.parent) };
            let req = if s.req == NONE { -1 } else { i64::from(s.req) };
            writeln!(w, "[\"{}\", {}, {}, {parent}, {req}]", s.name, s.start, s.end)?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.begin("outer", 0);
        let inner = t.begin("inner", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner_ns = t.end(inner);
        let outer_ns = t.end(outer);
        let selfs = t.self_ns();
        assert_eq!(selfs["inner"], inner_ns);
        assert_eq!(selfs["outer"], outer_ns - inner_ns);
        assert_eq!(t.spans()[1].parent, 0);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let s = t.begin("x", 0);
        assert_eq!(t.end(s), 0);
        assert!(t.spans().is_empty());
    }
}
