//! In-memory spans recorded by the benchmark around its calls into each
//! layer, for the traced run.
//!
//! A span holds a name, its start and end, its parent span and a request
//! id shared by every span of one operation.  Spans are kept in memory and
//! written out as JSON lines when the run ends.  A span's self time is its
//! duration minus the part of its interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::Samples;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span that stays open until [`Tracer::end`]; child spans
    /// name the returned index as their parent.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end_ns = self.ns(Instant::now());
    }

    /// Records a finished span that ran from `start` until now.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
    ) -> usize {
        let end = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds of `span`'s interval covered by its direct children
    /// (overlapping children are counted once).
    pub fn child_cover_ns(&self, span: usize) -> u64 {
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(span))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        kids.sort_unstable();
        let (lo, hi) = (self.spans[span].start_ns, self.spans[span].end_ns);
        let mut covered = 0;
        let mut reach = lo;
        for (s, e) in kids {
            let (s, e) = (s.max(reach), e.min(hi));
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        covered
    }

    /// Duration minus child cover.
    pub fn self_ns(&self, span: usize) -> u64 {
        self.spans[span].duration_ns() - self.child_cover_ns(span)
    }

    /// Span durations in microseconds, grouped by span name.
    pub fn durations_us(&self) -> BTreeMap<&'static str, Samples> {
        let mut out: BTreeMap<&'static str, Samples> = BTreeMap::new();
        for s in &self.spans {
            out.entry(s.name)
                .or_default()
                .push(s.duration_ns() as f64 / 1e3);
        }
        out
    }

    /// Self times in microseconds, grouped by span name.
    pub fn self_times_us(&self) -> BTreeMap<&'static str, Samples> {
        let mut out: BTreeMap<&'static str, Samples> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            out.entry(s.name)
                .or_default()
                .push(self.self_ns(i) as f64 / 1e3);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(t: &mut Tracer, name: &'static str, parent: Option<usize>, s: u64, e: u64) -> usize {
        t.spans.push(Span {
            name,
            start_ns: s,
            end_ns: e,
            parent,
            request: 1,
        });
        t.spans.len() - 1
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let root = span(&mut t, "op", None, 0, 100);
        span(&mut t, "a", Some(root), 10, 40);
        span(&mut t, "b", Some(root), 30, 60); // overlaps a by 10
        let c = span(&mut t, "c", Some(root), 90, 120); // runs past the root
        span(&mut t, "d", Some(c), 95, 100); // grandchild: not root's child
        assert_eq!(t.child_cover_ns(root), 50 + 10);
        assert_eq!(t.self_ns(root), 40);
        assert_eq!(t.self_ns(c), 25);
        assert_eq!(t.durations_us()["a"].len(), 1);
    }
}
