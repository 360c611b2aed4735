//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (the program itself is not instrumented). They stay in memory while
//! the run measures and are written as JSONL when it ends.

use serde_json::json;
use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Shared by every span of one request.
    pub req: u64,
    /// Layer boundary name, e.g. `x509.parse`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder. A disabled tracer records nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a span that ran from `start` to `end`; returns its id (0
    /// when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns: at(start),
            end_ns: at(end),
        });
        id
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<u64>, req: u64) -> u64 {
        let now = Instant::now();
        self.record(name, parent, req, now, now)
    }

    /// Close a span opened with [`Tracer::begin`].
    pub fn end(&mut self, id: u64) {
        if id == 0 {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        if let Some(span) = self.spans.get_mut(id as usize - 1) {
            span.end_ns = now;
        }
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, req, start, Instant::now());
        out
    }

    /// Every recorded span, in start order of recording.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }
}

/// Self time of each span (same order as `spans`): its duration minus
/// the part of its interval that its direct children cover. Overlapping
/// children are counted once, and child time outside the parent's
/// interval is ignored, so self time never exceeds the duration.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.dur_ns() - covered.min(s.dur_ns())
        })
        .collect()
}

/// Write one JSON object per span, with its self time, to `path`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, self_ns) in spans.iter().zip(selfs) {
        let line = json!({
            "id": s.id,
            "parent": s.parent.map_or(serde_json::Value::Null, serde_json::Value::from),
            "req": s.req,
            "name": s.name,
            "start_ns": s.start_ns,
            "end_ns": s.end_ns,
            "self_ns": self_ns,
        });
        let text =
            serde_json::to_string(&line).map_err(|e| std::io::Error::other(e.to_string()))?;
        writeln!(out, "{text}")?;
    }
    out.flush()
}

/// Mean self time in microseconds per span name, sorted by name.
pub fn self_time_summary(spans: &[Span]) -> Vec<(&'static str, usize, f64)> {
    let mut by_name: std::collections::BTreeMap<&'static str, (usize, u64)> = Default::default();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += self_ns;
    }
    by_name
        .into_iter()
        .map(|(name, (n, total))| (name, n, total as f64 / n as f64 / 1e3))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60), // overlaps child 2
            span(4, Some(2), 15, 20),
        ];
        assert_eq!(self_times(&spans), vec![50, 25, 30, 5]);
    }

    #[test]
    fn self_time_never_exceeds_duration() {
        // Children that spill past the parent or cover it several times
        // over, including degenerate and inverted intervals.
        let spans = vec![
            span(1, None, 50, 100),
            span(2, Some(1), 0, 200),
            span(3, Some(1), 60, 70),
            span(4, Some(1), 90, 80),
            span(5, None, 7, 7),
            span(6, Some(5), 0, 10),
        ];
        for (s, self_ns) in spans.iter().zip(self_times(&spans)) {
            assert!(
                self_ns <= s.dur_ns(),
                "span {} self {self_ns} > {}",
                s.id,
                s.dur_ns()
            );
        }
        assert_eq!(self_times(&spans)[0], 0, "fully covered parent");
    }

    #[test]
    fn recorded_spans_nest_and_disable() {
        let mut t = Tracer::new(true);
        let root = t.begin("request", None, 7);
        let v = t.time("child", Some(root), 7, || 2 + 2);
        t.end(root);
        assert_eq!(v, 4);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans.iter().all(|s| s.req == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        for (s, self_ns) in spans.iter().zip(self_times(spans)) {
            assert!(self_ns <= s.dur_ns());
        }

        let mut off = Tracer::new(false);
        let id = off.begin("request", None, 1);
        off.time("child", Some(id), 1, || ());
        off.end(id);
        assert!(off.spans().is_empty());
    }
}
