//! The traced run's span recorder.
//!
//! A span is one call from the ledger into a layer: its name, start and
//! end, the span that caused it, and the request (operation) it belongs
//! to.  Spans are kept in memory and written as JSONL when the run ends,
//! one object per line:
//!
//! ```text
//! {"id":3,"parent":1,"req":2,"name":"sim.replay_classic","tag":"C5-LU","start_ns":1200,"end_ns":98000,"self_ns":96800}
//! ```
//!
//! `start_ns`/`end_ns` count from the recorder's creation; `self_ns` is
//! the span's duration minus the part of it its direct children cover.

use std::io::Write;
use std::time::Instant;

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `trace.decode`.
    pub name: &'static str,
    /// What the call worked on (a scenario or request class).
    pub tag: String,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The operation this span serves; spans of one request share it.
    pub req: u64,
}

/// In-memory span store.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the recorder's epoch to `t`.
    pub fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span whose interval is already known.
    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`Recorder::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        tag: &str,
        parent: Option<SpanId>,
        req: u64,
    ) -> SpanId {
        let start_ns = self.offset(Instant::now());
        self.push(Span {
            name,
            tag: tag.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        })
    }

    /// Close span `id` now.
    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.offset(Instant::now());
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `id` in seconds.
    pub fn seconds(&self, id: SpanId) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }

    /// Self time of every span: its duration minus the union of its
    /// direct children's intervals, clipped to its own.
    pub fn self_times(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if a < b {
                    kids[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(kids.iter_mut())
            .map(|(me, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = me.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (me.end_ns - me.start_ns) - covered
            })
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, mut out: impl Write) -> std::io::Result<()> {
        let self_times = self.self_times();
        for (id, s) in self.spans.iter().enumerate() {
            let line = serde_json::json!({
                "id": id as u64,
                "parent": s.parent.map(|p| p as u64),
                "req": s.req,
                "name": s.name,
                "tag": s.tag.as_str(),
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "self_ns": self_times[id],
            });
            let text = serde_json::to_string(&line)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
            writeln!(out, "{text}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "test",
            tag: String::new(),
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut r = Recorder::new();
        let root = r.push(span(0, 100, None));
        let child = r.push(span(10, 40, Some(root)));
        // A grandchild is covered by its parent; it must not count twice.
        r.push(span(15, 35, Some(child)));
        r.push(span(50, 60, Some(root)));
        assert_eq!(r.self_times()[root], 100 - 30 - 10);
        assert_eq!(r.self_times()[child], 30 - 20);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let mut r = Recorder::new();
        let root = r.push(span(100, 200, None));
        // Two concurrent requests covering [120, 170) between them.
        r.push(span(120, 150, Some(root)));
        r.push(span(140, 170, Some(root)));
        // A child that outlives its parent only covers the overlap.
        r.push(span(190, 250, Some(root)));
        // One nested entirely inside an earlier sibling adds nothing.
        r.push(span(125, 130, Some(root)));
        assert_eq!(r.self_times()[root], 100 - 50 - 10);
    }

    #[test]
    fn fully_covered_span_has_zero_self_time() {
        let mut r = Recorder::new();
        let root = r.push(span(0, 10, None));
        r.push(span(0, 10, Some(root)));
        assert_eq!(r.self_times()[root], 0);
    }

    #[test]
    fn timed_spans_nest_and_write_as_jsonl() {
        let mut r = Recorder::new();
        let root = r.begin("run", "", None, 0);
        let call = r.begin("layer.call", "x", Some(root), 7);
        r.end(call);
        r.end(root);
        assert!(r.spans()[1].end_ns >= r.spans()[1].start_ns);
        assert!(r.self_times()[root] <= r.spans()[0].end_ns - r.spans()[0].start_ns);
        let mut bytes = Vec::new();
        r.write_jsonl(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<serde_json::Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1]["name"].as_str(), Some("layer.call"));
        assert_eq!(lines[1]["parent"].as_u64(), Some(0));
        assert_eq!(lines[1]["req"].as_u64(), Some(7));
        assert!(lines[0]["parent"].is_null());
    }
}
