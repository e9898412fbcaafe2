//! In-memory spans: name, start, end and the span that caused them. They
//! are kept in memory while the benchmark runs and written out at the
//! end; a layer's self time is its span's duration minus the part its
//! child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::report::json_str;
use crate::stats::quantile;

/// A span id (its index in the tracer).
pub type SpanId = usize;

/// One recorded span, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `service.process`.
    pub name: &'static str,
    /// The enclosing span.
    pub parent: Option<SpanId>,
    /// Start.
    pub start: u64,
    /// End (`start` until closed).
    pub end: u64,
}

/// Per-layer totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerStats {
    /// Spans of this name.
    pub count: u64,
    /// Total self time.
    pub self_ns: u64,
    /// Median self time of one span.
    pub p50_ns: u64,
    /// 99th-percentile self time of one span.
    pub p99_ns: u64,
}

/// The span recorder. A disabled recorder keeps no spans and reads no
/// clock, so a run with it costs what the same run costs untraced.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty trace starting now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            enabled: true,
        }
    }

    /// A recorder that records nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span starting now.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let now = self.now();
        self.record(name, parent, now, now)
    }

    /// Closes `id` now.
    pub fn close(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id].end = self.now();
        }
    }

    /// When span `id` started (`None` when disabled).
    pub fn start(&self, id: SpanId) -> Option<u64> {
        self.spans.get(id).map(|s| s.start)
    }

    /// Records a finished span with explicit times.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: u64,
        end: u64,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        self.spans.push(Span {
            name,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus its children's durations.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    /// Count, total self time, p50 and p99 per span name.
    pub fn summary(&self) -> BTreeMap<String, LayerStats> {
        let own = self.self_times();
        let mut by_name: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            by_name.entry(s.name).or_default().push(t);
        }
        by_name
            .into_iter()
            .map(|(name, mut v)| {
                let stats = LayerStats {
                    count: v.len() as u64,
                    self_ns: v.iter().sum(),
                    p50_ns: quantile(&mut v, 0.5),
                    p99_ns: quantile(&mut v, 0.99),
                };
                (name.to_string(), stats)
            })
            .collect()
    }

    /// Writes one JSON line per span, then one summary line.
    ///
    /// # Errors
    ///
    /// Write failures.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{id},\"parent\":{parent},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
                json_str(s.name),
                s.start,
                s.end
            )?;
        }
        let layers: Vec<String> = self
            .summary()
            .iter()
            .map(|(name, l)| {
                format!(
                    "{}:{{\"count\":{},\"self_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
                    json_str(name),
                    l.count,
                    l.self_ns,
                    l.p50_ns,
                    l.p99_ns
                )
            })
            .collect();
        writeln!(out, "{{\"summary\":{{{}}}}}", layers.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.record("root", None, 0, 100);
        let a = t.record("a", Some(root), 10, 40);
        t.record("b", Some(a), 15, 25);
        t.record("b", Some(root), 50, 60);
        assert_eq!(t.self_times(), vec![60, 20, 10, 10]);
        let s = t.summary();
        assert_eq!(s["b"].count, 2);
        assert_eq!(s["b"].self_ns, 20);
        let sum: u64 = t.self_times().iter().sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn a_disabled_tracer_keeps_nothing() {
        let mut t = Tracer::disabled();
        let a = t.open("a", None);
        t.record("b", Some(a), 1, 2);
        t.close(a);
        assert!(t.spans().is_empty());
        assert_eq!(t.start(a), None);
    }
}
