//! In-memory wall-clock span recorder for traced runs.
//!
//! Spans carry a name, start and end, the span that caused them and the
//! circuit or job they belong to. They stay in memory until the run ends
//! and are then written as Perfetto (Chrome trace event) JSON. A disabled
//! recorder runs the wrapped calls without reading the clock.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Span {
    name: String,
    id: u64,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// Span recorder; see the module docs.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder that keeps spans (`enabled`) or only runs the calls.
    pub fn new(enabled: bool) -> Self {
        Recorder { enabled, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name` for circuit or job `id`; spans
    /// opened inside `f` become its children.
    pub fn span<R>(&mut self, name: &str, id: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name: name.to_string(),
            id,
            parent: self.stack.last().copied(),
            start,
            end: start,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end = self.epoch.elapsed();
        out
    }

    /// Record a span from timestamps taken elsewhere (the serve client's
    /// send, ack and frame times). Returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let since = |t: Instant| t.saturating_duration_since(self.epoch);
        self.spans.push(Span {
            name: name.to_string(),
            id,
            parent,
            start: since(start),
            end: since(end),
        });
        Some(self.spans.len() - 1)
    }

    /// Total seconds per span name among the spans of `id`.
    pub fn totals_for(&self, id: u64) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.id == id) {
            *out.entry(s.name.clone()).or_insert(0.0) += (s.end - s.start).as_secs_f64();
        }
        out
    }

    /// Self time per span name over the whole run: each span's duration
    /// minus the time its children cover, summed by name.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_time) {
            let own = (s.end - s.start).saturating_sub(*child).as_secs_f64();
            *out.entry(s.name.clone()).or_insert(0.0) += own;
        }
        out
    }

    /// Perfetto-loadable JSON: one complete (`"ph":"X"`) event per span,
    /// one track per circuit or job id.
    pub fn to_perfetto(&self) -> String {
        let events: Vec<serde_json::Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                serde_json::json!({
                    "name": (s.name.clone()),
                    "cat": (s.name.split('.').next().unwrap_or("bench").to_string()),
                    "ph": "X",
                    "ts": (s.start.as_secs_f64() * 1e6),
                    "dur": ((s.end - s.start).as_secs_f64() * 1e6),
                    "pid": 1,
                    "tid": (s.id),
                    "args": { "span": i, "parent": (s.parent.map_or(-1, |p| p as i64)) },
                })
            })
            .collect();
        serde_json::to_string(
            &serde_json::json!({ "traceEvents": (serde_json::Value::Array(events)) }),
        )
        .expect("trace JSON serializes")
    }
}
