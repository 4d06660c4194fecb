//! In-memory span recorder for the traced pass (choosing-metrics §4): spans
//! are taken from the benchmark's own code, around the calls into each layer,
//! kept in memory, and written out when the run ends.

use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. `parent` indexes into the recorder's span list; spans
/// of one request share `request`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Single-threaded recorder: spans nest, so the innermost open span is the
/// parent of the next one.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span named `name` belonging to `request`; the innermost open
    /// span becomes its parent. Returns the handle [`exit`](Self::exit) takes.
    pub fn enter(&mut self, name: &str, request: u64) -> usize {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Close the span `id` (and any span opened inside it and left open).
    pub fn exit(&mut self, id: usize) {
        self.open.retain(|&open| open < id);
        self.spans[id].end_us = self.now_us();
    }

    /// Run `f` inside a span when `on`, as a plain call otherwise — the
    /// untraced pass runs the same code with recording off.
    pub fn scope_if<T>(&mut self, on: bool, name: &str, request: u64, f: impl FnOnce() -> T) -> T {
        if !on {
            return f();
        }
        let id = self.enter(name, request);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of that interval its
/// direct children cover (overlapping children are merged first).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_us.max(parent.start_us);
            let end = s.end_us.min(parent.end_us);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.partial_cmp(b).expect("span times are finite"));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (start, end) in kids {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            s.duration_us() - covered
        })
        .collect()
}

/// Durations (µs) of every span with the given name.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_us)
        .collect()
}

/// Total self time (µs) per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_us(spans)) {
        *out.entry(s.name.clone()).or_insert(0.0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_us: start,
            end_us: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_merged_children() {
        let spans = vec![
            span("request", 0.0, 100.0, None),
            span("submit", 10.0, 40.0, Some(0)),
            span("poll", 30.0, 60.0, Some(0)), // overlaps submit by 10
            span("json", 12.0, 20.0, Some(1)), // grandchild: only submit pays
        ];
        let own = self_times_us(&spans);
        assert_eq!(own, vec![50.0, 22.0, 30.0, 8.0]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["request"], 50.0);
    }

    #[test]
    fn spans_nest_and_link_parents() {
        let mut rec = Recorder::new();
        let outer = rec.enter("outer", 7);
        rec.scope_if(true, "inner", 7, || {});
        rec.scope_if(true, "inner", 7, || {});
        rec.scope_if(false, "unrecorded", 7, || {});
        rec.exit(outer);
        rec.scope_if(true, "other", 8, || {});
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert_eq!(spans[3].request, 8);
        assert!(spans[0].end_us >= spans[2].end_us);
        assert_eq!(durations_us(spans, "inner").len(), 2);
    }
}
