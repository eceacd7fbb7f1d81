//! Spans recorded by the benchmark around its own calls into each
//! crate: `{name, start, end, parent, request id}`, kept in memory and
//! written out when the run ends. A layer's number is its span's
//! *self time*: the span minus the part of it its children cover.

use crate::json::Json;

/// No parent: the span is the root of its request.
pub const ROOT: u32 = u32::MAX;

/// One span. Times are nanoseconds since the run started; `parent`
/// indexes the slice the span lives in ([`ROOT`] for none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.submit`.
    pub name: &'static str,
    /// Start, ns since run start.
    pub start: u64,
    /// End, ns since run start.
    pub end: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// Request id shared by every span of one request; control turns
    /// and probes count down from -1.
    pub request: i64,
}

impl Span {
    /// The span's duration.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of span `i` of `spans` (parents index into the same
/// slice): its duration minus the union of its children's intervals,
/// clipped to the span itself — overlapping children are not counted
/// twice and a child that overruns its parent cannot push self time
/// below zero. `scratch` is reused across calls, so the per-request
/// path allocates nothing in steady state.
pub fn self_time(spans: &[Span], i: usize, scratch: &mut Vec<(u64, u64)>) -> u64 {
    let parent = &spans[i];
    scratch.clear();
    scratch.extend(
        spans
            .iter()
            .filter(|s| s.parent as usize == i)
            .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
            .filter(|(a, b)| b > a),
    );
    scratch.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.start;
    for &(a, b) in scratch.iter() {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    parent.dur() - covered
}

/// The stored trace: a bounded sample of request trees plus every
/// control and probe span.
pub struct Trace {
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

impl Trace {
    /// A trace that stores at most `cap` spans.
    pub fn new(cap: usize) -> Self {
        Self {
            spans: Vec::with_capacity(cap.min(1 << 16)),
            cap,
            dropped: 0,
        }
    }

    /// Appends one tree whose `parent` fields index into `tree`
    /// itself; they are rebased onto the stored trace. A tree that
    /// does not fit is counted and dropped whole.
    pub fn push_tree(&mut self, tree: &[Span]) {
        if self.spans.len() + tree.len() > self.cap {
            self.dropped += 1;
            return;
        }
        let base = self.spans.len() as u32;
        self.spans.extend(tree.iter().map(|s| Span {
            parent: if s.parent == ROOT {
                ROOT
            } else {
                s.parent + base
            },
            ..*s
        }));
    }

    /// The stored spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file's content; `windows` rides along as given.
    pub fn to_json(&self, workload: &str, seed: u64, windows: Json) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::str(s.name)),
                    ("start", Json::Num(s.start as f64)),
                    ("end", Json::Num(s.end as f64)),
                    (
                        "parent",
                        if s.parent == ROOT {
                            Json::Null
                        } else {
                            Json::Num(f64::from(s.parent))
                        },
                    ),
                    ("request", Json::Num(s.request as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("clock", Json::str("ns since run start")),
            ("trees_dropped", Json::Num(self.dropped as f64)),
            ("windows", windows),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn self_times(spans: &[Span]) -> Vec<u64> {
        let mut scratch = Vec::new();
        (0..spans.len())
            .map(|i| self_time(spans, i, &mut scratch))
            .collect()
    }

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 7,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_what_children_cover() {
        // request 0..100: submit 0..10, wait 10..95;
        // wait's children: queue 10..30, service 30..80.
        let tree = [
            span("request", 0, 100, ROOT),
            span("serve.submit", 0, 10, 0),
            span("serve.wait", 10, 95, 0),
            span("serve.queue", 10, 30, 2),
            span("serve.service", 30, 80, 2),
        ];
        // request: 100 - (10 + 85) = 5; wait: 85 - (20 + 50) = 15.
        assert_eq!(self_times(&tree), vec![5, 10, 15, 20, 50]);
    }

    #[test]
    fn overlapping_and_overrunning_children_are_clipped() {
        let tree = [
            span("parent", 100, 200, ROOT),
            span("a", 90, 150, 0),  // starts early: 100..150 counts
            span("b", 140, 180, 0), // overlaps a: 150..180 counts
            span("c", 190, 260, 0), // overruns: 190..200 counts
            span("d", 300, 400, 0), // outside: nothing counts
        ];
        assert_eq!(self_times(&tree)[0], 100 - (50 + 30 + 10));
        // A child covering the whole parent leaves zero, never less.
        let tree = [span("p", 10, 20, ROOT), span("k", 0, 50, 0)];
        assert_eq!(self_times(&tree)[0], 0);
    }

    #[test]
    fn stored_trees_are_rebased_and_bounded() {
        let mut t = Trace::new(5);
        let tree = [span("request", 0, 9, ROOT), span("x", 1, 2, 0)];
        t.push_tree(&tree);
        t.push_tree(&tree);
        t.push_tree(&tree); // 6 > cap: dropped whole
        assert_eq!(t.spans().len(), 4);
        assert_eq!(t.spans()[3].parent, 2);
        assert_eq!(t.spans()[2].parent, ROOT);
        let doc = t.to_json("w", 1, Json::Arr(Vec::new()));
        assert_eq!(doc.get("trees_dropped").and_then(Json::as_f64), Some(1.0));
    }
}
