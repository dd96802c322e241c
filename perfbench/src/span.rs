//! In-memory spans recorded around calls into the workspace's layers.
//!
//! A span has a name, a start, an end and the span that was open when it
//! started (its parent). Spans are kept in memory for the whole traced run
//! and written out when it ends. A span's *self time* is its duration minus
//! the part of its interval that its children cover; overlapping children
//! are merged first, so concurrent children are not subtracted twice.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span, with times in nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span under the innermost open span; close it with [`exit`](Self::exit).
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// Self time of every span, in nanoseconds, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// Per root span (one measured round): the summed self time of every
/// span name in its subtree, in nanoseconds. Roots are returned in
/// recording order.
pub fn self_time_by_round(spans: &[Span]) -> Vec<BTreeMap<&'static str, u64>> {
    let selfs = self_times(spans);
    let mut root_of = vec![0usize; spans.len()];
    let mut rounds: Vec<BTreeMap<&'static str, u64>> = Vec::new();
    let mut round_index = BTreeMap::new();
    // Parents are always recorded before their children.
    for (i, s) in spans.iter().enumerate() {
        root_of[i] = match s.parent {
            Some(p) => root_of[p],
            None => {
                round_index.insert(i, rounds.len());
                rounds.push(BTreeMap::new());
                i
            }
        };
        *rounds[round_index[&root_of[i]]].entry(s.name).or_insert(0) += selfs[i];
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = [
            span("round", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 60, Some(0)),
            span("a.inner", 15, 25, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn overlapping_children_are_merged_not_double_counted() {
        let spans = [
            span("round", 0, 100, None),
            span("w1", 10, 60, Some(0)),
            span("w2", 40, 90, Some(0)),
            span("w3", 45, 50, Some(0)),
        ];
        // Children cover [10, 90]: 80 ns, not 50 + 50 + 5.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = [span("p", 10, 20, None), span("c", 5, 30, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 25]);
    }

    #[test]
    fn rounds_sum_self_time_by_name_and_add_up_to_wall() {
        let spans = [
            span("round", 0, 100, None),
            span("x", 0, 30, Some(0)),
            span("x", 30, 50, Some(0)),
            span("round", 200, 260, None),
            span("y", 210, 220, Some(3)),
        ];
        let rounds = self_time_by_round(&spans);
        assert_eq!(rounds.len(), 2);
        assert_eq!(rounds[0]["x"], 50);
        assert_eq!(rounds[0]["round"], 50);
        assert_eq!(rounds[1]["y"], 10);
        assert_eq!(rounds[1]["round"], 50);
        for (r, wall) in rounds.iter().zip([100, 60]) {
            assert_eq!(r.values().sum::<u64>(), wall);
        }
    }

    #[test]
    fn tracer_records_parents_and_order() {
        let mut t = Tracer::new();
        let root = t.enter("round");
        let v = t.time("leaf", || 7);
        t.exit(root);
        assert_eq!(v, 7);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }
}
