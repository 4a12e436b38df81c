//! In-memory spans recorded around the benchmark's own calls into each
//! layer, and the self-time arithmetic over them.
//!
//! A span's self time is its duration minus the part of its interval
//! that its child spans cover. Children of a batch span run on several
//! workers and overlap, so coverage is the measure of the union of the
//! child intervals, not their sum.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name (`build`, `engine`, `compile`, `verify`, ...).
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the parent span in the same list.
    pub parent: Option<usize>,
    /// Op the span belongs to (spans outside any op use `u64::MAX`).
    pub op: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Spans of one op or one set-up, built with parent indices local to
/// the list, later appended to a larger list with [`SpanList::adopt`].
/// A list made by [`Default`] is off and records nothing, so untraced
/// runs pay no more than the clock reads their latencies need.
#[derive(Debug, Clone, Default)]
pub struct SpanList {
    pub spans: Vec<Span>,
    on: bool,
}

impl SpanList {
    /// A list that records when `on`.
    pub fn new(on: bool) -> SpanList {
        SpanList { spans: Vec::new(), on }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Record a span; returns its index for use as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        if self.on {
            self.spans.push(Span { name, start, end, parent, op });
        }
        self.spans.len().saturating_sub(1)
    }

    /// Append `other`, re-indexing its parents; its roots become
    /// children of `parent`.
    pub fn adopt(&mut self, other: SpanList, parent: Option<usize>) {
        if !self.on {
            return;
        }
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = match s.parent {
                Some(p) => Some(p + base),
                None => parent,
            };
            s
        }));
    }

    /// Self time of every span, in list order.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut cover: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&k| (self.spans[k].start.max(s.start), self.spans[k].end.min(s.end)))
                    .filter(|(a, b)| b > a)
                    .collect();
                s.dur() - union_len(&mut cover)
            })
            .collect()
    }

    /// Self time summed per layer name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0) += t;
        }
        out
    }

    /// Total (not self) duration summed per layer name.
    pub fn total_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += s.dur();
        }
        out
    }

    /// Write the spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = if s.op == u64::MAX { "null".to_string() } else { s.op.to_string() };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{op}}}",
                s.name, s.start, s.end
            )?;
        }
        Ok(())
    }
}

/// Measure of the union of half-open intervals.
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut l = SpanList::new(true);
        let op = l.push("op", 0, 100, None, 0);
        l.push("build", 0, 20, Some(op), 0);
        let run = l.push("engine", 20, 70, Some(op), 0);
        l.push("compile", 20, 30, Some(run), 0);
        l.push("verify", 70, 95, Some(op), 0);
        assert_eq!(l.self_times(), vec![5, 20, 40, 10, 25]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(l.self_times().iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_once() {
        // A batch span whose ops ran on two workers at once.
        let mut l = SpanList::new(true);
        let batch = l.push("batch", 0, 100, None, u64::MAX);
        l.push("op", 0, 60, Some(batch), 0);
        l.push("op", 10, 80, Some(batch), 1);
        l.push("op", 85, 90, Some(batch), 2);
        assert_eq!(l.self_times()[0], 100 - 80 - 5);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A compile child placed from a reported duration can overrun.
        let mut l = SpanList::new(true);
        let run = l.push("engine", 10, 20, None, 0);
        l.push("compile", 15, 40, Some(run), 0);
        assert_eq!(l.self_times(), vec![5, 25]);
    }

    #[test]
    fn adopt_reindexes_parents_and_aggregates_by_name() {
        let mut op = SpanList::new(true);
        let root = op.push("op", 0, 10, None, 3);
        op.push("verify", 2, 6, Some(root), 3);
        let mut all = SpanList::new(true);
        let batch = all.push("batch", 0, 10, None, u64::MAX);
        all.adopt(op.clone(), Some(batch));
        all.adopt(op, Some(batch));
        assert_eq!(all.spans[2].parent, Some(1));
        assert_eq!(all.spans[4].parent, Some(3));
        let by = all.self_by_name();
        assert_eq!((by["batch"], by["op"], by["verify"]), (0, 12, 8));
        assert_eq!(all.total_by_name()["op"], 20);
    }
}
