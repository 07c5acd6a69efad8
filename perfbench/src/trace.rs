//! In-memory spans recorded by the benchmark around its calls into the
//! service's public entry points, and the self-time arithmetic over them.
//!
//! A span's self time is its duration minus the part of its interval
//! that its children cover (overlapping children are counted once, and
//! a child's time outside the parent is ignored).

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `engine.run_batch`.
    pub name: &'static str,
    /// The request this span belongs to; shared by all its spans.
    pub request: u64,
    /// Unique span id.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// One client's span buffer. Ids are unique across tracers built with
/// distinct `lane`s, so buffers merge without renumbering.
pub struct Tracer {
    epoch: Instant,
    lane: u64,
    next: u64,
    /// Recorded spans, in completion order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer timing against `epoch`.
    pub fn new(epoch: Instant, lane: u64) -> Tracer {
        Tracer {
            epoch,
            lane,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        nanos_since(self.epoch, Instant::now())
    }

    /// A fresh span id, for a parent recorded after its children.
    pub fn reserve(&mut self) -> u64 {
        self.next += 1;
        (self.lane << 40) | self.next
    }

    /// Records a span under a reserved id.
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start: u64,
        end: u64,
    ) {
        self.spans.push(Span {
            name,
            request,
            id,
            parent,
            start,
            end,
        });
    }

    /// Records a span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start: u64,
        end: u64,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, request, parent, start, end);
        id
    }
}

/// Nanoseconds from `epoch` to `at` (0 if `at` is earlier).
pub fn nanos_since(epoch: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(epoch).as_nanos() as u64
}

/// Self time of every span, index-aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start, span.end));
        }
    }
    spans
        .iter()
        .map(|span| {
            let covered = children
                .get(&span.id)
                .map_or(0, |intervals| covered(intervals, span.start, span.end));
            span.duration() - covered
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Writes spans as tab-separated lines with their self times.
pub fn dump(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "request\tid\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
    for (span, self_ns) in spans.iter().zip(selfs) {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            span.request,
            span.id,
            span.parent.map_or("-".to_string(), |p| p.to_string()),
            span.name,
            span.start,
            span.end,
            self_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            name: "t",
            request: 1,
            id,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, 0, 100),
            // Overlapping children count once: [10, 50].
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),
            // Clipped to the parent: [90, 100].
            span(4, Some(1), 90, 120),
            // A grandchild reduces its parent only.
            span(5, Some(2), 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6]);
    }

    #[test]
    fn disjoint_and_nested_children() {
        let spans = vec![
            span(1, None, 100, 200),
            span(2, Some(1), 100, 110),
            span(3, Some(1), 150, 160),
            span(4, Some(1), 152, 158),
            span(5, Some(1), 300, 400),
        ];
        assert_eq!(self_times(&spans)[0], 80);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span(7, None, 5, 9)]), vec![4]);
    }

    #[test]
    fn tracer_ids_are_unique_across_lanes() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, 0);
        let mut b = Tracer::new(epoch, 1);
        let ids = [
            a.record("x", 0, None, 0, 1),
            a.record("x", 0, None, 0, 1),
            b.record("x", 0, None, 0, 1),
        ];
        assert_ne!(ids[0], ids[1]);
        assert_ne!(ids[0], ids[2]);
        assert_ne!(ids[1], ids[2]);
    }
}
