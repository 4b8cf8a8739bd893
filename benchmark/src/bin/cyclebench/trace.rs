//! Outside-in span recorder.
//!
//! The harness wraps each call it makes into a layer's public function in a
//! span; nothing inside the program is instrumented. Spans are kept in
//! memory, one [`Tracer`] per rank lane so that recording takes no lock, and
//! are merged, summarised and written out only after the traced pass ends.

use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Boundary name (`cycle`, `forecast`, ...).
    pub name: &'static str,
    /// Start, seconds since the tracer's epoch.
    pub start: f64,
    /// End, seconds since the tracer's epoch.
    pub end: f64,
    /// Index (in the same lane) of the span that was open when this began.
    pub parent: Option<usize>,
    /// Assimilation cycle the span belongs to: the request identifier.
    pub cycle: usize,
    /// Rank lane.
    pub lane: usize,
}

impl Span {
    /// Wall duration in seconds.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Records the spans of one lane. Nesting follows the call structure: a
/// span opened inside another's closure becomes its child.
pub struct Tracer {
    epoch: Instant,
    lane: usize,
    cycle: usize,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for `lane`; all lanes of one pass share `epoch`.
    pub fn new(lane: usize, epoch: Instant) -> Self {
        Tracer {
            epoch,
            lane,
            cycle: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Sets the cycle id stamped on spans opened from now on.
    pub fn set_cycle(&mut self, cycle: usize) {
        self.cycle = cycle;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            cycle: self.cycle,
            lane: self.lane,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// The recorded spans, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span of one lane: its duration minus the part of it
/// that its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur();
        }
    }
    own
}

/// Per-cycle durations of the spans called `name` in one lane (a cycle's
/// spans of that name are summed), indexed by cycle.
pub fn per_cycle(spans: &[Span], name: &str, cycles: usize) -> Vec<f64> {
    let mut out = vec![0.0; cycles];
    for s in spans.iter().filter(|s| s.name == name) {
        out[s.cycle] += s.dur();
    }
    out
}

/// Per-cycle self time of the spans called `name` in one lane.
pub fn per_cycle_self(spans: &[Span], name: &str, cycles: usize) -> Vec<f64> {
    let own = self_times(spans);
    let mut out = vec![0.0; cycles];
    for (s, t) in spans.iter().zip(own).filter(|(s, _)| s.name == name) {
        out[s.cycle] += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            cycle: 0,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // cycle [0,10] ⊃ forecast [1,4] · analysis [4,9] ⊃ gemm [5,7]
        let spans = [
            span("cycle", 0.0, 10.0, None),
            span("forecast", 1.0, 4.0, Some(0)),
            span("analysis", 4.0, 9.0, Some(0)),
            span("gemm", 5.0, 7.0, Some(2)),
        ];
        // Only direct children count: the grandchild is already inside
        // `analysis`, so the cycle's own time is 10 − 3 − 5.
        assert_eq!(self_times(&spans), vec![2.0, 3.0, 3.0, 2.0]);
    }

    #[test]
    fn tracer_nests_by_call_structure_and_stamps_cycles() {
        let mut tr = Tracer::new(1, Instant::now());
        for cycle in 0..2 {
            tr.set_cycle(cycle);
            tr.span("cycle", |tr| {
                tr.span("forecast", |_| ());
                tr.span("verify", |tr| tr.span("mean", |_| ()));
            });
        }
        let spans = tr.into_spans();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.cycle)).collect();
        assert_eq!(
            shape,
            vec![
                ("cycle", None, 0),
                ("forecast", Some(0), 0),
                ("verify", Some(0), 0),
                ("mean", Some(2), 0),
                ("cycle", None, 1),
                ("forecast", Some(4), 1),
                ("verify", Some(4), 1),
                ("mean", Some(6), 1),
            ]
        );
        assert!(spans.iter().all(|s| s.lane == 1 && s.end >= s.start));
        // A parent covers its children, so no self time is negative.
        assert!(self_times(&spans).iter().all(|&t| t >= 0.0));
        assert_eq!(per_cycle(&spans, "forecast", 2).len(), 2);
    }

    #[test]
    fn per_cycle_sums_same_named_spans_of_a_cycle() {
        let mut a = span("gather", 0.0, 1.0, None);
        let mut b = span("gather", 2.0, 2.5, None);
        let mut c = span("gather", 3.0, 4.0, None);
        a.cycle = 0;
        b.cycle = 0;
        c.cycle = 1;
        assert_eq!(per_cycle(&[a, b, c], "gather", 2), vec![1.5, 1.0]);
    }
}
