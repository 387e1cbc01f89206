//! In-memory span recorder for the traced run.
//!
//! The harness wraps every call it makes into a layer crate in a span
//! {name, start, end, parent, op}; spans stay in memory and are written
//! to `benchmark/out/trace-<workload>.json` when the run ends. A layer's
//! *self time* is its span's duration minus the part of that interval its
//! child spans cover — here children never overlap each other (one
//! thread, strict nesting), so that part is the sum of their durations.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `"cir.parse"`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (point or job) this span belongs to.
    pub op: u64,
}

impl Span {
    /// Wall duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals derived from a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean duration per span in microseconds (0.0 when none ran).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Self time of every span: duration minus the durations of its direct
/// children, in span order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(own) {
        let t = out.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// The recorder. Single-threaded; interior mutability lets a span be
/// opened inside a closure that another open span is timing (the cache's
/// compute callbacks run inside the cache-lookup span).
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    op: RefCell<u64>,
    counts: RefCell<BTreeMap<&'static str, (f64, u64)>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            op: RefCell::new(0),
            counts: RefCell::new(BTreeMap::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&self, op: u64) {
        *self.op.borrow_mut() = op;
    }

    /// Times `f` as a span named `name`, nested under whichever span is
    /// open on this tracer.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                op: *self.op.borrow(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[index].end_ns = end;
        out
    }

    /// Records one observation of a count taken at a layer boundary
    /// (an IR size, a ratio's numerator), next to the span that produced
    /// it.
    pub fn count(&self, name: &'static str, value: f64) {
        let mut counts = self.counts.borrow_mut();
        let slot = counts.entry(name).or_insert((0.0, 0));
        slot.0 += value;
        slot.1 += 1;
    }

    /// Sum of the observations recorded under `name`.
    pub fn count_sum(&self, name: &str) -> f64 {
        self.counts.borrow().get(name).map_or(0.0, |c| c.0)
    }

    /// Mean of the observations recorded under `name` (0.0 when none).
    pub fn count_mean(&self, name: &str) -> f64 {
        match self.counts.borrow().get(name) {
            Some(&(sum, n)) if n > 0 => sum / n as f64,
            _ => 0.0,
        }
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// A copy of the spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// The whole trace as a JSON document: one array of
    /// `[name, start_ns, end_ns, parent (-1 = root), op]` rows, compact
    /// because a paper-scale trace is a few thousand spans and a
    /// `corpus_grid` one tens of thousands.
    pub fn to_json(&self, workload: &str) -> String {
        let spans = self.spans.borrow();
        let mut out = String::with_capacity(64 + spans.len() * 48);
        out.push_str(&format!(
            "{{\"workload\":\"{workload}\",\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"op\"],\"spans\":[\n"
        ));
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "[\"{}\",{},{},{},{}]{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.op,
                if i + 1 == spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100] > cache [10,60] > parse [20,50]; op > run [60,95]
        let spans = vec![
            span("op", 0, 100, None),
            span("cache", 10, 60, Some(0)),
            span("parse", 20, 50, Some(1)),
            span("run", 60, 95, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![15, 20, 30, 35]);
        // Self times partition the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span("op", 0, 10, None),
            span("parse", 2, 6, Some(0)),
            span("op", 10, 30, None),
            span("parse", 12, 20, Some(2)),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["op"],
            SpanTotals {
                count: 2,
                total_ns: 30,
                self_ns: 18
            }
        );
        assert_eq!(totals["parse"].total_ns, 12);
        assert_eq!(totals["parse"].self_ns, 12);
        assert_eq!(totals["parse"].mean_us(), 0.006);
    }

    #[test]
    fn tracer_nests_and_stamps_ops() {
        let t = Tracer::default();
        t.set_op(7);
        let got = t.span("outer", || t.span("inner", || 41) + 1);
        assert_eq!(got, 42);
        t.set_op(8);
        t.span("next", || ());
        let all = t.spans();
        assert_eq!((all.len(), t.len()), (3, 3));
        assert_eq!((all[0].name, all[0].parent, all[0].op), ("outer", None, 7));
        assert_eq!((all[1].name, all[1].parent), ("inner", Some(0)));
        assert!(all[0].start_ns <= all[1].start_ns && all[1].end_ns <= all[0].end_ns);
        assert_eq!((all[2].name, all[2].parent, all[2].op), ("next", None, 8));
        assert!(t.to_json("w").contains("[\"inner\","));
        t.count("n", 2.0);
        t.count("n", 4.0);
        assert_eq!((t.count_sum("n"), t.count_mean("n")), (6.0, 3.0));
        assert_eq!(t.count_mean("absent"), 0.0);
    }
}
