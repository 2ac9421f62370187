//! The traced pass's span recorder.
//!
//! Spans are `{id, parent, name, workload, start_ns, end_ns}` records
//! taken by the benchmark around its calls into the program (scenario
//! build, `WorldSpec::build`, `World::run`, every driver). They are
//! kept in memory and written once, when the run ends. The program
//! itself records no per-call timestamps: its stage profiler reports
//! `{calls, self_ns}` totals, which attach to the `World::run` span as
//! synthetic children placed back to back from the parent's start.

use rlive_bench::perf::Json;
use std::time::Instant;

/// One closed (or still open, `end_ns == start_ns`) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls folded into this span (1 for a real span; the stage's call
    /// count for a synthetic stage child).
    pub calls: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span log of one traced run.
#[derive(Debug)]
pub struct SpanLog {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    /// Ids of the spans opened and not yet closed, innermost last.
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new(workload: &str) -> Self {
        SpanLog {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span and returns its id.
    pub fn enter(&mut self, name: &str) -> usize {
        let now = self.now_ns();
        let id = self.push(name, self.open.last().copied(), now, now, 1);
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Attaches a stage-profiler row to the closed span `parent` as a
    /// synthetic child of `self_ns` duration. Children are laid back to
    /// back from the parent's start so that the parent's self time is
    /// its duration minus the stages' self times.
    pub fn attach_stage(&mut self, parent: usize, name: &str, calls: u64, self_ns: u64) {
        let start = self
            .children(parent)
            .map(|c| c.end_ns)
            .max()
            .unwrap_or(self.spans[parent].start_ns);
        self.push(name, Some(parent), start, start + self_ns, calls);
    }

    fn push(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
        calls: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
            calls,
        });
        id
    }

    fn children(&self, id: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    #[cfg(test)]
    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// A span's self time: its duration minus its children's durations.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self.children(id).map(Span::duration_ns).sum();
        self.spans[id].duration_ns().saturating_sub(children)
    }

    /// The whole log as a JSON array, one object per span.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("id".into(), Json::Num(s.id as f64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("name".into(), Json::Str(s.name.clone())),
                        ("workload".into(), Json::Str(self.workload.clone())),
                        ("start_ns".into(), Json::Num(s.start_ns as f64)),
                        ("end_ns".into(), Json::Num(s.end_ns as f64)),
                        ("calls".into(), Json::Num(s.calls as f64)),
                        ("self_ns".into(), Json::Num(self.self_ns(s.id) as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a log with hand-set times so the arithmetic is exact.
    fn log(spans: &[(Option<usize>, u64, u64)]) -> SpanLog {
        let mut log = SpanLog::new("t");
        for (i, &(parent, start_ns, end_ns)) in spans.iter().enumerate() {
            log.spans.push(Span {
                id: i,
                parent,
                name: format!("s{i}"),
                start_ns,
                end_ns,
                calls: 1,
            });
        }
        log
    }

    #[test]
    fn zero_child_span_is_all_self_time() {
        let l = log(&[(None, 10, 110)]);
        assert_eq!(l.self_ns(0), 100);
    }

    #[test]
    fn nested_children_subtract_only_from_their_parent() {
        // root 0..100 ⊃ a 10..60 ⊃ b 20..50
        let l = log(&[(None, 0, 100), (Some(0), 10, 60), (Some(1), 20, 50)]);
        assert_eq!(l.self_ns(0), 50, "grandchild must not count twice");
        assert_eq!(l.self_ns(1), 20);
        assert_eq!(l.self_ns(2), 30);
    }

    #[test]
    fn sibling_children_add_up() {
        let l = log(&[(None, 0, 100), (Some(0), 0, 30), (Some(0), 40, 90)]);
        assert_eq!(l.self_ns(0), 20);
    }

    #[test]
    fn stage_rows_stack_back_to_back_under_the_run_span() {
        let mut l = log(&[(None, 1_000, 2_000)]);
        l.attach_stage(0, "scheduler_call", 7, 600);
        l.attach_stage(0, "reorder_drain", 3, 150);
        assert_eq!((l.span(1).start_ns, l.span(1).end_ns), (1_000, 1_600));
        assert_eq!((l.span(2).start_ns, l.span(2).end_ns), (1_600, 1_750));
        assert_eq!(l.span(1).calls, 7);
        assert_eq!(l.self_ns(0), 250);
    }

    #[test]
    fn scope_nests_and_closes_in_order() {
        let mut l = SpanLog::new("t");
        let outer = l.enter("outer");
        let inner = l.scope("inner", || 5);
        assert_eq!(inner, 5);
        l.exit(outer);
        assert_eq!(l.span(1).parent, Some(outer));
        assert!(l.span(outer).end_ns >= l.span(1).end_ns);
        assert!(l.open.is_empty());
        let rendered = l.to_json().render().unwrap();
        assert!(Json::parse(&rendered).is_ok());
    }
}
