//! In-memory spans for the traced run.
//!
//! The benchmark wraps each call into a crate's public functions in a
//! span (`name, start, end, parent`); nothing inside the crates is
//! instrumented. Spans are kept in memory and written once, as Chrome
//! trace-event JSON, when the run ends. A span's *self time* is its
//! duration minus the part its direct children cover.

use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Tracer {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// A leaf span: the common case of one call into one layer.
    pub fn leaf<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.span(name, |_| f())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration minus the interval covered by direct children. Children of
    /// one parent never overlap (one thread, strictly nested), so their
    /// cover is the sum of their durations.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_ns)
            .sum();
        self.spans[id].dur_ns().saturating_sub(children)
    }

    /// Durations (ns) of every span called `name`, in start order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Chrome trace-event JSON (`chrome://tracing`, `ui.perfetto.dev`):
    /// one complete ("X") event per span, timestamps in microseconds.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"workload\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}}}",
                json_str(&s.name),
                json_str(s.name.split('.').next().unwrap_or("")),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                json_str(&self.workload),
                s.start_ns,
                s.end_ns,
                self.self_ns(i),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A JSON string literal, by the repository's own encoder.
pub fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("a string always encodes")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build spans by hand so the arithmetic is exact.
    fn tracer(spans: &[(&str, u64, u64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::new("unit");
        t.spans = spans
            .iter()
            .map(|&(name, start_ns, end_ns, parent)| Span {
                name: name.to_string(),
                start_ns,
                end_ns,
                parent,
            })
            .collect();
        t
    }

    #[test]
    fn self_time_subtracts_sibling_children_but_not_grandchildren() {
        let t = tracer(&[
            ("verb", 0, 100, None),
            ("a", 10, 30, Some(0)),
            ("b", 40, 90, Some(0)),
            ("b.inner", 50, 60, Some(2)),
        ]);
        assert_eq!(t.self_ns(0), 100 - 20 - 50, "both siblings count once");
        assert_eq!(t.self_ns(2), 50 - 10);
        assert_eq!(t.self_ns(1), 20, "a leaf's self time is its duration");
        assert_eq!(t.self_ns(3), 10);
    }

    #[test]
    fn nested_calls_record_their_parent_and_close_in_order() {
        let mut t = Tracer::new("unit");
        let got = t.span("outer", |t| {
            t.leaf("first", || ());
            t.span("second", |t| t.leaf("deep", || 7))
        });
        assert_eq!(got, 7);
        let names: Vec<&str> = t.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["outer", "first", "second", "deep"]);
        let parents: Vec<Option<usize>> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        for s in t.spans() {
            assert!(s.start_ns <= s.end_ns);
        }
        let outer = &t.spans()[0];
        let deep = &t.spans()[3];
        assert!(outer.start_ns <= deep.start_ns && deep.end_ns <= outer.end_ns);
    }

    #[test]
    fn durations_select_by_name() {
        let t = tracer(&[("q", 0, 5, None), ("r", 5, 6, None), ("q", 6, 9, None)]);
        assert_eq!(t.durations_ns("q"), [5.0, 3.0]);
        assert!(t.durations_ns("absent").is_empty());
    }

    #[test]
    fn chrome_json_parses_and_carries_parent_links() {
        let t = tracer(&[
            ("mpsim.run", 1000, 3000, None),
            ("x\"y", 1500, 2000, Some(0)),
        ]);
        let v = serde_json::value_from_str(&t.to_chrome_json()).expect("valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("cat").and_then(|c| c.as_str()), Some("mpsim"));
        assert_eq!(events[1].get("name").and_then(|c| c.as_str()), Some("x\"y"));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(|p| p.as_u64()), Some(0));
        assert_eq!(args.get("self_ns").and_then(|p| p.as_u64()), Some(500));
    }
}
