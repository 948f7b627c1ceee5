//! An in-memory span recorder for the benchmark's own calls into each
//! layer, written out as Chrome trace JSON when the run ends.
//!
//! Spans nest by call order: a span opened while another is open is its
//! child.  A span's *self time* is its duration minus the time its children
//! cover.

use saguaro_sim::JsonValue;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<operation>`, e.g. `net.run_until`.
    pub name: &'static str,
    /// The cell the span belongs to (spans of one cell share it).
    pub cell: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in seconds since the recorder was created.
    pub start_s: f64,
    /// End, in seconds since the recorder was created.
    pub end_s: f64,
}

impl Span {
    /// The span's duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Records spans on one thread.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` for `cell`.  The recorder is
    /// handed to `f` so it can open child spans.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        cell: &'static str,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            cell,
            parent: self.open.last().copied(),
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: f64::NAN,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_s = self.origin.elapsed().as_secs_f64();
        result
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `index`: its duration minus its direct children's.
    pub fn self_time_s(&self, index: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(Span::duration_s)
            .sum();
        self.spans[index].duration_s() - children
    }

    /// Total duration of the spans called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_s)
            .sum()
    }

    /// The spans as Chrome trace-event JSON (complete `"X"` events, one
    /// thread; `args` carry the cell, the parent span and the self time).
    pub fn chrome_json(&self) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(index, span)| {
                let parent = span.parent.map_or(JsonValue::Null, |p| {
                    JsonValue::Str(self.spans[p].name.to_string())
                });
                JsonValue::object([
                    ("name", JsonValue::Str(span.name.to_string())),
                    ("cat", JsonValue::Str(span.cell.to_string())),
                    ("ph", JsonValue::Str("X".to_string())),
                    ("pid", JsonValue::Num(1.0)),
                    ("tid", JsonValue::Num(1.0)),
                    ("ts", JsonValue::Num(span.start_s * 1e6)),
                    ("dur", JsonValue::Num(span.duration_s() * 1e6)),
                    (
                        "args",
                        JsonValue::object([
                            ("cell", JsonValue::Str(span.cell.to_string())),
                            ("parent", parent),
                            ("self_us", JsonValue::Num(self.self_time_s(index) * 1e6)),
                        ]),
                    ),
                ])
            })
            .collect();
        JsonValue::object([("traceEvents", JsonValue::Array(events))]).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut rec = Recorder::new();
        rec.span("outer", "c", |rec| {
            rec.span("inner", "c", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            rec.span("inner", "c", |_| ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[1].duration_s() >= 0.005);
        assert!(rec.self_time_s(0) <= spans[0].duration_s() - 0.005 + 1e-9);
        assert!(rec.total_s("inner") >= 0.005);
        let json = JsonValue::parse(&rec.chrome_json()).expect("valid JSON");
        let JsonValue::Object(entries) = json else {
            panic!("not an object")
        };
        assert_eq!(entries[0].0, "traceEvents");
    }
}
