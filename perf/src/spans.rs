//! Harness-side spans for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around the calls
//! into each layer (spans inside the program are a later change). They
//! stay in memory and are written out only after the measurements are
//! done. A span's self time is its duration minus the part of it its
//! children (the spans naming it as `parent`) cover.

use std::time::Instant;

use crate::json::Json;

/// One recorded span. Times are nanoseconds since the log's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What ran (`build`, `run`, `probe:types.wire`, …).
    pub name: String,
    /// Start, ns since the log was created.
    pub start_ns: u64,
    /// End, ns since the log was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// An append-only span log for one workload run.
#[derive(Debug)]
pub struct SpanLog {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// Starts an empty log for `workload`.
    #[must_use]
    pub fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_owned(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records `f` as a span named `name`, nested under whichever span
    /// is open; returns `f`'s result.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// All spans, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The log as JSON: `{workload, spans: [{name, start_ns, end_ns,
    /// parent, workload}]}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.name.clone())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("workload", Json::Str(self.workload.clone())),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::Str(self.workload.clone())),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_open_span() {
        let mut log = SpanLog::new("w");
        log.span("rep", |log| {
            log.span("build", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            log.span("run", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[1].end_ns <= spans[2].start_ns);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let json = log.to_json();
        assert_eq!(
            json.get("spans").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
    }
}
