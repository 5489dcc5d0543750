//! In-memory span recorder, self-time roll-up and trace writer.
//!
//! Spans are recorded from the benchmark's side of each layer boundary —
//! around the calls it makes into the crates — kept in memory while the
//! run is timed, and written out once at exit.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.  `parent` indexes the recorder's span list;
/// spans of one request share `request`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A span list with a shared time origin.  Each client thread owns one
/// (no lock on the timed path); [`Recorder::absorb`] merges them.
#[derive(Debug, Clone)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread, on the same clock.
    pub fn sibling(&self) -> Recorder {
        Recorder::new(self.origin)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Record a finished interval; returns its index, usable as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
            end_us: end.duration_since(self.origin).as_secs_f64() * 1e6,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Append another recorder's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per span: its duration minus the part of its interval that
    /// its child spans cover (overlapping children are not counted twice).
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                let parent = &self.spans[p];
                let start = span.start_us.max(parent.start_us);
                let end = span.end_us.min(parent.end_us);
                if end > start {
                    children[p].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = f64::NEG_INFINITY;
                for (start, end) in kids {
                    if end > reach {
                        covered += end - start.max(reach);
                        reach = end;
                    }
                }
                span.duration_us() - covered
            })
            .collect()
    }

    /// Per span name: how many spans, their total duration and their total
    /// self time, in microseconds.
    pub fn roll_up(&self) -> BTreeMap<&'static str, RollUp> {
        let mut by_name: BTreeMap<&'static str, RollUp> = BTreeMap::new();
        for (span, self_us) in self.spans.iter().zip(self.self_times_us()) {
            let entry = by_name.entry(span.name).or_default();
            entry.count += 1;
            entry.total_us += span.duration_us();
            entry.self_us += self_us;
        }
        by_name
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_us() / 1e3)
            .collect()
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.name.to_string())),
                    ("start_us", Json::Num(s.start_us)),
                    ("end_us", Json::Num(s.end_us)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("request", Json::Num(s.request as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::Str(workload.to_string())),
            ("seed", Json::Num(seed as f64)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RollUp {
    pub count: usize,
    pub total_us: f64,
    pub self_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(origin: Instant, us: u64) -> Instant {
        origin + Duration::from_micros(us)
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let origin = Instant::now();
        let mut rec = Recorder::new(origin);
        let root = rec.record("request", at(origin, 0), at(origin, 100), None, 7);
        // Two children overlapping on [30, 40], one grandchild, and a child
        // that overruns its parent's end.
        let plan = rec.record("plan", at(origin, 10), at(origin, 40), Some(root), 7);
        rec.record("run", at(origin, 30), at(origin, 60), Some(root), 7);
        rec.record("solve", at(origin, 15), at(origin, 25), Some(plan), 7);
        rec.record("late", at(origin, 90), at(origin, 120), Some(root), 7);
        let selfs = rec.self_times_us();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-6;
        // Children cover [10, 60] and [90, 100] of the root's 100 µs.
        assert!(close(selfs[0], 40.0), "{selfs:?}");
        assert!(close(selfs[1], 20.0), "{selfs:?}");
        assert!(close(selfs[2], 30.0), "{selfs:?}");
        assert!(close(selfs[3], 10.0), "{selfs:?}");
        let roll = rec.roll_up();
        assert_eq!(roll["request"].count, 1);
        assert!(close(roll["plan"].total_us, 30.0));
        assert!(close(roll["plan"].self_us, 20.0));
    }

    #[test]
    fn absorbing_a_sibling_rebases_parents() {
        let origin = Instant::now();
        let mut main = Recorder::new(origin);
        main.record("a", at(origin, 0), at(origin, 10), None, 1);
        let mut other = main.sibling();
        let root = other.record("b", at(origin, 0), at(origin, 10), None, 2);
        other.record("c", at(origin, 2), at(origin, 4), Some(root), 2);
        main.absorb(other);
        assert_eq!(main.spans()[2].parent, Some(1));
        assert_eq!(main.spans()[2].request, 2);
        let json = main.to_json("w", 3).to_string();
        assert!(json.contains("\"name\": \"c\""));
        assert!(crate::json::Json::parse(&json).is_ok());
    }
}
