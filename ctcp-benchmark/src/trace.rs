//! Spans recorded from the benchmark's own code around its calls into
//! each layer, kept in memory and written as a Chrome trace when the
//! run ends. A disabled tracer records nothing.

use ctcp_telemetry::json::Value;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name: `layer.call`, e.g. `harness.batch`.
    pub name: String,
    /// Start, µs since the tracer was created.
    pub start_us: f64,
    /// End, µs since the tracer was created.
    pub end_us: f64,
    /// Identifier, unique within the run (1-based).
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// The thread lane the span belongs to (0: main, 1+: clients).
    pub lane: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// An in-memory span store.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64() * 1e6
    }

    /// Records a span over `[start, end]` and returns its id (0 when
    /// tracing is off).
    pub fn record(
        &mut self,
        name: &str,
        parent: u64,
        lane: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            name: name.to_string(),
            start_us: self.us(start),
            end_us: self.us(end),
            id,
            parent,
            lane,
        });
        id
    }

    /// Durations in ms of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self time in ms of every span called `name`: its duration minus
    /// the part of its interval its children cover.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let mut kids: Vec<(f64, f64)> = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == s.id)
                    .map(|c| (c.start_us.max(s.start_us), c.end_us.min(s.end_us)))
                    .filter(|(a, b)| b > a)
                    .collect();
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let (mut covered, mut reach) = (0.0, s.start_us);
                for (a, b) in kids {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_us - s.start_us - covered) / 1e3
            })
            .collect()
    }

    /// The spans as a Chrome trace-event JSON array: one complete
    /// (`"X"`) event per span, `tid` = lane, id and parent in `args`.
    pub fn chrome_json(&self) -> String {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Value::Obj(vec![
                    ("name".into(), Value::str(&s.name)),
                    ("cat".into(), Value::str("bench")),
                    ("ph".into(), Value::str("X")),
                    ("ts".into(), Value::f64(s.start_us)),
                    ("dur".into(), Value::f64(s.end_us - s.start_us)),
                    ("pid".into(), Value::u64(0)),
                    ("tid".into(), Value::u64(s.lane)),
                    (
                        "args".into(),
                        Value::Obj(vec![
                            ("id".into(), Value::u64(s.id)),
                            ("parent".into(), Value::u64(s.parent)),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::Arr(events).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let mut t = Tracer::new(true);
        let at = |ms: u64| t.t0 + Duration::from_millis(ms);
        let (a, b, c, d, e) = (at(0), at(10), at(30), at(40), at(100));
        let root = t.record("harness.batch", 0, 0, a, e);
        t.record("sim.cell", root, 0, b, c);
        t.record("sim.cell", root, 0, b, d); // overlaps the first child
        let self_ms = t.self_times("harness.batch");
        assert_eq!(self_ms.len(), 1);
        assert!((self_ms[0] - 70.0).abs() < 1e-6, "{self_ms:?}");
        assert_eq!(t.durations("sim.cell").len(), 2);
        let v = Value::parse(&t.chrome_json()).unwrap();
        assert_eq!(v.as_arr().unwrap().len(), 3);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("x", 0, 0, now, now), 0);
        assert!(t.durations("x").is_empty());
    }
}
