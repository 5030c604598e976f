//! The service metrics registry: one row per number the daemon reports
//! about itself.
//!
//! Each [`Row`] in [`ROWS`] declares a number once — its kind, help
//! text, `/metrics` family, `/status` key, and the one [`Source`] it
//! reads. One Prometheus renderer and one `/status` renderer loop over
//! the rows, and [`Service::run`](crate::Service::run) returns their
//! final [`Snapshot`], so adding a metric is one row here.
//!
//! Beside the rows render the request latency histogram (also kept by
//! [`Registry`]) and — in `/status` only — the live-request table and
//! the log tail, which the service builds.

use crate::service::{relock, HandlerStats};
use ctcp_telemetry::json::Value;
use ctcp_telemetry::series::{bucket_lower_ms, bucket_upper_ms, latency_bucket};
use ctcp_telemetry::{Histogram, SeriesWindow};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A number the service itself keeps, in one atomic slot per variant.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slot {
    /// Batch requests being handled; the only slot that goes down.
    InFlight,
    Requests,
    Queued,
    CacheHits,
    Rejected,
    JournalReplayed,
    ResumedStreams,
}

const SLOTS: usize = Slot::ResumedStreams as usize + 1;

/// Where a row's number comes from. Readings are `/status` values:
/// integers, ratios and flags render in `/metrics` as numbers.
pub(crate) enum Source {
    /// A slot the service increments.
    Slot(Slot),
    /// The handler's scheduler snapshot.
    Handler(fn(&HandlerStats) -> Value),
    /// The rolling window over the last [`ROLLING_WINDOW_S`] seconds.
    Window(fn(&SeriesWindow) -> Value),
}

/// Seconds the `/status.rolling` and `*_1m` numbers cover.
pub(crate) const ROLLING_WINDOW_S: u64 = 60;

/// Row kinds, named as Prometheus `# TYPE`s: cumulative since the
/// daemon started, or a point-in-time reading.
pub(crate) const COUNTER: &str = "counter";
const GAUGE: &str = "gauge";

/// The one declaration of a service number.
pub(crate) struct Row {
    pub(crate) kind: &'static str,
    /// `/metrics` family; `None` for numbers only `/status` carries.
    pub(crate) family: Option<&'static str>,
    /// `/status` key; `group.leaf` nests the leaf under `group`. Rows
    /// of one group are adjacent.
    pub(crate) key: &'static str,
    pub(crate) help: &'static str,
    pub(crate) source: Source,
}

/// Every number the service reports about itself, in document order.
pub(crate) static ROWS: [Row; 28] = [
    Row {
        kind: GAUGE,
        family: Some("ctcp_in_flight_requests"),
        key: "in_flight",
        help: "Batch requests currently being handled.",
        source: Source::Slot(Slot::InFlight),
    },
    Row {
        kind: GAUGE,
        family: Some("ctcp_workers"),
        key: "workers",
        help: "Resident pool worker threads.",
        source: Source::Handler(|h| Value::u64(h.workers as u64)),
    },
    Row {
        kind: GAUGE,
        family: Some("ctcp_queue_depth"),
        key: "queued_cells",
        help: "Cells queued, not yet running.",
        source: Source::Handler(|h| Value::u64(h.queued_cells as u64)),
    },
    Row {
        kind: GAUGE,
        family: Some("ctcp_running_cells"),
        key: "running_cells",
        help: "Cells executing right now.",
        source: Source::Handler(|h| Value::u64(h.running_cells as u64)),
    },
    Row {
        kind: GAUGE,
        family: Some("ctcp_worker_utilization"),
        key: "worker_utilization",
        help: "Running cells over pool size.",
        source: Source::Handler(|h| {
            Value::f64(if h.workers == 0 {
                0.0
            } else {
                h.running_cells as f64 / h.workers as f64
            })
        }),
    },
    Row {
        kind: GAUGE,
        family: Some("ctcp_store_read_only"),
        key: "store_read_only",
        help: "1 while the result store is degraded to read-only.",
        source: Source::Handler(|h| Value::Bool(h.read_only)),
    },
    Row {
        kind: GAUGE,
        family: Some("ctcp_checkpoint_cache_bytes"),
        key: "checkpoint_cache_bytes",
        help: "Bytes of warmup checkpoints the pool holds.",
        source: Source::Handler(|h| Value::u64(h.checkpoint_bytes)),
    },
    Row {
        kind: GAUGE,
        family: None,
        key: "rolling.window_s",
        help: "Seconds the rolling window covers.",
        source: Source::Window(|w| Value::u64(w.seconds)),
    },
    Row {
        kind: GAUGE,
        family: None,
        key: "rolling.cells",
        help: "Cells completed in the last minute.",
        source: Source::Window(|w| Value::u64(w.cells)),
    },
    Row {
        kind: GAUGE,
        family: Some("ctcp_requests_1m"),
        key: "rolling.requests",
        help: "Requests completed in the last minute.",
        source: Source::Window(|w| Value::u64(w.requests)),
    },
    Row {
        kind: GAUGE,
        family: Some("ctcp_cells_per_sec_1m"),
        key: "rolling.cells_per_sec",
        help: "Cell completions per second over the last minute.",
        source: Source::Window(|w| Value::f64(w.cells_per_sec())),
    },
    Row {
        kind: GAUGE,
        family: Some("ctcp_request_p95_ms_1m"),
        key: "rolling.p95_ms",
        help: "Request latency p95 over the last minute (bucket lower bound).",
        source: Source::Window(|w| Value::u64(w.req_percentile_ms(95.0))),
    },
    Row {
        kind: GAUGE,
        family: None,
        key: "rolling.p99_ms",
        help: "Request latency p99 over the last minute (bucket lower bound).",
        source: Source::Window(|w| Value::u64(w.req_percentile_ms(99.0))),
    },
    Row {
        kind: GAUGE,
        family: Some("ctcp_cell_p95_ms_1m"),
        key: "rolling.cell_p95_ms",
        help: "Cell latency p95 over the last minute (bucket lower bound).",
        source: Source::Window(|w| Value::u64(w.cell_percentile_ms(95.0))),
    },
    Row {
        kind: COUNTER,
        family: Some("ctcp_serve_requests_total"),
        key: "counters.serve_requests",
        help: "Requests accepted, all routes.",
        source: Source::Slot(Slot::Requests),
    },
    Row {
        kind: COUNTER,
        family: Some("ctcp_serve_queued_total"),
        key: "counters.serve_queued",
        help: "Batch requests admitted while another batch was in flight.",
        source: Source::Slot(Slot::Queued),
    },
    Row {
        kind: COUNTER,
        family: Some("ctcp_serve_cache_hits_total"),
        key: "counters.serve_cache_hits",
        help: "Sweep cells answered from the warm shared cache.",
        source: Source::Slot(Slot::CacheHits),
    },
    Row {
        kind: COUNTER,
        family: Some("ctcp_serve_rejected_total"),
        key: "counters.serve_rejected",
        help: "Batch requests refused with a 503.",
        source: Source::Slot(Slot::Rejected),
    },
    Row {
        kind: COUNTER,
        family: Some("ctcp_serve_journal_replayed_total"),
        key: "counters.serve_journal_replayed",
        help: "Journaled requests replayed headless after a restart.",
        source: Source::Slot(Slot::JournalReplayed),
    },
    Row {
        kind: COUNTER,
        family: Some("ctcp_serve_resumed_streams_total"),
        key: "counters.serve_resumed_streams",
        help: "Streams re-attached to an admitted batch.",
        source: Source::Slot(Slot::ResumedStreams),
    },
    Row {
        kind: COUNTER,
        family: Some("ctcp_serve_worker_respawns_total"),
        key: "counters.serve_worker_respawns",
        help: "Pool workers respawned after a panic.",
        source: Source::Handler(|h| Value::u64(h.respawns)),
    },
    Row {
        kind: COUNTER,
        family: Some("ctcp_serve_cells_poisoned_total"),
        key: "counters.serve_cells_poisoned",
        help: "Cells quarantined after repeated worker panics.",
        source: Source::Handler(|h| Value::u64(h.poisoned)),
    },
    Row {
        kind: COUNTER,
        family: Some("ctcp_serve_checkpoint_captures_total"),
        key: "counters.serve_checkpoint_captures",
        help: "Warmup checkpoints captured by the pool.",
        source: Source::Handler(|h| Value::u64(h.checkpoint_captures)),
    },
    Row {
        kind: COUNTER,
        family: Some("ctcp_serve_checkpoint_hits_total"),
        key: "counters.serve_checkpoint_hits",
        help: "Warmed cells that reused a captured checkpoint.",
        source: Source::Handler(|h| Value::u64(h.checkpoint_hits)),
    },
    Row {
        kind: GAUGE,
        family: Some("ctcp_journal_bytes"),
        key: "gauges.journal_bytes",
        help: "Bytes in the request journal.",
        source: Source::Handler(|h| Value::u64(h.journal_bytes)),
    },
    Row {
        kind: GAUGE,
        family: Some("ctcp_journal_compactions"),
        key: "gauges.journal_compactions",
        help: "Journal compactions since the daemon started.",
        source: Source::Handler(|h| Value::u64(h.journal_compactions)),
    },
    Row {
        kind: GAUGE,
        family: Some("ctcp_journal_live_requests"),
        key: "gauges.journal_live_requests",
        help: "Journaled requests admitted and not yet finished.",
        source: Source::Handler(|h| Value::u64(h.journal_live_requests)),
    },
    Row {
        kind: GAUGE,
        family: Some("ctcp_store_entries"),
        key: "gauges.store_entries",
        help: "Reports in the result store's index.",
        source: Source::Handler(|h| Value::u64(h.store_entries)),
    },
];

/// Every registry row read at one moment — what
/// [`Service::run`](crate::Service::run) returns after the drain.
#[derive(Debug, Clone)]
pub struct Snapshot {
    values: Vec<Value>,
}

impl Snapshot {
    /// The integer reading of the row whose `/status` key is `key`,
    /// e.g. `"counters.serve_requests"`.
    ///
    /// # Panics
    ///
    /// If no row has that key, or its reading is not an integer.
    pub fn count(&self, key: &str) -> u64 {
        ROWS.iter()
            .position(|r| r.key == key)
            .and_then(|at| self.values[at].as_u64())
            .unwrap_or_else(|| panic!("no integer registry row with /status key {key:?}"))
    }

    /// The rows as `/status` fields, dotted keys nested into their
    /// group objects.
    pub(crate) fn status_fields(&self) -> Vec<(String, Value)> {
        let mut doc: Vec<(String, Value)> = Vec::new();
        for (row, value) in ROWS.iter().zip(self.values.iter().cloned()) {
            match (row.key.split_once('.'), doc.last_mut()) {
                (Some((group, leaf)), Some((k, Value::Obj(fields)))) if k == group => {
                    fields.push((leaf.into(), value));
                }
                (Some((group, leaf)), _) => {
                    doc.push((group.into(), Value::Obj(vec![(leaf.into(), value)])));
                }
                (None, _) => doc.push((row.key.into(), value)),
            }
        }
        doc
    }
}

/// The service-kept numbers: the [`Slot`] atomics and the lifetime
/// request latency histogram.
pub(crate) struct Registry {
    slots: [AtomicU64; SLOTS],
    /// Completed-batch latency, bucketed as `log2(ms + 1)` so the
    /// fixed 33-bucket histogram spans sub-millisecond cache hits to
    /// multi-hour sweeps.
    latency: Mutex<Histogram>,
    /// Sum of raw batch latencies in ms — the exact `_sum` the
    /// Prometheus histogram exposition wants (the [`Histogram`]'s own
    /// `sum` accumulates bucket indices, not milliseconds).
    latency_sum_ms: AtomicU64,
}

impl Registry {
    pub(crate) fn new() -> Registry {
        Registry {
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
            latency: Mutex::new(Histogram::default()),
            latency_sum_ms: AtomicU64::new(0),
        }
    }

    /// Adds `n` to `slot`, returning the value before.
    pub(crate) fn add(&self, slot: Slot, n: u64) -> u64 {
        self.slots[slot as usize].fetch_add(n, Ordering::SeqCst)
    }

    pub(crate) fn sub(&self, slot: Slot, n: u64) {
        self.slots[slot as usize].fetch_sub(n, Ordering::SeqCst);
    }

    /// Records one completed batch's wall latency.
    pub(crate) fn observe_latency(&self, ms: u64) {
        relock(&self.latency).observe(latency_bucket(ms));
        self.latency_sum_ms.fetch_add(ms, Ordering::Relaxed);
    }

    /// Reads every row.
    pub(crate) fn snapshot(&self, handler: &HandlerStats, window: &SeriesWindow) -> Snapshot {
        let values = ROWS
            .iter()
            .map(|row| match row.source {
                Source::Slot(s) => Value::u64(self.slots[s as usize].load(Ordering::SeqCst)),
                Source::Handler(read) => read(handler),
                Source::Window(read) => read(window),
            })
            .collect();
        Snapshot { values }
    }

    /// `/status.latency_ms`: lifetime percentiles plus the explicit
    /// bucket bounds as `{le, count}` objects (non-cumulative, one per
    /// populated bucket; the unbounded last bucket reports `"+Inf"`) —
    /// the same upper bounds `/metrics` exposes.
    pub(crate) fn latency_status(&self) -> Value {
        let lat = relock(&self.latency).clone();
        let buckets = (0..lat.counts.len())
            .filter(|&i| lat.counts[i] > 0)
            .map(|i| {
                let le = match bucket_upper_ms(i as u64) {
                    u64::MAX => Value::str("+Inf"),
                    le => Value::u64(le),
                };
                Value::Obj(vec![
                    ("le".into(), le),
                    ("count".into(), Value::u64(lat.counts[i])),
                ])
            })
            .collect();
        let pct = |p: f64| Value::u64(bucket_lower_ms(lat.percentile(p)));
        Value::Obj(vec![
            ("samples".into(), Value::u64(lat.total)),
            ("p50".into(), pct(50.0)),
            ("p95".into(), pct(95.0)),
            ("p99".into(), pct(99.0)),
            ("buckets".into(), Value::Arr(buckets)),
        ])
    }

    /// `GET /metrics` in Prometheus text exposition format: every row
    /// with a family, then the request latency histogram with
    /// cumulative `le` bounds.
    pub(crate) fn prometheus(&self, snap: &Snapshot) -> String {
        let mut text = String::new();
        for (row, value) in ROWS.iter().zip(&snap.values) {
            if let Some(name) = row.family {
                let lines = [format!("{name} {}", prom_num(value))];
                prom_family(&mut text, name, row.kind, row.help, &lines);
            }
        }

        // `le` for log2 bucket i is `2^(i+1) - 2` ms.
        let lat = relock(&self.latency).clone();
        let mut lines = Vec::with_capacity(lat.counts.len() + 2);
        let mut cum = 0u64;
        for (i, &c) in lat.counts.iter().enumerate() {
            cum += c;
            let le = match bucket_upper_ms(i as u64) {
                u64::MAX => "+Inf".to_string(),
                le => le.to_string(),
            };
            lines.push(format!(
                "ctcp_request_latency_ms_bucket{{le=\"{le}\"}} {cum}"
            ));
        }
        let sum_ms = self.latency_sum_ms.load(Ordering::Relaxed);
        lines.push(format!("ctcp_request_latency_ms_sum {sum_ms}"));
        lines.push(format!("ctcp_request_latency_ms_count {}", lat.total));
        prom_family(
            &mut text,
            "ctcp_request_latency_ms",
            "histogram",
            "Completed-batch wall latency in milliseconds.",
            &lines,
        );
        text
    }
}

/// Writes one Prometheus metric family: `# HELP` / `# TYPE` header
/// plus the sample lines.
fn prom_family(out: &mut String, name: &str, kind: &str, help: &str, lines: &[String]) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
    for l in lines {
        out.push_str(l);
        out.push('\n');
    }
}

/// Renders a numeric or boolean JSON value as the exposition format
/// accepts it (no exponent needed at our magnitudes; integers stay
/// integral, flags read 0 or 1).
fn prom_num(v: &Value) -> String {
    let v = match v {
        Value::Bool(b) => f64::from(u8::from(*b)),
        v => v.as_f64().unwrap_or(0.0),
    };
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctcp_telemetry::{SeriesRing, SERIES_SECONDS};

    #[test]
    fn rows_have_unique_names_and_adjacent_groups() {
        let window = SeriesRing::new(SERIES_SECONDS).window(0, ROLLING_WINDOW_S);
        let snap = Registry::new().snapshot(&HandlerStats::default(), &window);
        let fields = snap.status_fields();
        let mut top: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        top.sort_unstable();
        top.dedup();
        assert_eq!(top.len(), fields.len(), "a group is split or a key repeats");
        let mut families: Vec<&str> = ROWS.iter().filter_map(|r| r.family).collect();
        let n = families.len();
        families.sort_unstable();
        families.dedup();
        assert_eq!(families.len(), n, "two rows share a /metrics family");
        for row in ROWS.iter().filter(|r| r.key.starts_with("counters.")) {
            let name = &row.key["counters.".len()..];
            assert_eq!(row.kind, COUNTER, "{name}");
            assert_eq!(row.family, Some(format!("ctcp_{name}_total").as_str()));
        }
    }

    /// README's "Watching the daemon" table is the registry's reference
    /// for operators; it must list exactly these rows.
    #[test]
    fn readme_table_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(path).expect("README.md readable");
        let header = "| `/metrics` family | `/status` key | kind | help |";
        let documented: Vec<&str> = readme
            .lines()
            .skip_while(|l| *l != header)
            .take_while(|l| l.starts_with('|'))
            .collect();
        let mut expected = vec![header.to_string(), "|---|---|---|---|".to_string()];
        for row in &ROWS {
            let family = row.family.map_or("—".to_string(), |f| format!("`{f}`"));
            expected.push(format!(
                "| {family} | `{}` | {} | {} |",
                row.key, row.kind, row.help
            ));
        }
        assert_eq!(
            documented,
            expected,
            "README's metrics table differs from the registry; it should read:\n{}",
            expected.join("\n")
        );
    }
}
