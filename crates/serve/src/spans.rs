//! Request spans: where each request spent its time, kept as plain
//! numbers until `GET /trace/<token>` asks for them.
//!
//! Batch and connection threads record five kinds of span per request
//! ([`SpanKind`]): `admit`, `queued` (admission to the first event) and
//! `run <kind>` on the service lane, one `cell <workload>` span per
//! finished cell on its pool worker's lane, and one `stream` span per
//! delivery attempt on the streams lane. Each is kept as a [`Span`], a
//! `Copy` record of 56 bytes: the resume token as the 64-bit hash it
//! spells, the start and duration, and the kind's numbers. The one
//! string a span names, a cell's workload label, is interned in a
//! bounded table the ring owns. Recording therefore builds no `String`
//! or `Value`; [`SpanRing::spans_for`] rebuilds one token's names,
//! lanes and args as [`ReqSpan`]s when `/trace` renders them.

use crate::service::RequestKind;
use ctcp_telemetry::json::Value;
use ctcp_telemetry::ReqSpan;

/// Spans kept; old spans are overwritten, newest win. The ring reserves
/// its storage once and never grows it: 16384 spans of 56 bytes are
/// 0.9 MB, the last four thousand or so cached requests, or a hundred
/// and sixty 96-cell sweeps.
pub(crate) const SPAN_RING_CAP: usize = 16384;

/// Workload labels the ring's spans may name at once. The daemon's
/// labels are preset and strategy names, a few dozen in all.
const LABEL_CAP: usize = 256;

/// How a cell span whose label found no room in the table renders.
const LABEL_OVERFLOW: &str = "?";

/// The service lane request spans render on (admit / queued / run).
pub(crate) const LANE_SERVICE: u64 = 0;
/// The lane client stream spans render on.
pub(crate) const LANE_STREAM: u64 = 1;
/// Worker `w`'s cell spans render on `LANE_WORKERS + w`.
pub(crate) const LANE_WORKERS: u64 = 2;

/// What one span records. `L` is a cell's workload label: the `&str`
/// a recording site passes, an index into the ring's label table once
/// stored.
#[derive(Clone, Copy)]
pub(crate) enum SpanKind<L> {
    /// The batch was admitted.
    Admit { kind: RequestKind },
    /// Admission to the batch's first event.
    Queued,
    /// The whole batch, with its result's numbers.
    Run {
        kind: RequestKind,
        exit_code: u32,
        cache_hits: u64,
        simulated: u64,
    },
    /// One finished cell on pool worker `worker`.
    Cell {
        worker: u64,
        label: L,
        done: u64,
        total: u64,
    },
    /// One delivery attempt: `events` events sent from index `from`.
    Stream { from: u64, events: u64 },
}

/// One retained span.
#[derive(Clone, Copy)]
struct Span {
    token: u64,
    ts_us: u64,
    dur_us: u64,
    kind: SpanKind<u32>,
}

// A span stays a plain record that fits one cache line.
const _: () = {
    const fn is_copy<T: Copy>() {}
    is_copy::<Span>();
    assert!(std::mem::size_of::<Span>() <= 64);
};

/// The 64-bit hash a resume token spells: exactly 16 lowercase hex
/// digits, as `resume_token` formats it. Any other spelling (upper
/// case, leading zeros stripped) names no token, so tokens still match
/// as strings.
fn token_bits(token: &str) -> Option<u64> {
    let lower_hex = |b: u8| matches!(b, b'0'..=b'9' | b'a'..=b'f');
    if token.len() == 16 && token.bytes().all(lower_hex) {
        u64::from_str_radix(token, 16).ok()
    } else {
        None
    }
}

/// Interned workload labels: `names[i]` is label `i`, `refs[i]` counts
/// the ring's spans that name it. A full table reuses a label no span
/// names any more; with every label named, a new one is stored as
/// [`LABEL_OVERFLOW`].
struct Labels {
    names: Vec<Box<str>>,
    refs: Vec<u32>,
}

impl Labels {
    /// The slot of `label`, counted once more; `u32::MAX`, which names
    /// no slot, when every slot is named.
    fn intern(&mut self, label: &str) -> u32 {
        let slot = match self.names.iter().position(|n| **n == *label) {
            Some(i) => i,
            None if self.names.len() < LABEL_CAP => {
                self.names.push(label.into());
                self.refs.push(0);
                self.names.len() - 1
            }
            None => match self.refs.iter().position(|&r| r == 0) {
                Some(i) => {
                    self.names[i] = label.into();
                    i
                }
                None => return u32::MAX,
            },
        };
        self.refs[slot] += 1;
        slot as u32
    }

    /// One span fewer names `label`; the overflow label is not counted.
    fn release(&mut self, label: u32) {
        if let Some(r) = self.refs.get_mut(label as usize) {
            *r -= 1;
        }
    }

    fn name(&self, label: u32) -> &str {
        self.names
            .get(label as usize)
            .map_or(LABEL_OVERFLOW, |n| &**n)
    }
}

/// A fixed-capacity overwrite-oldest ring of spans.
pub(crate) struct SpanRing {
    buf: Vec<Span>,
    next: usize,
    labels: Labels,
}

impl SpanRing {
    pub(crate) fn new() -> SpanRing {
        SpanRing {
            buf: Vec::with_capacity(SPAN_RING_CAP),
            next: 0,
            labels: Labels {
                names: Vec::with_capacity(LABEL_CAP),
                refs: Vec::with_capacity(LABEL_CAP),
            },
        }
    }

    /// Records one span of `token`, overwriting the oldest when full.
    /// A token that is not a resume token's spelling records nothing.
    pub(crate) fn push(&mut self, token: &str, ts_us: u64, dur_us: u64, kind: SpanKind<&str>) {
        let Some(token) = token_bits(token) else {
            return;
        };
        if self.buf.len() == SPAN_RING_CAP {
            if let SpanKind::Cell { label, .. } = self.buf[self.next].kind {
                self.labels.release(label);
            }
        }
        let kind = match kind {
            SpanKind::Admit { kind } => SpanKind::Admit { kind },
            SpanKind::Queued => SpanKind::Queued,
            SpanKind::Run {
                kind,
                exit_code,
                cache_hits,
                simulated,
            } => SpanKind::Run {
                kind,
                exit_code,
                cache_hits,
                simulated,
            },
            SpanKind::Cell {
                worker,
                label,
                done,
                total,
            } => SpanKind::Cell {
                worker,
                label: self.labels.intern(label),
                done,
                total,
            },
            SpanKind::Stream { from, events } => SpanKind::Stream { from, events },
        };
        let span = Span {
            token,
            ts_us,
            dur_us,
            kind,
        };
        if self.buf.len() < SPAN_RING_CAP {
            self.buf.push(span);
        } else {
            self.buf[self.next] = span;
            self.next = (self.next + 1) % SPAN_RING_CAP;
        }
    }

    /// Every retained span of `token`, in ring order, rebuilt as the
    /// [`ReqSpan`]s `request_trace` renders.
    pub(crate) fn spans_for(&self, token: &str) -> Vec<ReqSpan> {
        let Some(bits) = token_bits(token) else {
            return Vec::new();
        };
        self.buf
            .iter()
            .filter(|s| s.token == bits)
            .map(|s| self.rebuild(token, s))
            .collect()
    }

    fn rebuild(&self, token: &str, span: &Span) -> ReqSpan {
        let mut args = vec![("token".to_string(), Value::str(token))];
        let mut arg = |k: &str, v: Value| args.push((k.to_string(), v));
        let (name, lane, lane_name) = match span.kind {
            SpanKind::Admit { kind } => {
                arg("kind", Value::str(kind.as_str()));
                ("admit".to_string(), LANE_SERVICE, "service".to_string())
            }
            SpanKind::Queued => ("queued".to_string(), LANE_SERVICE, "service".to_string()),
            SpanKind::Run {
                kind,
                exit_code,
                cache_hits,
                simulated,
            } => {
                arg("exit_code", Value::u64(exit_code.into()));
                arg("cache_hits", Value::u64(cache_hits));
                arg("simulated", Value::u64(simulated));
                (
                    format!("run {}", kind.as_str()),
                    LANE_SERVICE,
                    "service".to_string(),
                )
            }
            SpanKind::Cell {
                worker,
                label,
                done,
                total,
            } => {
                let workload = self.labels.name(label);
                arg("workload", Value::str(workload));
                arg("done", Value::u64(done));
                arg("total", Value::u64(total));
                (
                    format!("cell {workload}"),
                    LANE_WORKERS.saturating_add(worker),
                    format!("worker {worker}"),
                )
            }
            SpanKind::Stream { from, events } => {
                arg("from", Value::u64(from));
                arg("events", Value::u64(events));
                ("stream".to_string(), LANE_STREAM, "streams".to_string())
            }
        };
        ReqSpan {
            name,
            lane,
            lane_name,
            ts_us: span.ts_us,
            dur_us: span.dur_us,
            args,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctcp_telemetry::request_trace;

    const TOKEN: &str = "0c0ffee123456789";
    const OTHER: &str = "fedcba9876543210";

    fn cell(worker: u64, label: &str, done: u64, total: u64) -> SpanKind<&str> {
        SpanKind::Cell {
            worker,
            label,
            done,
            total,
        }
    }

    #[test]
    fn every_kind_renders_the_golden_trace() {
        // One span of every kind at fixed times, as the service records
        // them for one sweep (cells on two workers, a stream cut short
        // and its resume) and one analyze, with another request's
        // spans interleaved. The golden was rendered from the
        // `ReqSpan`s the service built before spans became records.
        let mut ring = SpanRing::new();
        let sweep = RequestKind::Sweep;
        let analyze = RequestKind::Analyze;
        ring.push(TOKEN, 1000, 0, SpanKind::Admit { kind: sweep });
        ring.push(OTHER, 1050, 0, SpanKind::Admit { kind: sweep });
        ring.push(TOKEN, 1200, 4000, cell(0, "gzip", 1, 3));
        ring.push(OTHER, 1250, 10, cell(0, "mcf", 1, 1));
        ring.push(TOKEN, 1300, 4100, cell(1, "twolf", 2, 3));
        ring.push(TOKEN, 1100, 4500, SpanKind::Stream { from: 0, events: 3 });
        ring.push(TOKEN, 5000, 800, cell(0, "gzip", 3, 3));
        ring.push(TOKEN, 1000, 1200, SpanKind::Queued);
        let run = |kind, exit_code, cache_hits, simulated| SpanKind::Run {
            kind,
            exit_code,
            cache_hits,
            simulated,
        };
        ring.push(TOKEN, 1000, 6000, run(sweep, 0, 1, 2));
        ring.push(TOKEN, 7100, 300, SpanKind::Stream { from: 3, events: 2 });
        ring.push(TOKEN, 9000, 0, SpanKind::Admit { kind: analyze });
        ring.push(TOKEN, 9300, 0, cell(0, "fdrt", 1, 2));
        ring.push(TOKEN, 9400, 0, cell(0, "cell", 2, 2));
        ring.push(TOKEN, 9000, 300, SpanKind::Queued);
        ring.push(TOKEN, 9000, 500, run(analyze, 2, 0, 2));
        ring.push(TOKEN, 9050, 550, SpanKind::Stream { from: 0, events: 3 });
        let golden = include_str!("../tests/golden/request-trace.json");
        assert_eq!(request_trace(&ring.spans_for(TOKEN)) + "\n", golden);
        assert_eq!(ring.spans_for(OTHER).len(), 2);
    }

    #[test]
    fn a_full_ring_keeps_the_newest_spans_in_storage_it_never_grows() {
        let mut ring = SpanRing::new();
        let (ptr, cap) = (ring.buf.as_ptr(), ring.buf.capacity());
        assert_eq!(cap, SPAN_RING_CAP);
        for i in 0..2 * SPAN_RING_CAP as u64 {
            ring.push(TOKEN, i, 1, cell(i % 3, "gzip", i, 0));
        }
        assert_eq!((ring.buf.as_ptr(), ring.buf.capacity()), (ptr, cap));
        let spans = ring.spans_for(TOKEN);
        assert_eq!(spans.len(), SPAN_RING_CAP);
        let mut kept: Vec<u64> = spans.iter().map(|s| s.ts_us).collect();
        kept.sort_unstable();
        let newest: Vec<u64> = (SPAN_RING_CAP as u64..2 * SPAN_RING_CAP as u64).collect();
        assert_eq!(kept, newest);
        // Every overwritten cell span gave its label reference back.
        assert_eq!(ring.labels.refs, [SPAN_RING_CAP as u32]);
    }

    #[test]
    fn more_labels_than_the_table_holds_do_not_grow_it() {
        let mut ring = SpanRing::new();
        let label_storage = |r: &SpanRing| (r.labels.names.capacity(), r.labels.refs.capacity());
        let before = label_storage(&ring);
        for i in 0..2 * LABEL_CAP as u64 {
            ring.push(TOKEN, i, 1, cell(0, &format!("w{i}"), i, 0));
        }
        assert_eq!(ring.labels.names.len(), LABEL_CAP);
        assert_eq!(label_storage(&ring), before);
        // Labels the table held render as recorded; the rest as the
        // overflow label.
        let spans = ring.spans_for(TOKEN);
        assert_eq!(spans[0].name, "cell w0");
        assert_eq!(spans[LABEL_CAP].name, format!("cell {LABEL_OVERFLOW}"));
        // Once no span names a label, a new label takes its slot.
        for i in 0..SPAN_RING_CAP as u64 {
            ring.push(OTHER, i, 1, SpanKind::Queued);
        }
        ring.push(TOKEN, 0, 1, cell(0, "late", 0, 0));
        assert_eq!(ring.labels.names.len(), LABEL_CAP);
        assert_eq!(ring.spans_for(TOKEN)[0].name, "cell late");
    }

    #[test]
    fn tokens_match_only_as_their_exact_spelling() {
        let mut ring = SpanRing::new();
        ring.push(TOKEN, 1, 1, SpanKind::Queued);
        assert_eq!(ring.spans_for(TOKEN).len(), 1);
        for spelling in [
            "c0ffee123456789",
            "0C0FFEE123456789",
            "+c0ffee123456789",
            "",
        ] {
            assert!(ring.spans_for(spelling).is_empty(), "{spelling}");
        }
        // A token the service never formats records nothing.
        ring.push("t", 1, 1, SpanKind::Queued);
        assert_eq!(ring.buf.len(), 1);
    }
}
