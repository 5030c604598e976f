//! Chrome trace-event JSON export.
//!
//! The output is the "JSON array format" understood by
//! `about://tracing` and [Perfetto]: one complete (`"ph":"X"`) event
//! per pipeline span, with `pid` 0 and one `tid` lane per cluster plus
//! dedicated lanes for the front end. Events are emitted sorted by
//! `(tid, ts)` so timestamps are monotone within every lane — viewers
//! do not require this, but it makes the file diffable and lets the
//! validator below double as a regression test.
//!
//! [Perfetto]: https://perfetto.dev

use crate::event::{FlowEvent, PipeStage, SpanEvent, FETCH_LANE};
use crate::json::Value;
use std::collections::{HashMap, HashSet};

/// Lane (tid) assignment for one event: clusters keep their index,
/// front-end lanes are pushed above every plausible cluster count.
fn tid_of(ev: &SpanEvent) -> u64 {
    u64::from(ev.cluster)
}

fn lane_name(tid: u64) -> String {
    if tid == u64::from(FETCH_LANE) {
        "fetch: trace cache".to_string()
    } else if tid == u64::from(FETCH_LANE - 1) {
        "fetch: icache".to_string()
    } else {
        format!("cluster {tid}")
    }
}

/// Renders `events` as a Chrome trace-event JSON array.
///
/// The events need not be ordered; the exporter sorts a copy by
/// `(tid, ts, seq)`. Thread-name metadata events (`"ph":"M"`) are
/// emitted first so lanes are labelled in the viewer.
pub fn chrome_trace(events: &[SpanEvent]) -> String {
    chrome_trace_with_flows(events, &[])
}

/// Renders `events` plus inter-cluster forward `flows` as a Chrome
/// trace-event JSON array. Each flow becomes a `"s"`/`"f"` pair tying
/// the producer's completion on its cluster lane to the value's arrival
/// on the consumer's lane — the viewer draws them as arrows.
pub fn chrome_trace_with_flows(events: &[SpanEvent], flows: &[FlowEvent]) -> String {
    let mut sorted: Vec<&SpanEvent> = events.iter().collect();
    sorted.sort_by_key(|e| (tid_of(e), e.ts, e.seq));

    let mut out: Vec<Value> = Vec::new();
    let mut lanes: Vec<u64> = sorted.iter().map(|e| tid_of(e)).collect();
    lanes.dedup();
    for tid in &lanes {
        out.push(Value::Obj(vec![
            ("name".into(), Value::str("thread_name")),
            ("ph".into(), Value::str("M")),
            ("pid".into(), Value::u64(0)),
            ("tid".into(), Value::u64(*tid)),
            (
                "args".into(),
                Value::Obj(vec![("name".into(), Value::str(&lane_name(*tid)))]),
            ),
        ]));
    }
    for ev in sorted {
        let mut args = vec![("pc".into(), Value::str(&format!("{:#x}", ev.pc)))];
        if ev.stage == PipeStage::Fetch {
            args.push(("group_size".into(), Value::u64(ev.seq)));
        } else {
            args.push(("seq".into(), Value::u64(ev.seq)));
        }
        out.push(Value::Obj(vec![
            ("name".into(), Value::str(ev.stage.name())),
            ("cat".into(), Value::str("pipeline")),
            ("ph".into(), Value::str("X")),
            ("ts".into(), Value::u64(ev.ts)),
            ("dur".into(), Value::u64(ev.dur.max(1))),
            ("pid".into(), Value::u64(0)),
            ("tid".into(), Value::u64(tid_of(ev))),
            ("args".into(), Value::Obj(args)),
        ]));
    }
    let mut flows: Vec<&FlowEvent> = flows.iter().collect();
    flows.sort_by_key(|f| f.id);
    for f in flows {
        let args = Value::Obj(vec![
            ("seq".into(), Value::u64(f.seq)),
            ("pc".into(), Value::str(&format!("{:#x}", f.pc))),
        ]);
        out.push(Value::Obj(vec![
            ("name".into(), Value::str("forward")),
            ("cat".into(), Value::str("forward")),
            ("ph".into(), Value::str("s")),
            ("ts".into(), Value::u64(f.from_ts)),
            ("pid".into(), Value::u64(0)),
            ("tid".into(), Value::u64(u64::from(f.from_cluster))),
            ("id".into(), Value::u64(f.id)),
            ("args".into(), args.clone()),
        ]));
        out.push(Value::Obj(vec![
            ("name".into(), Value::str("forward")),
            ("cat".into(), Value::str("forward")),
            ("ph".into(), Value::str("f")),
            ("bp".into(), Value::str("e")),
            ("ts".into(), Value::u64(f.to_ts)),
            ("pid".into(), Value::u64(0)),
            ("tid".into(), Value::u64(u64::from(f.to_cluster))),
            ("id".into(), Value::u64(f.id)),
            ("args".into(), args),
        ]));
    }
    Value::Arr(out).render()
}

/// One request-scoped service span: admission, queueing, a cell's run
/// on a worker, or a client stream/drain — free-form `name`, one lane
/// per actor (service lane, one lane per pool worker).
///
/// Unlike [`SpanEvent`] these are not pipeline stages; the service
/// records them with wall-clock microsecond timestamps relative to
/// daemon start and exports a request's spans on demand via
/// `GET /trace/<token>`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReqSpan {
    /// Span label shown in the viewer (e.g. `"admit"`, `"cell gzip/fdrt"`).
    pub name: String,
    /// Lane (`tid`) the span renders on.
    pub lane: u64,
    /// Human label for the lane's thread-name metadata.
    pub lane_name: String,
    /// Start, µs since daemon start.
    pub ts_us: u64,
    /// Duration in µs (rendered as at least 1).
    pub dur_us: u64,
    /// Extra key/values for the viewer's args pane (token, workload, …).
    pub args: Vec<(String, Value)>,
}

/// Renders request spans as a Chrome trace-event JSON array that
/// [`validate_chrome_trace`] accepts: thread-name metadata first, then
/// `"X"` spans sorted by `(lane, ts)`. Because cell durations are
/// measured in the worker but recorded when the progress event reaches
/// the service, two spans on one lane can overlap by scheduling skew;
/// the exporter clamps each span's start to its lane predecessor's end
/// so lanes are strictly sequential, which viewers render correctly
/// and tests can assert.
pub fn request_trace(spans: &[ReqSpan]) -> String {
    let mut sorted: Vec<ReqSpan> = spans.to_vec();
    sorted.sort_by_key(|s| (s.lane, s.ts_us));

    let mut out: Vec<Value> = Vec::new();
    let mut seen_lanes: HashSet<u64> = HashSet::new();
    for sp in &sorted {
        if seen_lanes.insert(sp.lane) {
            out.push(Value::Obj(vec![
                ("name".into(), Value::str("thread_name")),
                ("ph".into(), Value::str("M")),
                ("pid".into(), Value::u64(0)),
                ("tid".into(), Value::u64(sp.lane)),
                (
                    "args".into(),
                    Value::Obj(vec![("name".into(), Value::str(&sp.lane_name))]),
                ),
            ]));
        }
    }
    let mut lane_end: HashMap<u64, u64> = HashMap::new();
    for sp in &sorted {
        let end = lane_end.entry(sp.lane).or_insert(0);
        let ts = sp.ts_us.max(*end);
        let dur = sp.dur_us.max(1);
        *end = ts + dur;
        out.push(Value::Obj(vec![
            ("name".into(), Value::str(&sp.name)),
            ("cat".into(), Value::str("request")),
            ("ph".into(), Value::str("X")),
            ("ts".into(), Value::u64(ts)),
            ("dur".into(), Value::u64(dur)),
            ("pid".into(), Value::u64(0)),
            ("tid".into(), Value::u64(sp.lane)),
            ("args".into(), Value::Obj(sp.args.clone())),
        ]));
    }
    Value::Arr(out).render()
}

/// What [`validate_chrome_trace`] learned about a trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeTraceSummary {
    /// Complete (`"X"`) span events.
    pub spans: usize,
    /// Metadata (`"M"`) events.
    pub metadata: usize,
    /// Distinct `(pid, tid)` lanes.
    pub lanes: usize,
    /// Matched flow (`"s"`/`"f"`) pairs — inter-cluster forwards.
    pub flows: usize,
}

/// Checks that `text` is a well-formed Chrome trace-event JSON array:
/// every element is an object with a `ph` phase, every `"X"` event
/// carries `name`/`ts`/`dur`/`pid`/`tid`, `ts` is monotonically
/// non-decreasing within each `(pid, tid)` lane, and every flow
/// (`"s"`/`"f"`) is a matched pair — same id, start no later than
/// finish, and a consumer that actually retired (its `seq` has a
/// `"retire"` span in the file).
///
/// # Errors
///
/// Returns a message naming the first offending event.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceSummary, String> {
    let v = Value::parse(text)?;
    let events = v.as_arr().ok_or("trace root is not a JSON array")?;
    let mut last_ts: Vec<((u64, u64), u64)> = Vec::new();
    let mut flow_starts: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut flow_ends: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut retired_seqs: HashSet<u64> = HashSet::new();
    let mut summary = ChromeTraceSummary {
        spans: 0,
        metadata: 0,
        lanes: 0,
        flows: 0,
    };
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        match ph {
            "M" => summary.metadata += 1,
            "X" => {
                summary.spans += 1;
                let name = ev
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("event {i}: X event missing name"))?;
                if name == "retire" {
                    if let Some(seq) = ev
                        .get("args")
                        .and_then(|a| a.get("seq"))
                        .and_then(Value::as_u64)
                    {
                        retired_seqs.insert(seq);
                    }
                }
                let ts = ev
                    .get("ts")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("event {i}: X event missing ts"))?;
                ev.get("dur")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("event {i}: X event missing dur"))?;
                let pid = ev
                    .get("pid")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("event {i}: X event missing pid"))?;
                let tid = ev
                    .get("tid")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("event {i}: X event missing tid"))?;
                match last_ts.iter_mut().find(|(lane, _)| *lane == (pid, tid)) {
                    Some((_, last)) => {
                        if ts < *last {
                            return Err(format!(
                                "event {i}: ts {ts} goes backwards in lane pid={pid} tid={tid} \
                                 (previous ts {last})"
                            ));
                        }
                        *last = ts;
                    }
                    None => last_ts.push(((pid, tid), ts)),
                }
            }
            "s" | "f" => {
                ev.get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("event {i}: flow event missing name"))?;
                let id = ev
                    .get("id")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("event {i}: flow event missing id"))?;
                let ts = ev
                    .get("ts")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("event {i}: flow event missing ts"))?;
                ev.get("pid")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("event {i}: flow event missing pid"))?;
                ev.get("tid")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("event {i}: flow event missing tid"))?;
                let seq = ev
                    .get("args")
                    .and_then(|a| a.get("seq"))
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("event {i}: flow event missing args.seq"))?;
                let map = if ph == "s" {
                    &mut flow_starts
                } else {
                    &mut flow_ends
                };
                if map.insert(id, (ts, seq)).is_some() {
                    return Err(format!("event {i}: duplicate flow {ph:?} for id {id}"));
                }
            }
            other => return Err(format!("event {i}: unknown phase {other:?}")),
        }
    }
    for (id, (ts_s, seq_s)) in &flow_starts {
        let Some((ts_f, seq_f)) = flow_ends.get(id) else {
            return Err(format!("flow {id}: start without matching finish"));
        };
        if seq_f != seq_s {
            return Err(format!(
                "flow {id}: start seq {seq_s} does not match finish seq {seq_f}"
            ));
        }
        if ts_f < ts_s {
            return Err(format!(
                "flow {id}: finish ts {ts_f} precedes start ts {ts_s}"
            ));
        }
        if !retired_seqs.contains(seq_s) {
            return Err(format!(
                "flow {id}: consumer seq {seq_s} has no retire span in the trace"
            ));
        }
    }
    for id in flow_ends.keys() {
        if !flow_starts.contains_key(id) {
            return Err(format!("flow {id}: finish without matching start"));
        }
    }
    summary.flows = flow_starts.len();
    summary.lanes = last_ts.len();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrib::{InstAttrib, SrcAttrib};
    use crate::event::SpanEvent;
    use crate::recorder::Recorder;

    #[test]
    fn exported_trace_validates_and_orders_lanes() {
        let r = Recorder::default();
        // Deliberately out of order and across clusters.
        for seq in [5u64, 1, 3, 2, 4] {
            r.retire_attrib(&InstAttrib {
                seq,
                pc: 0x1000 + seq * 4,
                cluster: (seq % 2) as u8,
                renamed_at: seq * 10,
                dispatched_at: seq * 10 + 1,
                exec_start: seq * 10 + 3,
                complete_at: seq * 10 + 6,
                retired_at: seq * 10 + 9,
                srcs: [SrcAttrib::default(); 2],
            });
        }
        r.fetch_group(2, 0x1000, 8, true);
        r.fetch_group(7, 0x1020, 4, false);
        let text = chrome_trace(&r.events());
        let summary = validate_chrome_trace(&text).expect("exporter output must validate");
        assert_eq!(summary.spans, 5 * 4 + 2);
        assert_eq!(summary.lanes, 4); // two clusters + two fetch lanes
        assert_eq!(summary.metadata, 4);
    }

    #[test]
    fn validator_rejects_backwards_timestamps() {
        let mk = |ts| SpanEvent {
            ts,
            dur: 1,
            stage: PipeStage::Execute,
            seq: ts,
            pc: 0,
            cluster: 0,
        };
        // Hand-build an unsorted file: same lane, ts goes 5 then 2.
        let bad = format!("[{},{}]", span_json(&mk(5)), span_json(&mk(2)),);
        let err = validate_chrome_trace(&bad).unwrap_err();
        assert!(err.contains("goes backwards"), "{err}");
    }

    fn span_json(ev: &SpanEvent) -> String {
        Value::Obj(vec![
            ("name".into(), Value::str(ev.stage.name())),
            ("ph".into(), Value::str("X")),
            ("ts".into(), Value::u64(ev.ts)),
            ("dur".into(), Value::u64(ev.dur)),
            ("pid".into(), Value::u64(0)),
            ("tid".into(), Value::u64(u64::from(ev.cluster))),
        ])
        .render()
    }

    #[test]
    fn validator_rejects_non_array_and_unknown_phase() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace(r#"[{"ph":"Q"}]"#).is_err());
        assert!(validate_chrome_trace(r#"[{"ts":1}]"#).is_err());
    }

    #[test]
    fn flow_events_pair_and_require_a_retired_consumer() {
        use crate::event::FlowEvent;
        let retire = SpanEvent {
            ts: 10,
            dur: 2,
            stage: PipeStage::Retire,
            seq: 3,
            pc: 0x40,
            cluster: 1,
        };
        let flow = FlowEvent {
            id: 1,
            from_ts: 4,
            from_cluster: 0,
            to_ts: 8,
            to_cluster: 1,
            seq: 3,
            pc: 0x40,
        };
        let text = chrome_trace_with_flows(&[retire], &[flow]);
        let summary = validate_chrome_trace(&text).expect("flow trace must validate");
        assert_eq!(summary.flows, 1);
        assert_eq!(summary.spans, 1);

        // A flow whose consumer never retired must be rejected.
        let orphan = FlowEvent { seq: 99, ..flow };
        let err = validate_chrome_trace(&chrome_trace_with_flows(&[retire], &[orphan]))
            .expect_err("orphan flow must fail");
        assert!(err.contains("no retire span"), "{err}");
    }

    #[test]
    fn validator_rejects_unmatched_flow_halves() {
        let s = r#"[{"name":"forward","ph":"s","ts":1,"pid":0,"tid":0,"id":7,"args":{"seq":1}}]"#;
        let err = validate_chrome_trace(s).unwrap_err();
        assert!(err.contains("start without matching finish"), "{err}");
        let f = r#"[{"name":"forward","ph":"f","ts":1,"pid":0,"tid":0,"id":7,"args":{"seq":1}}]"#;
        let err = validate_chrome_trace(f).unwrap_err();
        assert!(err.contains("finish without matching start"), "{err}");
    }

    #[test]
    fn empty_event_set_exports_an_empty_valid_trace() {
        let text = chrome_trace(&[]);
        let summary = validate_chrome_trace(&text).unwrap();
        assert_eq!(summary.spans, 0);
        assert_eq!(summary.lanes, 0);
    }

    #[test]
    fn request_trace_validates_labels_lanes_and_untangles_overlap() {
        let sp = |name: &str, lane: u64, lane_name: &str, ts: u64, dur: u64| ReqSpan {
            name: name.into(),
            lane,
            lane_name: lane_name.into(),
            ts_us: ts,
            dur_us: dur,
            args: vec![("token".into(), Value::str("00ff"))],
        };
        let spans = vec![
            sp("cell gzip/fdrt", 1, "worker 0", 100, 50),
            sp("admit", 0, "service", 0, 10),
            // Overlaps its lane predecessor by 20µs of recording skew.
            sp("cell twolf/fdrt", 1, "worker 0", 130, 40),
            sp("stream", 0, "service", 10, 200),
        ];
        let text = request_trace(&spans);
        let summary = validate_chrome_trace(&text).expect("request trace must validate");
        assert_eq!(summary.spans, 4);
        assert_eq!(summary.lanes, 2);
        assert_eq!(summary.metadata, 2);
        // The overlapping cell span was pushed past its predecessor.
        let doc = Value::parse(&text).unwrap();
        let arr = doc.as_arr().unwrap();
        let second_cell = arr
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("cell twolf/fdrt"))
            .unwrap();
        assert_eq!(second_cell.get("ts").and_then(Value::as_u64), Some(150));
        // Zero-duration spans render as 1µs.
        let text = request_trace(&[sp("admit", 0, "service", 5, 0)]);
        assert!(validate_chrome_trace(&text).is_ok());
        assert!(text.contains("\"dur\":1"));
    }
}
