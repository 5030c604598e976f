//! The sweep service's delivery contract, through the public
//! `ctcp::serve` API with a mock handler: a batch runs to the end on its
//! own thread however slowly its client reads, and the admitting `POST`
//! streams the same recorded event log a `/resume` from zero replays.
//!
//! The `serve-slow-reader` fail point is process-global, so this file
//! holds one test.

use ctcp::serve::{http, resume_token, Handler, HandlerError, RequestKind, RunResult, Service};
use ctcp::telemetry::failpoint;
use ctcp::telemetry::json::Value;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What the slow-reader fail point sleeps before each chunk.
const SLOW_MS: u64 = 50;
/// Cells in the mock sweep.
const CELLS: u64 = 9;

/// A nine-cell sweep whose cells finish at once; it notes when its
/// batch returned.
struct InstantSweep {
    finished: Arc<Mutex<Option<Instant>>>,
}

impl Handler for InstantSweep {
    fn run(
        &self,
        _kind: RequestKind,
        _body: &Value,
        _token: &str,
        progress: &mut dyn FnMut(&Value),
    ) -> Result<RunResult, HandlerError> {
        progress(&Value::Obj(vec![
            ("event".into(), Value::str("batch_start")),
            ("total".into(), Value::u64(CELLS)),
        ]));
        for done in 1..=CELLS {
            progress(&Value::Obj(vec![
                ("event".into(), Value::str("progress")),
                ("done".into(), Value::u64(done)),
                ("total".into(), Value::u64(CELLS)),
                ("workload".into(), Value::str("gzip")),
            ]));
        }
        *self.finished.lock().unwrap() = Some(Instant::now());
        Ok(RunResult {
            output: "nine cells\n".into(),
            exit_code: 0,
            cache_hits: 0,
            simulated: CELLS,
        })
    }
}

#[test]
fn a_slow_reader_paces_its_stream_not_its_batch() {
    let finished = Arc::new(Mutex::new(None));
    let svc = Service::bind(
        "127.0.0.1:0",
        Box::new(InstantSweep {
            finished: Arc::clone(&finished),
        }),
    )
    .unwrap();
    let addr = svc.local_addr().to_string();
    let server = std::thread::spawn(move || svc.run().expect("service run"));

    failpoint::set(Some(&format!("serve-slow-reader={SLOW_MS}")));
    let posted = Instant::now();
    let live = http::request(&addr, "POST", "/sweep", b"{\"grid\":9}", &mut |_| {});
    let stream_end = posted.elapsed();
    failpoint::set(None);
    let live = live.expect("the slow stream completes");
    assert_eq!(live.status, 200);

    // Handshake, batch_start, nine progress events and the result,
    // each behind one slow-reader sleep.
    let chunks = u32::try_from(CELLS).unwrap() + 3;
    assert!(
        stream_end >= Duration::from_millis(SLOW_MS) * chunks,
        "the fail point paced the stream: {stream_end:?}"
    );
    let batch_end = finished
        .lock()
        .unwrap()
        .expect("the batch ran")
        .duration_since(posted);
    assert!(
        batch_end < stream_end / 2,
        "the batch ended at {batch_end:?}, paced by its {stream_end:?} stream"
    );

    // The admitting POST read the registry's log: a resume from zero
    // replays the same bytes.
    let token = resume_token(RequestKind::Sweep, "{\"grid\":9}");
    let resume = format!("{{\"token\":\"{token}\",\"have\":0,\"run\":0}}");
    let replayed = http::request(&addr, "POST", "/resume", resume.as_bytes(), &mut |_| {}).unwrap();
    assert_eq!(replayed.status, 200);
    assert_eq!(
        String::from_utf8(live.body).unwrap(),
        String::from_utf8(replayed.body).unwrap()
    );

    http::request(&addr, "POST", "/shutdown", b"", &mut |_| {}).unwrap();
    server.join().unwrap();
}
