//! The sweep service's delivery contract, through the public
//! `ctcp::serve` API with a mock handler: a batch runs to the end on its
//! own thread however slowly its client reads, and a re-POST of the
//! settled batch streams the same bytes the admitting `POST` did.
//!
//! The `serve-slow-reader` fail point is process-global, so this file
//! holds one test.

use ctcp::serve::{http, Handler, HandlerError, RequestKind, RunResult, Service};
use ctcp::telemetry::json::Value;
use ctcp::telemetry::{failpoint, ProgressSink};
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
        progress: &mut dyn ProgressSink,
    ) -> Result<RunResult, HandlerError> {
        progress.batch_start(CELLS as usize);
        for done in 1..=CELLS as usize {
            progress.cell_done_on(done, "gzip", Duration::ZERO, 0);
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

    // The batch has settled and left the registry: the same body again
    // runs it again, and streams the same bytes.
    let again = http::request(&addr, "POST", "/sweep", b"{\"grid\":9}", &mut |_| {}).unwrap();
    assert_eq!(again.status, 200);
    assert_eq!(
        String::from_utf8(live.body).unwrap(),
        String::from_utf8(again.body).unwrap()
    );

    http::request(&addr, "POST", "/shutdown", b"", &mut |_| {}).unwrap();
    server.join().unwrap();
}
