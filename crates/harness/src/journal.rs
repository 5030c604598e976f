//! Durable request journal: the write-ahead log that makes `ctcp
//! serve` crash-safe.
//!
//! The journal is one append-only JSON-lines file, `journal.jsonl`,
//! living next to the result store's `results.jsonl`. It records the
//! lifecycle of every admitted service request:
//!
//! ```text
//! {"v":1,"t":"admit","req":"<token>","kind":"sweep","body":"{...}","crc":"<8 hex>"}
//! {"v":1,"t":"cell","req":"<token>","key":"<16 hex>","crc":"<8 hex>"}
//! {"v":1,"t":"done","req":"<token>","exit":0,"crc":"<8 hex>"}
//! ```
//!
//! `admit` carries the request's full wire body, so a restarted daemon
//! can re-enqueue it verbatim; `cell` marks one cell's report as
//! memoized into the result store; `done` is the terminal state. Every
//! line reuses the store's CRC-32 envelope machinery ([`crc32`] over
//! the bytes before the trailing `crc` field), so a torn tail from a
//! `kill -9` mid-append is detected and skipped on replay — the
//! journal tolerates exactly the crashes it exists to survive.
//!
//! ## Replay and compaction
//!
//! [`Journal::open`] replays the file tolerantly (corrupt or torn
//! lines are counted and skipped, never fatal), then compacts it in
//! place: records of requests that reached `done` are pruned by an
//! atomic rewrite, so the journal only ever holds in-flight work. A
//! size threshold triggers the same compaction at runtime after a
//! [`Journal::finish`], bounding the file under sustained traffic.
//! The surviving non-terminal requests come back from
//! [`Journal::take_pending`]; the daemon re-enqueues them, and cells
//! already memoized in the result store come back as store hits — so
//! a crash mid-96-cell-sweep resumes with zero recomputation of
//! finished cells.
//!
//! The `journal-truncate` fail point tears one append in half (then
//! disarms itself), simulating a crash mid-write for tests.

use crate::store::{atomic_rewrite, crc32, raw_lines, split_crc};
use ctcp_sim::json::Value;
use ctcp_telemetry::failpoint;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

/// Journal record format version, independent of the store's.
pub const JOURNAL_FORMAT_VERSION: u32 = 1;

/// The journal file name inside the store directory.
const JOURNAL_FILE: &str = "journal.jsonl";

/// Runtime compaction threshold: when a terminal record pushes the
/// file past this size, it is rewritten down to live records only.
const DEFAULT_COMPACT_BYTES: u64 = 1 << 20;

/// One request the journal says was admitted but never finished — the
/// restart work list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingRequest {
    /// The request's resume token (idempotency key of the wire body).
    pub token: String,
    /// Request kind, `"sweep"` or `"analyze"`.
    pub kind: String,
    /// The verbatim wire body, ready to re-enqueue.
    pub body: String,
    /// Cells the journal marked as memoized before the crash.
    pub cells_done: usize,
}

/// In-memory mirror of one live (admitted, not yet done) request.
struct ReqState {
    token: String,
    kind: String,
    body: String,
    cells: Vec<u64>,
}

struct JournalState {
    file: File,
    /// Live requests in admission order (few at a time; linear scans
    /// are cheaper than keeping a map in sync with the order).
    live: Vec<ReqState>,
    /// Requests found pending at open, handed out once via
    /// [`Journal::take_pending`].
    pending: Vec<PendingRequest>,
    /// Approximate current file size, maintained across appends.
    bytes: u64,
    /// Unreadable (torn or corrupt) lines skipped during replay.
    skipped: u64,
    /// Compactions performed (open-time and runtime), cumulative —
    /// surfaced as an operator gauge via `/metrics`.
    compactions: u64,
}

/// A crash-safe request journal. Cloning the handle is cheap (`Arc`
/// inside); all clones append to one file under one lock.
pub struct Journal {
    path: PathBuf,
    compact_bytes: u64,
    state: Arc<Mutex<JournalState>>,
}

impl Clone for Journal {
    fn clone(&self) -> Journal {
        Journal {
            path: self.path.clone(),
            compact_bytes: self.compact_bytes,
            state: Arc::clone(&self.state),
        }
    }
}

impl Journal {
    /// Opens (creating if needed) the journal in store directory `dir`,
    /// replays it tolerantly, and compacts terminal records away.
    ///
    /// # Errors
    ///
    /// Fails only on real I/O errors — torn or corrupt lines are
    /// skipped, not fatal.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Journal> {
        Journal::open_with(dir, DEFAULT_COMPACT_BYTES)
    }

    /// [`Journal::open`] with an explicit runtime compaction threshold
    /// in bytes (tests use a tiny one to force compaction).
    pub fn open_with(dir: impl AsRef<Path>, compact_bytes: u64) -> std::io::Result<Journal> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let mut live: Vec<ReqState> = Vec::new();
        let mut skipped = 0u64;
        if let Ok(existing) = File::open(&path) {
            for line in raw_lines(existing) {
                // A line that is not UTF-8 is as unreadable as a torn one.
                match std::str::from_utf8(&line?).ok().and_then(Record::decode) {
                    Some(Record::Admit { token, kind, body }) => {
                        if !live.iter().any(|r| r.token == token) {
                            live.push(ReqState {
                                token,
                                kind,
                                body,
                                cells: Vec::new(),
                            });
                        }
                    }
                    Some(Record::Cell { token, key }) => {
                        // A mark for an unknown token (its admit line
                        // was torn) has nothing to attach to: skip it.
                        if let Some(r) = live.iter_mut().find(|r| r.token == token) {
                            if !r.cells.contains(&key) {
                                r.cells.push(key);
                            }
                        }
                    }
                    Some(Record::Done { token, .. }) => live.retain(|r| r.token != token),
                    Some(Record::Blank) => {}
                    None => skipped += 1,
                }
            }
        }
        // Compact on open: only live records survive the restart.
        let lines: Vec<String> = live.iter().flat_map(ReqState::encode).collect();
        atomic_rewrite(&path, &lines)?;
        let bytes = lines.iter().map(|l| l.len() as u64 + 1).sum();
        let pending = live
            .iter()
            .map(|r| PendingRequest {
                token: r.token.clone(),
                kind: r.kind.clone(),
                body: r.body.clone(),
                cells_done: r.cells.len(),
            })
            .collect();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Journal {
            path,
            compact_bytes,
            state: Arc::new(Mutex::new(JournalState {
                file,
                live,
                pending,
                bytes,
                skipped,
                compactions: 1, // the open-time compaction above
            })),
        })
    }

    /// The journal file path (for tests and diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The requests found admitted-but-unfinished at open time, in
    /// admission order. Draining: later calls return an empty list.
    pub fn take_pending(&self) -> Vec<PendingRequest> {
        std::mem::take(&mut self.lock().pending)
    }

    /// Unreadable lines skipped during the open-time replay.
    pub fn skipped_lines(&self) -> u64 {
        self.lock().skipped
    }

    /// Journals the admission of request `token` with its verbatim
    /// wire `body`. Idempotent: re-admitting a token the journal
    /// already holds live (a client re-attaching) writes nothing.
    ///
    /// # Errors
    ///
    /// Propagates append failures; the in-memory record is kept either
    /// way, so runtime compaction still writes it back.
    pub fn admit(&self, token: &str, kind: &str, body: &str) -> std::io::Result<()> {
        let mut st = self.lock();
        if st.live.iter().any(|r| r.token == token) {
            return Ok(());
        }
        let r = ReqState {
            token: token.to_string(),
            kind: kind.to_string(),
            body: body.to_string(),
            cells: Vec::new(),
        };
        let line = r.encode_admit();
        st.live.push(r);
        append(&mut st, &line)
    }

    /// Journals one cell of request `token` as memoized into the
    /// result store (duplicate marks write nothing).
    ///
    /// # Errors
    ///
    /// Propagates append failures.
    pub fn mark_cell(&self, token: &str, key: u64) -> std::io::Result<()> {
        let mut st = self.lock();
        let Some(r) = st.live.iter_mut().find(|r| r.token == token) else {
            return Ok(());
        };
        if r.cells.contains(&key) {
            return Ok(());
        }
        r.cells.push(key);
        let line = encode_cell(token, key);
        append(&mut st, &line)
    }

    /// Journals request `token` as terminal with `exit` code, then
    /// compacts the file if it outgrew the size threshold.
    ///
    /// # Errors
    ///
    /// Propagates append or rewrite failures.
    pub fn finish(&self, token: &str, exit: i32) -> std::io::Result<()> {
        let mut st = self.lock();
        if !st.live.iter().any(|r| r.token == token) {
            return Ok(());
        }
        st.live.retain(|r| r.token != token);
        let line = encode_done(token, exit);
        append(&mut st, &line)?;
        if st.bytes > self.compact_bytes {
            let lines: Vec<String> = st.live.iter().flat_map(ReqState::encode).collect();
            atomic_rewrite(&self.path, &lines)?;
            st.file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)?;
            st.bytes = lines.iter().map(|l| l.len() as u64 + 1).sum();
            st.compactions += 1;
        }
        Ok(())
    }

    /// Approximate journal file size in bytes (maintained across
    /// appends and compactions, no stat call).
    pub fn size_bytes(&self) -> u64 {
        self.lock().bytes
    }

    /// Compactions performed over this handle's lifetime, counting the
    /// open-time rewrite.
    pub fn compactions(&self) -> u64 {
        self.lock().compactions
    }

    /// Requests currently live (admitted, not yet finished).
    pub fn live_requests(&self) -> usize {
        self.lock().live.len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JournalState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Appends one sealed record line. The `journal-truncate` fail point
/// (one-shot) tears the write in half — the bytes of a crash that
/// landed mid-append — and reports success, exactly like a real crash
/// would look to the (now dead) writer.
fn append(st: &mut JournalState, line: &str) -> std::io::Result<()> {
    let mut full = line.to_string();
    full.push('\n');
    if failpoint::take("journal-truncate").is_some() {
        st.file.write_all(&full.as_bytes()[..full.len() / 2])?;
        st.bytes += full.len() as u64 / 2;
        return st.file.flush();
    }
    st.file.write_all(full.as_bytes())?;
    st.bytes += full.len() as u64;
    st.file.flush()
}

/// Seals a rendered JSON object with the store's trailing-CRC field.
fn seal(mut body: String) -> String {
    assert_eq!(body.pop(), Some('}'));
    let crc = crc32(body.as_bytes());
    body.push_str(&format!(",\"crc\":\"{crc:08x}\"}}"));
    body
}

fn encode_cell(token: &str, key: u64) -> String {
    seal(
        Value::Obj(vec![
            ("v".into(), Value::u64(u64::from(JOURNAL_FORMAT_VERSION))),
            ("t".into(), Value::str("cell")),
            ("req".into(), Value::str(token)),
            ("key".into(), Value::str(&format!("{key:016x}"))),
        ])
        .render(),
    )
}

fn encode_done(token: &str, exit: i32) -> String {
    seal(
        Value::Obj(vec![
            ("v".into(), Value::u64(u64::from(JOURNAL_FORMAT_VERSION))),
            ("t".into(), Value::str("done")),
            ("req".into(), Value::str(token)),
            ("exit".into(), Value::u64(exit.unsigned_abs().into())),
        ])
        .render(),
    )
}

impl ReqState {
    fn encode_admit(&self) -> String {
        seal(
            Value::Obj(vec![
                ("v".into(), Value::u64(u64::from(JOURNAL_FORMAT_VERSION))),
                ("t".into(), Value::str("admit")),
                ("req".into(), Value::str(&self.token)),
                ("kind".into(), Value::str(&self.kind)),
                ("body".into(), Value::str(&self.body)),
            ])
            .render(),
        )
    }

    /// Every line this request contributes to a compacted file.
    fn encode(&self) -> Vec<String> {
        let mut lines = vec![self.encode_admit()];
        lines.extend(self.cells.iter().map(|&k| encode_cell(&self.token, k)));
        lines
    }
}

/// One decoded journal line.
enum Record {
    Admit {
        token: String,
        kind: String,
        body: String,
    },
    Cell {
        token: String,
        key: u64,
    },
    Done {
        token: String,
        #[allow(dead_code)] // recorded for operators; replay only needs terminality
        exit: u64,
    },
    Blank,
}

impl Record {
    /// `None` = torn, bit-rotted or malformed: skipped by replay.
    fn decode(line: &str) -> Option<Record> {
        if line.trim().is_empty() {
            return Some(Record::Blank);
        }
        let v = Value::parse(line).ok()?;
        if v.get("v").and_then(Value::as_u64) != Some(u64::from(JOURNAL_FORMAT_VERSION)) {
            return None;
        }
        let (covered, stored) = split_crc(line)?;
        if crc32(covered.as_bytes()) != stored {
            return None;
        }
        let token = v.get("req")?.as_str()?.to_string();
        match v.get("t")?.as_str()? {
            "admit" => Some(Record::Admit {
                token,
                kind: v.get("kind")?.as_str()?.to_string(),
                body: v.get("body")?.as_str()?.to_string(),
            }),
            "cell" => {
                let hex = v.get("key")?.as_str()?;
                if hex.len() != 16 {
                    return None;
                }
                Some(Record::Cell {
                    token,
                    key: u64::from_str_radix(hex, 16).ok()?,
                })
            }
            "done" => Some(Record::Done {
                token,
                exit: v.get("exit")?.as_u64()?,
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fail_points_held, temp_dir};

    #[test]
    fn admit_cell_finish_round_trips_to_empty_pending() {
        let _g = fail_points_held();
        let dir = temp_dir("journal-roundtrip");
        {
            let j = Journal::open(&dir).unwrap();
            assert!(j.take_pending().is_empty());
            j.admit("tok1", "sweep", "{\"benches\":[\"gzip\"]}")
                .unwrap();
            j.mark_cell("tok1", 0xabcd).unwrap();
            j.mark_cell("tok1", 0xabcd).unwrap(); // duplicate: no-op
            j.finish("tok1", 0).unwrap();
        }
        let j = Journal::open(&dir).unwrap();
        assert!(j.take_pending().is_empty(), "terminal request pruned");
        assert_eq!(j.skipped_lines(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unfinished_request_survives_restart_with_its_cell_marks() {
        let _g = fail_points_held();
        let dir = temp_dir("journal-pending");
        {
            let j = Journal::open(&dir).unwrap();
            j.admit("tok1", "sweep", "{\"b\":1}").unwrap();
            j.admit("tok2", "analyze", "{\"b\":2}").unwrap();
            j.mark_cell("tok1", 1).unwrap();
            j.mark_cell("tok1", 2).unwrap();
            j.finish("tok2", 0).unwrap();
            // tok1 never finishes: the daemon "crashes" here.
        }
        let j = Journal::open(&dir).unwrap();
        let pending = j.take_pending();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].token, "tok1");
        assert_eq!(pending[0].kind, "sweep");
        assert_eq!(pending[0].body, "{\"b\":1}");
        assert_eq!(pending[0].cells_done, 2);
        assert!(j.take_pending().is_empty(), "pending drains once");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_skipped_not_fatal() {
        let _g = fail_points_held();
        let dir = temp_dir("journal-torn");
        let path = {
            let j = Journal::open(&dir).unwrap();
            j.admit("tok1", "sweep", "{}").unwrap();
            j.path().to_path_buf()
        };
        // A kill -9 mid-append: half an admit record, no newline.
        let torn = {
            let full = ReqState {
                token: "tok2".into(),
                kind: "sweep".into(),
                body: "{}".into(),
                cells: Vec::new(),
            }
            .encode_admit();
            full[..full.len() / 2].to_string()
        };
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(&torn);
        std::fs::write(&path, &text).unwrap();

        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.skipped_lines(), 1);
        let pending = j.take_pending();
        assert_eq!(pending.len(), 1, "intact record survives the torn one");
        assert_eq!(pending[0].token, "tok1");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_invalid_utf8_byte_is_skipped_not_fatal() {
        let _g = fail_points_held();
        let dir = temp_dir("journal-utf8");
        let path = {
            let j = Journal::open(&dir).unwrap();
            j.admit("tok1", "sweep", "{}").unwrap();
            j.admit("tok2", "sweep", "{}").unwrap();
            j.mark_cell("tok1", 7).unwrap();
            j.path().to_path_buf()
        };
        // Flip the high bit of one ASCII byte in tok2's admit line.
        let mut bytes = std::fs::read(&path).unwrap();
        let start = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        bytes[start + 4] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();

        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.skipped_lines(), 1);
        let pending = j.take_pending();
        assert_eq!(pending.len(), 1, "the intact records still replay");
        assert_eq!(pending[0].token, "tok1");
        assert_eq!(pending[0].cells_done, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_compacts_terminal_records_away() {
        let _g = fail_points_held();
        let dir = temp_dir("journal-compact-open");
        {
            let j = Journal::open(&dir).unwrap();
            for i in 0..10 {
                let tok = format!("tok{i}");
                j.admit(&tok, "sweep", "{}").unwrap();
                j.mark_cell(&tok, i).unwrap();
                j.finish(&tok, 0).unwrap();
            }
            j.admit("live", "sweep", "{}").unwrap();
        }
        let j = Journal::open(&dir).unwrap();
        let text = std::fs::read_to_string(j.path()).unwrap();
        assert_eq!(text.lines().count(), 1, "only the live admit survives");
        assert!(text.contains("\"live\""));
        assert_eq!(j.take_pending().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn size_threshold_compacts_at_runtime() {
        let _g = fail_points_held();
        let dir = temp_dir("journal-compact-size");
        // A threshold small enough that a couple of finished requests
        // trip it; the file must never grow without bound.
        let j = Journal::open_with(&dir, 256).unwrap();
        for i in 0..50 {
            let tok = format!("tok{i}");
            j.admit(&tok, "sweep", "{\"pad\":\"xxxxxxxxxxxxxxxx\"}")
                .unwrap();
            j.finish(&tok, 0).unwrap();
        }
        j.admit("live", "sweep", "{}").unwrap();
        let size = std::fs::metadata(j.path()).unwrap().len();
        assert!(size < 1024, "compaction must bound the file, got {size}");
        // The operator gauges track what the file system shows.
        assert!(j.compactions() > 1, "runtime compactions counted");
        assert_eq!(j.size_bytes(), size);
        assert_eq!(j.live_requests(), 1);
        drop(j);
        // Replay after runtime compaction still resumes correctly.
        let j = Journal::open(&dir).unwrap();
        let pending = j.take_pending();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].token, "live");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_truncate_fail_point_tears_one_append() {
        let _g = fail_points_held();
        let dir = temp_dir("journal-failpoint");
        {
            let j = Journal::open(&dir).unwrap();
            j.admit("tok1", "sweep", "{}").unwrap();
            failpoint::set(Some("journal-truncate"));
            // This mark is torn mid-write (and the point disarms).
            j.mark_cell("tok1", 7).unwrap();
            failpoint::set(None);
            j.mark_cell("tok1", 8).unwrap();
        }
        let j = Journal::open(&dir).unwrap();
        let pending = j.take_pending();
        assert_eq!(pending.len(), 1);
        // The torn mark is lost; the garbled line (torn bytes + next
        // record) is skipped, so at most the intact admit survives —
        // losing marks is safe (the store still answers those cells).
        assert!(pending[0].cells_done <= 1);
        assert!(j.skipped_lines() >= 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn admit_is_idempotent_for_a_live_token() {
        let _g = fail_points_held();
        let dir = temp_dir("journal-idem");
        let j = Journal::open(&dir).unwrap();
        j.admit("tok1", "sweep", "{}").unwrap();
        j.admit("tok1", "sweep", "{}").unwrap();
        let text = std::fs::read_to_string(j.path()).unwrap();
        assert_eq!(text.lines().count(), 1, "re-admit writes nothing");
        std::fs::remove_dir_all(&dir).ok();
    }
}
