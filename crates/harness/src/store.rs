//! Content-addressed, append-only, self-healing result store.
//!
//! Each finished job is recorded as one JSON line under a 64-bit
//! content key derived from the workload name and the full simulator
//! configuration (which includes the strategy and the instruction
//! budget). Re-running the same cell therefore finds the stored report
//! and skips simulation entirely.
//!
//! ## On-disk layout
//!
//! The store is a directory (by default `target/ctcp-results/`) holding
//! one JSON-lines file, `results.jsonl`. Every line is an envelope
//! whose last field is a CRC-32 of everything before it:
//!
//! ```text
//! {"v":4,"key":"<16 hex digits>","workload":"gzip","report":{...},"crc":"<8 hex>"}
//! ```
//!
//! Lines are only ever appended; the newest line for a key wins at
//! load time, when every decodable line is folded into an in-memory
//! index keyed by the (already uniformly distributed) content key, so
//! cache probes are a single O(1) map lookup. The store is a cache,
//! never an authority — but it is a *self-healing* cache:
//!
//! * **corrupt** lines (unparseable JSON, CRC mismatch, malformed key,
//!   undecodable report) are moved to `results.quarantine.jsonl` at
//!   open time and the file is atomically rewritten without them, so
//!   one torn write from a killed run never degrades every later load,
//!   and the evidence survives for inspection;
//! * **stale** lines (older format versions) are kept in place and
//!   simply miss — their keys changed with the version salt anyway;
//! * appends take the store's **advisory lock** (`results.lock`) just
//!   long enough for one single-`write` append, so writers in other
//!   processes never interleave bytes within a line. The lock file is
//!   a pure token and is removed best-effort when the last handle
//!   drops;
//! * an append handle **follows the files**: compaction and a heal
//!   replace `results.jsonl` (temp file + rename) under the same lock,
//!   and the next append, seeing another file at the path, reopens it
//!   rather than write into the replaced one; a lock taken on a token
//!   that was removed meanwhile is retaken on a reopened token.
//!
//! Offline maintenance lives in [`verify`], [`compact`] and [`gc`],
//! surfaced as `ctcp store` subcommands. `compact` and `gc` hold the
//! lock across the read and the rewrite, so an append waits for them
//! instead of falling between the two.

use ctcp_sim::json::Value;
use ctcp_sim::{SimConfig, SimReport};
use ctcp_telemetry::failpoint;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// How long the read-only circuit breaker waits between disk
/// re-probes: while degraded, one append per interval is allowed to
/// touch the disk, and its success flips the store writable again.
const PROBE_INTERVAL: Duration = Duration::from_millis(500);

/// Version salt folded into every key. Bump when the report schema or
/// the envelope changes; old store contents then miss cleanly. History:
/// v2 added the CRC field; v3 added the optional per-cell attribution
/// payload (`report.attrib`), reusing the v2 CRC machinery unchanged;
/// v4 added the warmup/measure split (`SimConfig::warmup_insts`) — a
/// v3 line records a run whose whole budget was timed, which is not
/// the same cell as a warmed-up run, so v3 lines are classified
/// [`Line::Stale`] and simply miss.
pub const STORE_FORMAT_VERSION: u32 = 4;

/// The store's report file, its quarantine and its lock token, each
/// directly inside the store directory.
const RESULTS: &str = "results.jsonl";
const QUARANTINE: &str = "results.quarantine.jsonl";
const LOCK: &str = "results.lock";

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The content key of one job: FNV-1a 64 over the store version, the
/// workload name, and the `Debug` rendering of the configuration.
///
/// Hashing the `Debug` form means *every* config field participates —
/// adding a field to [`SimConfig`] automatically changes the keys of
/// affected cells, so stale results can never be returned for a config
/// the simulator has since learned to distinguish.
pub fn job_key(workload: &str, config: &SimConfig) -> u64 {
    let mut h = Fnv::new();
    h.write(&STORE_FORMAT_VERSION.to_le_bytes());
    h.write(workload.as_bytes());
    h.write(&[0]); // separator: name must not bleed into the config text
    h.write(format!("{config:?}").as_bytes());
    h.0
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes` —
/// the checksum zlib and PNG use. Hand-rolled because the build is
/// fully offline; the 256-entry table is built at compile time.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut t = [0u32; 256];
        let mut i = 0usize;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    };
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Pass-through hasher for the in-memory index. Store keys are already
/// FNV-1a 64 outputs — uniformly distributed by construction — so
/// rehashing them on every probe buys nothing.
#[derive(Debug, Default, Clone, Copy)]
struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    /// Correctness fallback only; `HashMap<u64, _>` uses `write_u64`.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// The in-memory index: content key → newest decoded report.
type KeyIndex = HashMap<u64, SimReport, std::hash::BuildHasherDefault<KeyHasher>>;

/// Cumulative counters for one store handle's lifetime.
#[derive(Debug, Default, Clone, Copy)]
pub struct StoreStats {
    /// Distinct keys currently resident.
    pub entries: usize,
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Reports written this session.
    pub puts: u64,
    /// Corrupt lines moved to the quarantine file when this handle
    /// opened the store.
    pub quarantined: u64,
    /// Stale lock tokens (stamped by a now-dead owner, lock free)
    /// reclaimed when this handle opened the store: 0 or 1.
    pub reclaimed: u64,
}

/// A memoizing report store backed by one JSON-lines file and an
/// in-memory key index.
///
/// The handle is cheaply cloneable — clones share one open store
/// (`Arc` inside), so a daemon can hand every worker and every request
/// the same warm index. `get` and `put` take `&self`: readers probe
/// the index under a shared read lock (the cache fast path), and a
/// writer takes the write lock only for the in-memory insert, then
/// appends under the append mutex and the on-disk advisory lock.
pub struct ResultStore {
    inner: Arc<StoreInner>,
}

impl Clone for ResultStore {
    fn clone(&self) -> ResultStore {
        ResultStore {
            inner: Arc::clone(&self.inner),
        }
    }
}

struct StoreInner {
    dir: PathBuf,
    /// Content key → newest decoded report. A probe never waits on an
    /// in-flight append: appends hold the write lock only for the
    /// insert.
    index: RwLock<KeyIndex>,
    append: Mutex<Appender>,
    hits: AtomicU64,
    misses: AtomicU64,
    puts: AtomicU64,
    /// Set once at open time, constant afterwards.
    quarantined: u64,
    /// Stale lock tokens reclaimed at open time, constant afterwards.
    reclaimed: u64,
    /// Degraded mode: a failed append tripped the circuit breaker, so
    /// appends short-circuit (the in-memory index still serves) until
    /// a periodic probe write succeeds again.
    read_only: AtomicBool,
    /// When the breaker last let an append probe the disk.
    probe_at: Mutex<Option<Instant>>,
}

/// The append side of an open store: the handle to `results.jsonl` and
/// the advisory lock token, `results.lock`. Each is reopened when its
/// path no longer names the file it holds ([`follow_replacement`],
/// [`lock_token`]).
struct Appender {
    file: File,
    lock: File,
}

impl ResultStore {
    /// The conventional store location, `target/ctcp-results`, relative
    /// to the current directory.
    pub fn default_dir() -> PathBuf {
        PathBuf::from("target").join("ctcp-results")
    }

    /// Opens (creating if needed) the store in `dir`, loads every
    /// decodable line into the in-memory index, and self-heals:
    /// corrupt lines are appended to the quarantine file and the store
    /// file is atomically rewritten without them.
    ///
    /// # Errors
    ///
    /// Fails only on real I/O errors (permissions, unwritable path) —
    /// malformed lines are quarantined, not fatal.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<ResultStore> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(RESULTS);
        let lock_path = dir.join(LOCK);
        let (mut lock, was_stale) = open_lock(&lock_path)?;
        let mut index = KeyIndex::default();
        let mut quarantined = 0u64;
        // First pass, lock-free: the common case is a clean file, and a
        // clean open must never block behind maintenance or another
        // handle's append.
        if !scan(&path, &mut index)?.1.is_empty() {
            // Damage found. Re-scan *under the lock* so the heal
            // rewrite cannot race a concurrent append (a line landing
            // between a lock-free scan and the rewrite would otherwise
            // be silently dropped). Another handle may have healed it
            // in between; then there is nothing to rewrite.
            lock_token(&lock_path, &mut lock)?;
            let healed = (|| {
                let (clean, corrupt) = scan(&path, &mut index)?;
                if corrupt.is_empty() {
                    return Ok(());
                }
                quarantined = corrupt.len() as u64;
                append_lines(&dir.join(QUARANTINE), &corrupt)?;
                atomic_rewrite(&path, &clean)
            })();
            let _ = lock.unlock();
            healed?;
        }
        Ok(ResultStore {
            inner: Arc::new(StoreInner {
                dir: dir.to_path_buf(),
                index: RwLock::new(index),
                append: Mutex::new(Appender {
                    file: open_append(&path)?,
                    lock,
                }),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                puts: AtomicU64::new(0),
                quarantined,
                reclaimed: u64::from(was_stale),
                read_only: AtomicBool::new(false),
                probe_at: Mutex::new(None),
            }),
        })
    }

    /// The store directory this handle is backed by.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// Looks up `key` in the in-memory index, counting the outcome.
    /// Readers only take the index's read lock — never the append
    /// path — so concurrent cache probes proceed in parallel with each
    /// other and wait on a writer only for its in-memory insert.
    pub fn get(&self, key: u64) -> Option<SimReport> {
        let found = self
            .inner
            .index
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .cloned();
        match found {
            Some(r) => {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                Some(r)
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Records `report` under `key`: the in-memory insert under the
    /// index write lock, then one line appended to `results.jsonl` in
    /// a single write under the append mutex and the on-disk advisory
    /// lock, then flushed — so a killed run loses at most the
    /// in-flight report and concurrent writers (in this process or
    /// another) never interleave bytes within a line.
    ///
    /// # Errors
    ///
    /// Propagates write failures; the in-memory copy is kept either
    /// way, so the current process still benefits. A failure also
    /// trips the read-only circuit breaker: until a later append
    /// re-probes the disk successfully (at most one probe per
    /// [`PROBE_INTERVAL`]), further puts fail fast without touching
    /// the disk — degraded, not crashed.
    pub fn put(&self, key: u64, workload: &str, report: &SimReport) -> std::io::Result<()> {
        self.inner.puts.fetch_add(1, Ordering::Relaxed);
        self.inner
            .index
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, report.clone());
        if self.inner.read_only.load(Ordering::Acquire) && !self.probe_due() {
            return Err(std::io::Error::other(
                "store is read-only (degraded after a write failure)",
            ));
        }
        let mut line = encode_line(key, workload, report);
        line.push('\n');
        let mut guard = self
            .inner
            .append
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let app = &mut *guard;
        // Fault injection: the `store-truncate` fail point models a
        // crash mid-append — half the bytes land, no newline. The next
        // open must quarantine the torn line, not choke on it.
        if failpoint::is_active("store-truncate") {
            app.file.write_all(&line.as_bytes()[..line.len() / 2])?;
            return app.file.flush();
        }
        // The `disk-full` fail point makes every append fail the way a
        // full filesystem would, exercising the degradation ladder.
        let appended = if failpoint::is_active("disk-full") {
            Err(std::io::Error::other(
                "no space left on device (fail point)",
            ))
        } else {
            lock_token(&self.inner.dir.join(LOCK), &mut app.lock)?;
            let r = follow_replacement(&self.inner.dir.join(RESULTS), &mut app.file)
                .and_then(|()| app.file.write_all(line.as_bytes()))
                .and_then(|()| app.file.flush());
            let _ = app.lock.unlock();
            r
        };
        match appended {
            Ok(()) => {
                if self.inner.read_only.swap(false, Ordering::AcqRel) {
                    *self
                        .inner
                        .probe_at
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner) = None;
                }
                Ok(())
            }
            Err(e) => {
                // Trip (or re-arm) the breaker and start the probe
                // clock: the next disk touch is one interval away.
                self.inner.read_only.store(true, Ordering::Release);
                *self
                    .inner
                    .probe_at
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner) = Some(Instant::now());
                Err(e)
            }
        }
    }

    /// True while the read-only circuit breaker is tripped: appends
    /// fail fast, lookups still serve. The sweep service refuses new
    /// uncached work with 503 + `Retry-After` while this holds.
    pub fn read_only(&self) -> bool {
        self.inner.read_only.load(Ordering::Acquire)
    }

    /// Whether a degraded-mode append may probe the disk now; stamps
    /// the probe time so at most one probe runs per interval.
    fn probe_due(&self) -> bool {
        let mut at = self
            .inner
            .probe_at
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match *at {
            Some(t) if t.elapsed() < PROBE_INTERVAL => false,
            _ => {
                *at = Some(Instant::now());
                true
            }
        }
    }

    /// Counters for this shared store (cumulative across every clone
    /// of the handle). `entries` is computed from the live index.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            entries: self
                .inner
                .index
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            puts: self.inner.puts.load(Ordering::Relaxed),
            quarantined: self.inner.quarantined,
            reclaimed: self.inner.reclaimed,
        }
    }
}

impl Drop for StoreInner {
    /// Best-effort lock-file cleanup, run when the last clone of the
    /// handle drops: the lock file is a pure token, so the last handle
    /// out removes it.
    fn drop(&mut self) {
        let app = self
            .append
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        remove_token_if_free(&self.dir.join(LOCK), &app.lock);
    }
}

/// Opens `path` for appending, creating it if needed.
fn open_append(path: &Path) -> std::io::Result<File> {
    OpenOptions::new().create(true).append(true).open(path)
}

/// Whether `path` names the file `held` has open; a missing path names
/// nothing. Without unix file identities the answer is always yes.
#[cfg(unix)]
fn names(path: &Path, held: &File) -> std::io::Result<bool> {
    use std::os::unix::fs::MetadataExt;
    let held = held.metadata()?;
    match std::fs::metadata(path) {
        Ok(now) => Ok((now.dev(), now.ino()) == (held.dev(), held.ino())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(e),
    }
}

#[cfg(not(unix))]
fn names(_path: &Path, _held: &File) -> std::io::Result<bool> {
    Ok(true)
}

/// Reopens `file` when `path` no longer names it: compaction, or
/// another handle's heal, replaced it by a rename, and an append to the
/// replaced file would vanish with it. Called under the advisory lock,
/// which every replacement holds too.
fn follow_replacement(path: &Path, file: &mut File) -> std::io::Result<()> {
    if !names(path, file)? {
        *file = open_append(path)?;
    }
    Ok(())
}

/// Takes the advisory lock on the token at `path`. The last handle out
/// and a finished compaction remove a free token, and a lock on a
/// removed token excludes nobody, so a lock taken on a file `path` no
/// longer names is dropped and taken again on a reopened token.
fn lock_token(path: &Path, lock: &mut File) -> std::io::Result<()> {
    loop {
        lock.lock()?;
        if names(path, lock)? {
            return Ok(());
        }
        let _ = lock.unlock();
        *lock = open_lock(path)?.0;
    }
}

/// Removes the token at `path` when nobody holds its lock and `path`
/// still names the file `lock` has open. `try_lock` skips the window
/// where another handle is mid-append (that handle's own drop will
/// collect the file instead).
fn remove_token_if_free(path: &Path, lock: &File) {
    if lock.try_lock().is_ok() {
        if names(path, lock).unwrap_or(false) {
            let _ = std::fs::remove_file(path);
        }
        let _ = lock.unlock();
    }
}

/// Reads the store file, folding valid reports into `index` (newest
/// line wins) and returning its `(clean, corrupt)` lines. A missing
/// file scans as empty.
fn scan(path: &Path, index: &mut KeyIndex) -> std::io::Result<(Vec<RawLine>, Vec<RawLine>)> {
    let mut clean = Vec::new();
    let mut corrupt = Vec::new();
    if let Ok(existing) = File::open(path) {
        for line in raw_lines(existing) {
            let line = line?;
            match classify_line(&line) {
                Line::Valid { key, report } => {
                    index.insert(key, *report);
                    clean.push(line);
                }
                Line::Stale => clean.push(line),
                Line::Blank => {}
                Line::Corrupt => corrupt.push(line),
            }
        }
    }
    Ok((clean, corrupt))
}

/// Opens (creating if needed) a lock-token file, stamping ownership.
///
/// The token carries `<owner-pid> <unix-seconds>` purely as forensic
/// metadata — the advisory lock is the real mutual exclusion, and the
/// OS releases it when the owner dies, SIGKILL included. What a kill
/// leaves behind is the *file*, stamped by a dead pid: if the lock is
/// free, this open reclaims it (restamps with our pid and the current
/// time) and reports whether the previous stamp named a dead owner,
/// so maintenance never wedges on a tombstone and `StoreStats` can
/// count the reclamation. A held lock is left untouched.
fn open_lock(path: &Path) -> std::io::Result<(File, bool)> {
    let mut file = OpenOptions::new()
        .create(true)
        .read(true)
        .write(true)
        .truncate(false) // never clobber a live owner's stamp unlocked
        .open(path)?;
    let mut was_stale = false;
    if file.try_lock().is_ok() {
        let mut prev = String::new();
        let _ = file.read_to_string(&mut prev);
        if let Some(pid) = prev
            .split_whitespace()
            .next()
            .and_then(|s| s.parse::<u32>().ok())
        {
            was_stale = pid != std::process::id() && !pid_alive(pid);
        }
        let epoch = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        let stamp = format!("{} {epoch}\n", std::process::id());
        let restamped = file
            .set_len(0)
            .and_then(|()| file.seek(SeekFrom::Start(0)).map(|_| ()))
            .and_then(|()| file.write_all(stamp.as_bytes()))
            .and_then(|()| file.flush());
        let _ = file.unlock();
        restamped?;
    }
    Ok((file, was_stale))
}

/// Best-effort liveness check for a stamped lock owner.
fn pid_alive(pid: u32) -> bool {
    if pid == std::process::id() {
        return true;
    }
    #[cfg(target_os = "linux")]
    {
        Path::new(&format!("/proc/{pid}")).exists()
    }
    #[cfg(not(target_os = "linux"))]
    {
        // No portable probe; a free lock is evidence enough — treat
        // the owner as gone so reclamation still reports.
        false
    }
}

/// Appends `lines` to `path` in one write.
fn append_lines(path: &Path, lines: &[RawLine]) -> std::io::Result<()> {
    let mut f = OpenOptions::new().create(true).append(true).open(path)?;
    let mut buf = Vec::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for line in lines {
        buf.extend_from_slice(line);
        buf.push(b'\n');
    }
    f.write_all(&buf)?;
    f.flush()
}

/// One line of a store or journal file as written, without its line
/// ending: bytes, not text, so a line that is not UTF-8 can be judged
/// corrupt on its own and quarantined byte for byte.
pub(crate) type RawLine = Vec<u8>;

/// The lines of `file`, split as [`BufRead::lines`] splits them (at
/// `\n`, dropping a `\r` before it) but left undecoded: one invalid
/// UTF-8 byte spoils its own line instead of failing the whole read.
pub(crate) fn raw_lines(file: File) -> impl Iterator<Item = std::io::Result<RawLine>> {
    BufReader::new(file).split(b'\n').map(|line| {
        line.map(|mut line| {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            line
        })
    })
}

/// Atomically replaces `path` with `lines` via a temp file + rename,
/// so a crash mid-rewrite leaves either the old file or the new one —
/// never a half-written store.
pub(crate) fn atomic_rewrite(path: &Path, lines: &[impl AsRef<[u8]>]) -> std::io::Result<()> {
    let tmp = path.with_extension("jsonl.tmp");
    {
        let mut f = File::create(&tmp)?;
        for line in lines {
            f.write_all(line.as_ref())?;
            f.write_all(b"\n")?;
        }
        f.flush()?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

fn encode_line(key: u64, workload: &str, report: &SimReport) -> String {
    // The report is embedded as a parsed value, not a pre-rendered
    // string, so the envelope stays one well-formed JSON document.
    let report = Value::parse(&report.to_json()).expect("report encoding is valid JSON");
    let mut body = Value::Obj(vec![
        ("v".into(), Value::u64(u64::from(STORE_FORMAT_VERSION))),
        ("key".into(), Value::str(&format!("{key:016x}"))),
        ("workload".into(), Value::str(workload)),
        ("report".into(), report),
    ])
    .render();
    // The CRC covers the raw bytes before its own field, so a verifier
    // works on the line as written — no re-rendering, no float drift.
    assert_eq!(body.pop(), Some('}'));
    let crc = crc32(body.as_bytes());
    body.push_str(&format!(",\"crc\":\"{crc:08x}\"}}"));
    body
}

/// What one raw store line turned out to be.
enum Line {
    /// A current-version envelope with a matching checksum. The report
    /// is boxed so the common no-payload variants stay enum-cheap.
    Valid {
        /// The content key the line stores.
        key: u64,
        /// The decoded report.
        report: Box<SimReport>,
    },
    /// Well-formed but from an older format version: skipped, kept.
    Stale,
    /// Whitespace only (e.g. an editor's trailing newline): ignored.
    Blank,
    /// Torn, bit-rotted or malformed: quarantined.
    Corrupt,
}

/// Splits a v2 line into (bytes-the-CRC-covers, stored CRC).
pub(crate) fn split_crc(line: &str) -> Option<(&str, u32)> {
    let tail = line.strip_suffix('}')?;
    // The envelope's own crc field is rendered last, so the final
    // occurrence is always it — even if the report contained the text.
    let idx = tail.rfind(",\"crc\":\"")?;
    let hex = tail[idx..].strip_prefix(",\"crc\":\"")?.strip_suffix('"')?;
    if hex.len() != 8 {
        return None;
    }
    Some((&tail[..idx], u32::from_str_radix(hex, 16).ok()?))
}

fn classify_line(raw: &[u8]) -> Line {
    let Ok(line) = std::str::from_utf8(raw) else {
        return Line::Corrupt;
    };
    if line.trim().is_empty() {
        return Line::Blank;
    }
    let Ok(v) = Value::parse(line) else {
        return Line::Corrupt;
    };
    let Some(ver) = v.get("v").and_then(Value::as_u64) else {
        return Line::Corrupt;
    };
    if ver != u64::from(STORE_FORMAT_VERSION) {
        return Line::Stale;
    }
    let Some((covered, stored)) = split_crc(line) else {
        return Line::Corrupt;
    };
    if crc32(covered.as_bytes()) != stored {
        return Line::Corrupt;
    }
    let Some(key) = v
        .get("key")
        .and_then(Value::as_str)
        .filter(|s| s.len() == 16)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
    else {
        return Line::Corrupt;
    };
    let Some(report) = v.get("report").and_then(|r| SimReport::from_value(r).ok()) else {
        return Line::Corrupt;
    };
    Line::Valid {
        key,
        report: Box::new(report),
    }
}

/// What [`verify`] found in a store directory.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VerifyReport {
    /// Non-blank lines scanned.
    pub lines: usize,
    /// Current-version lines with matching checksums.
    pub valid: usize,
    /// Well-formed lines from older format versions.
    pub stale: usize,
    /// Torn, bit-rotted or malformed lines.
    pub corrupt: usize,
    /// Distinct keys the valid lines resolve to.
    pub entries: usize,
}

/// Read-only integrity scan of the store file in `dir`. Touches
/// nothing — no quarantine, no healing, no locks — so it is safe to
/// run concurrently with a sweep.
///
/// # Errors
///
/// Propagates real I/O errors; a missing store verifies as empty.
pub fn verify(dir: impl AsRef<Path>) -> std::io::Result<VerifyReport> {
    let mut rep = VerifyReport::default();
    let Ok(existing) = File::open(dir.as_ref().join(RESULTS)) else {
        return Ok(rep);
    };
    let mut keys = std::collections::HashSet::new();
    for line in raw_lines(existing) {
        match classify_line(&line?) {
            Line::Valid { key, .. } => {
                rep.lines += 1;
                rep.valid += 1;
                keys.insert(key);
            }
            Line::Stale => {
                rep.lines += 1;
                rep.stale += 1;
            }
            Line::Blank => {}
            Line::Corrupt => {
                rep.lines += 1;
                rep.corrupt += 1;
            }
        }
    }
    rep.entries = keys.len();
    Ok(rep)
}

/// What [`compact`] did to a store directory.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// Lines kept (one per distinct key — the newest).
    pub kept: usize,
    /// Valid lines dropped because a newer line held the same key.
    pub superseded: usize,
    /// Old-format lines dropped (their keys can never hit again).
    pub stale: usize,
    /// Corrupt lines moved to the quarantine file.
    pub quarantined: usize,
}

/// Rewrites the store in `dir` down to one line per key — the newest —
/// dropping stale-version lines and quarantining corrupt ones. The
/// advisory lock is held across the read and the rewrite, so a
/// concurrent append cannot fall between them; the lock file is
/// removed afterwards if no other handle holds it. The rewrite is
/// atomic (temp file + rename); surviving lines keep their original
/// bytes and relative order.
///
/// # Errors
///
/// Propagates real I/O errors; a missing store compacts to empty.
pub fn compact(dir: impl AsRef<Path>) -> std::io::Result<CompactReport> {
    let dir = dir.as_ref();
    let path = dir.join(RESULTS);
    let mut rep = CompactReport::default();
    if !path.exists() {
        return Ok(rep);
    }
    let lock_path = dir.join(LOCK);
    let (mut lock, _) = open_lock(&lock_path)?;
    lock_token(&lock_path, &mut lock)?;
    let compacted = compact_locked(dir, &path, &mut rep);
    let _ = lock.unlock();
    remove_token_if_free(&lock_path, &lock);
    compacted.map(|()| rep)
}

fn compact_locked(dir: &Path, path: &Path, rep: &mut CompactReport) -> std::io::Result<()> {
    let Ok(existing) = File::open(path) else {
        return Ok(());
    };
    // (key, raw line) per valid line, in file order; last wins.
    let mut valid: Vec<(u64, RawLine)> = Vec::new();
    let mut corrupt: Vec<RawLine> = Vec::new();
    for line in raw_lines(existing) {
        let line = line?;
        match classify_line(&line) {
            Line::Valid { key, .. } => valid.push((key, line)),
            Line::Stale => rep.stale += 1,
            Line::Blank => {}
            Line::Corrupt => corrupt.push(line),
        }
    }
    rep.quarantined += corrupt.len();
    if !corrupt.is_empty() {
        append_lines(&dir.join(QUARANTINE), &corrupt)?;
    }
    // Keep only each key's final occurrence, preserving its position.
    let mut last: HashMap<u64, usize> = HashMap::new();
    for (i, (key, _)) in valid.iter().enumerate() {
        last.insert(*key, i);
    }
    let kept: Vec<RawLine> = valid
        .iter()
        .enumerate()
        .filter(|(i, (key, _))| last[key] == *i)
        .map(|(_, (_, line))| line.clone())
        .collect();
    rep.kept += kept.len();
    rep.superseded += valid.len() - kept.len();
    atomic_rewrite(path, &kept)
}

/// What [`gc`] reclaimed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GcReport {
    /// The compaction that ran first.
    pub compact: CompactReport,
    /// Bytes of quarantined evidence deleted.
    pub quarantine_bytes: u64,
}

/// Full garbage collection: [`compact`], then delete the quarantine
/// file — use once quarantined lines have been inspected (or given up
/// on).
///
/// # Errors
///
/// Propagates real I/O errors from either step.
pub fn gc(dir: impl AsRef<Path>) -> std::io::Result<GcReport> {
    let dir = dir.as_ref();
    let compact = compact(dir)?;
    let qpath = dir.join(QUARANTINE);
    let mut quarantine_bytes = 0u64;
    if let Ok(m) = std::fs::metadata(&qpath) {
        std::fs::remove_file(&qpath)?;
        quarantine_bytes = m.len();
    }
    Ok(GcReport {
        compact,
        quarantine_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fail_points_held, sample_report, temp_dir};

    /// A syntactically perfect envelope whose only defect is the one
    /// under test — so each test isolates one classification rule.
    fn forged_line(key_field: &str) -> String {
        let mut body = format!(
            "{{\"v\":{STORE_FORMAT_VERSION},\"key\":\"{key_field}\",\
             \"workload\":\"unit\",\"report\":{{}}"
        );
        let crc = crc32(body.as_bytes());
        body.push_str(&format!(",\"crc\":\"{crc:08x}\"}}"));
        body
    }

    #[test]
    fn keys_separate_workload_config_and_budget() {
        let a = SimConfig::default();
        let b = SimConfig {
            max_insts: a.max_insts + 1,
            ..SimConfig::default()
        };
        assert_ne!(job_key("gzip", &a), job_key("gcc", &a));
        assert_ne!(job_key("gzip", &a), job_key("gzip", &b));
        assert_eq!(job_key("gzip", &a), job_key("gzip", &a));
    }

    #[test]
    fn keys_separate_warmup_from_measurement_budget() {
        // A warmed-up run and an all-timed run of the same total budget
        // are different cells: the key (via the config's Debug form)
        // must see the split.
        let cold = SimConfig {
            max_insts: 10_000,
            ..SimConfig::default()
        };
        let warmed = SimConfig {
            warmup_insts: 5_000,
            ..cold
        };
        assert_ne!(job_key("gzip", &cold), job_key("gzip", &warmed));
    }

    #[test]
    fn v3_pre_warmup_lines_are_stale_not_corrupt() {
        // A v3 (pre warmup/measure split) envelope, checksum and all:
        // it must miss as stale — its timing covered the whole budget.
        let mut body = String::from(
            "{\"v\":3,\"key\":\"000000000000002a\",\"workload\":\"unit\",\"report\":{}",
        );
        let crc = crc32(body.as_bytes());
        body.push_str(&format!(",\"crc\":\"{crc:08x}\"}}"));
        assert!(matches!(classify_line(body.as_bytes()), Line::Stale));
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The canonical IEEE check value: crc32(b"123456789).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn envelope_carries_version_and_checksum() {
        let line = encode_line(0xabcd, "unit", &sample_report());
        assert!(line.starts_with(&format!("{{\"v\":{STORE_FORMAT_VERSION},")));
        let (covered, stored) = split_crc(&line).expect("crc field present");
        assert_eq!(crc32(covered.as_bytes()), stored);
        assert!(matches!(
            classify_line(line.as_bytes()),
            Line::Valid { key: 0xabcd, .. }
        ));
    }

    #[test]
    fn put_then_get_round_trips_across_reopen() {
        let _g = fail_points_held();
        let dir = temp_dir("store-roundtrip");
        let report = sample_report();
        let key = job_key("unit", &SimConfig::default());
        {
            let s = ResultStore::open(&dir).unwrap();
            assert!(s.get(key).is_none());
            s.put(key, "unit", &report).unwrap();
            assert_eq!(s.stats().puts, 1);
            assert_eq!(s.stats().misses, 1);
        }
        let s = ResultStore::open(&dir).unwrap();
        assert_eq!(s.stats().entries, 1);
        assert_eq!(s.stats().quarantined, 0);
        let back = s.get(key).expect("persisted report");
        assert_eq!(s.stats().hits, 1);
        assert_eq!(format!("{back:?}"), format!("{report:?}"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dropping_every_handle_removes_lock_tokens() {
        let _g = fail_points_held();
        let dir = temp_dir("store-lock-cleanup");
        {
            let s = ResultStore::open(&dir).unwrap();
            s.put(7, "unit", &sample_report()).unwrap();
        }
        assert!(
            !dir.join(LOCK).exists(),
            "the lock token must be cleaned up on drop"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_lock_tokens_from_a_dead_owner_are_reclaimed() {
        let _g = fail_points_held();
        let dir = temp_dir("store-stale-locks");
        // A SIGKILLed daemon leaves its stamped lock token behind; the
        // OS released the advisory lock with the process, so the next
        // open must reclaim (restamp) it rather than wedge.
        std::fs::write(dir.join(LOCK), "999999999 0\n").unwrap();
        let s = ResultStore::open(&dir).unwrap();
        assert_eq!(s.stats().reclaimed, 1);
        let stamp = std::fs::read_to_string(dir.join(LOCK)).unwrap();
        assert!(
            stamp.starts_with(&format!("{} ", std::process::id())),
            "token restamped with the live owner: {stamp:?}"
        );
        // The store is fully functional behind reclaimed tokens.
        s.put(7, "unit", &sample_report()).unwrap();
        drop(s);
        assert!(!dir.join(LOCK).exists(), "token cleaned up");
        // A healthy reopen (our own fresh tokens) reclaims nothing.
        let s = ResultStore::open(&dir).unwrap();
        drop(s);
        let s = ResultStore::open(&dir).unwrap();
        assert_eq!(s.stats().reclaimed, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_full_trips_read_only_and_a_probe_recovers() {
        let _g = fail_points_held();
        let dir = temp_dir("store-read-only");
        let s = ResultStore::open(&dir).unwrap();
        assert!(!s.read_only());
        ctcp_telemetry::failpoint::set(Some("disk-full"));
        assert!(s.put(1, "unit", &sample_report()).is_err());
        assert!(s.read_only(), "failed append trips the breaker");
        // Degraded puts fail fast without touching the disk, but the
        // in-memory copy still serves this process.
        let e = s.put(2, "unit", &sample_report()).unwrap_err();
        assert!(e.to_string().contains("read-only"), "{e}");
        assert!(s.get(1).is_some());
        assert!(s.get(2).is_some());
        // Disk healed: after the probe interval one append re-probes,
        // succeeds, and flips the store writable again.
        ctcp_telemetry::failpoint::set(None);
        std::thread::sleep(PROBE_INTERVAL + Duration::from_millis(50));
        s.put(3, "unit", &sample_report()).unwrap();
        assert!(!s.read_only(), "successful probe closes the breaker");
        s.put(4, "unit", &sample_report()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_final_line_is_quarantined_and_healed() {
        let _g = fail_points_held();
        let dir = temp_dir("store-truncated");
        let key = job_key("unit", &SimConfig::default());
        {
            let s = ResultStore::open(&dir).unwrap();
            s.put(key, "unit", &sample_report()).unwrap();
        }
        // Crash mid-append: the last line (key 99's) stops half way, no
        // newline.
        let torn = {
            let full = encode_line(99, "unit", &sample_report());
            full[..full.len() / 2].to_string()
        };
        let file = dir.join(RESULTS);
        let mut text = std::fs::read_to_string(&file).unwrap_or_default();
        text.push_str(&torn);
        std::fs::write(&file, &text).unwrap();

        let s = ResultStore::open(&dir).unwrap();
        assert_eq!(s.stats().entries, 1, "good line survives");
        assert_eq!(s.stats().quarantined, 1);
        assert!(s.get(key).is_some());
        assert!(s.get(99).is_none(), "torn line must miss");
        drop(s);
        // Healing: the torn line moved to the quarantine, and the store
        // file itself is clean again.
        let q = std::fs::read_to_string(dir.join(QUARANTINE)).unwrap();
        assert_eq!(q, format!("{torn}\n"));
        let healed = verify(&dir).unwrap();
        assert_eq!((healed.valid, healed.corrupt), (1, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_invalid_utf8_byte_spoils_only_its_own_line() {
        let _g = fail_points_held();
        let dir = temp_dir("store-utf8");
        // Three keys, one line each.
        let keys = [0u64, 1, 2];
        {
            let s = ResultStore::open(&dir).unwrap();
            for &k in &keys {
                s.put(k, "unit", &sample_report()).unwrap();
            }
        }
        // Flip the high bit of one ASCII byte in the middle line.
        let file = dir.join(RESULTS);
        let flip = |file: &Path| {
            let mut bytes = std::fs::read(file).unwrap();
            let start = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
            let len = bytes[start..].iter().position(|&b| b == b'\n').unwrap();
            bytes[start + len / 2] ^= 0x80;
            std::fs::write(file, &bytes).unwrap();
            bytes[start..start + len].to_vec()
        };
        let bad = flip(&file);
        assert!(std::str::from_utf8(&bad).is_err());

        let rep = verify(&dir).unwrap();
        assert_eq!((rep.valid, rep.corrupt), (2, 1));
        let s = ResultStore::open(&dir).unwrap();
        assert_eq!(s.stats().quarantined, 1);
        assert!(s.get(keys[0]).is_some() && s.get(keys[2]).is_some());
        assert!(s.get(keys[1]).is_none(), "the flipped line must miss");
        drop(s);
        // Quarantined byte for byte; the store file is clean again.
        let q = std::fs::read(dir.join(QUARANTINE)).unwrap();
        assert_eq!(q, [bad.as_slice(), b"\n"].concat());
        assert_eq!(verify(&dir).unwrap().corrupt, 0);

        // Compaction quarantines such a line too, and keeps the rest.
        let bad = flip(&file);
        let rep = compact(&dir).unwrap();
        assert_eq!((rep.kept, rep.quarantined), (1, 1));
        let q = std::fs::read(dir.join(QUARANTINE)).unwrap();
        assert!(q.ends_with(&[bad.as_slice(), b"\n"].concat()));
        assert!(std::fs::read(&file).unwrap().is_ascii());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_hex_key_and_crc_mismatch_are_corrupt() {
        // A non-hex key behind a *valid* checksum: the key rule itself
        // must reject it.
        assert!(matches!(
            classify_line(forged_line("zzzzzzzzzzzzzzzz").as_bytes()),
            Line::Corrupt
        ));
        // Wrong-length key, also behind a valid checksum.
        assert!(matches!(
            classify_line(forged_line("00ff").as_bytes()),
            Line::Corrupt
        ));
        // A single flipped byte in an otherwise perfect line.
        let line = encode_line(7, "unit", &sample_report()).replace("\"workload\"", "\"workloaD\"");
        assert!(matches!(classify_line(line.as_bytes()), Line::Corrupt));
    }

    #[test]
    fn mixed_version_lines_miss_without_quarantine() {
        let _g = fail_points_held();
        let dir = temp_dir("store-mixed");
        let key = job_key("unit", &SimConfig::default());
        // A v1-era line (no CRC): well-formed, just old.
        let old = "{\"v\":1,\"key\":\"000000000000002a\",\"workload\":\"unit\",\"report\":{}}";
        let file = dir.join(RESULTS);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&file, format!("{old}\n")).unwrap();
        {
            let s = ResultStore::open(&dir).unwrap();
            assert_eq!(s.stats().entries, 0, "stale line must miss");
            assert_eq!(s.stats().quarantined, 0, "stale is not corrupt");
            assert!(s.get(0x2a).is_none());
            s.put(key, "unit", &sample_report()).unwrap();
        }
        // The stale line is preserved in place.
        let text = std::fs::read_to_string(&file).unwrap();
        assert!(text.starts_with(old));
        let rep = verify(&dir).unwrap();
        assert_eq!((rep.valid, rep.stale, rep.corrupt), (1, 1, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v2_lines_are_stale_not_corrupt() {
        // A pre-attribution (v2) envelope, checksum and all: it must
        // classify as stale — a clean miss, never quarantine fodder.
        let mut body = String::from(
            "{\"v\":2,\"key\":\"000000000000002a\",\"workload\":\"unit\",\"report\":{}",
        );
        let crc = crc32(body.as_bytes());
        body.push_str(&format!(",\"crc\":\"{crc:08x}\"}}"));
        assert!(matches!(classify_line(body.as_bytes()), Line::Stale));
    }

    #[test]
    fn newest_line_wins_for_a_key() {
        let _g = fail_points_held();
        let dir = temp_dir("store-newest");
        let key = 42u64;
        {
            let s = ResultStore::open(&dir).unwrap();
            let mut r = sample_report();
            s.put(key, "unit", &r).unwrap();
            r.cycles = 777;
            s.put(key, "unit", &r).unwrap();
        }
        let s = ResultStore::open(&dir).unwrap();
        assert_eq!(s.get(key).unwrap().cycles, 777);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appends_after_the_file_is_replaced_survive_a_reopen() {
        let _g = fail_points_held();
        let dir = temp_dir("store-follow");
        let live = ResultStore::open(&dir).unwrap();
        live.put(1, "unit", &sample_report()).unwrap();
        // Compaction replaces the file under the live handle…
        compact(&dir).unwrap();
        live.put(2, "unit", &sample_report()).unwrap();
        // …and so does another handle's heal of a torn line.
        let mut file = OpenOptions::new()
            .append(true)
            .open(dir.join(RESULTS))
            .unwrap();
        file.write_all(b"{\"v\":4,\"key\":\"torn").unwrap();
        drop(file);
        assert_eq!(ResultStore::open(&dir).unwrap().stats().quarantined, 1);
        live.put(3, "unit", &sample_report()).unwrap();
        drop(live);
        let s = ResultStore::open(&dir).unwrap();
        for key in 1..=3 {
            assert!(s.get(key).is_some(), "the append of key {key} was lost");
        }
        assert_eq!(s.stats().quarantined, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_append_retakes_a_removed_lock_token() {
        let _g = fail_points_held();
        let dir = temp_dir("store-token");
        let live = ResultStore::open(&dir).unwrap();
        // Compaction removes the free token the live handle holds open…
        compact(&dir).unwrap();
        assert!(!dir.join(LOCK).exists());
        live.put(1, "unit", &sample_report()).unwrap();
        // …so an append must lock the token now at the path, which a
        // compaction or heal in another handle locks too.
        let held = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(dir.join(LOCK))
            .unwrap();
        held.lock().unwrap();
        let (done, appended) = std::sync::mpsc::channel();
        let writer = live.clone();
        let writer = std::thread::spawn(move || {
            writer.put(2, "unit", &sample_report()).unwrap();
            done.send(()).unwrap();
        });
        assert!(
            appended.recv_timeout(Duration::from_millis(150)).is_err(),
            "the append ran while another handle held the token"
        );
        held.unlock().unwrap();
        appended.recv_timeout(Duration::from_secs(10)).unwrap();
        writer.join().unwrap();
        drop(live);
        assert!(!dir.join(LOCK).exists(), "the last handle out removes it");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_keeps_newest_per_key_and_round_trips() {
        let _g = fail_points_held();
        let dir = temp_dir("store-compact");
        {
            let s = ResultStore::open(&dir).unwrap();
            let mut r = sample_report();
            s.put(1, "unit", &r).unwrap();
            s.put(2, "unit", &r).unwrap();
            r.cycles = 777;
            s.put(1, "unit", &r).unwrap();
        }
        // Add one stale and one corrupt line for compact to dispose of.
        let file = dir.join(RESULTS);
        let mut text = std::fs::read_to_string(&file).unwrap();
        text.push_str("{\"v\":1,\"key\":\"0000000000000001\",\"workload\":\"u\",\"report\":{}}\n");
        text.push_str("{\"v\":2,\"key\":\"00\n");
        std::fs::write(&file, &text).unwrap();

        let rep = compact(&dir).unwrap();
        assert_eq!(rep.kept, 2);
        assert_eq!(rep.superseded, 1);
        assert_eq!(rep.stale, 1);
        assert_eq!(rep.quarantined, 1);

        // Round trip: the compacted store still answers both keys, the
        // newest value won, and a second compact is a no-op.
        let s = ResultStore::open(&dir).unwrap();
        assert_eq!(s.stats().entries, 2);
        assert_eq!(s.stats().quarantined, 0);
        assert_eq!(s.get(1).unwrap().cycles, 777);
        assert!(s.get(2).is_some());
        drop(s);
        assert_eq!(
            compact(&dir).unwrap(),
            CompactReport {
                kept: 2,
                ..CompactReport::default()
            }
        );
        // compact's transient lock token is cleaned up behind it.
        assert!(!dir.join(LOCK).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_removes_the_quarantine_files() {
        let _g = fail_points_held();
        let dir = temp_dir("store-gc");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(RESULTS), "{\"v\":2,\"key\":\"00\n").unwrap();
        let rep = gc(&dir).unwrap();
        assert_eq!(rep.compact.quarantined, 1);
        assert!(rep.quarantine_bytes > 0);
        assert!(!dir.join(QUARANTINE).exists());
        assert_eq!(verify(&dir).unwrap(), VerifyReport::default());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_is_read_only() {
        let _g = fail_points_held();
        let dir = temp_dir("store-verify-ro");
        std::fs::create_dir_all(&dir).unwrap();
        let text = "{\"v\":2,\"key\":\"00\n";
        std::fs::write(dir.join(RESULTS), text).unwrap();
        let rep = verify(&dir).unwrap();
        assert_eq!((rep.lines, rep.corrupt), (1, 1));
        // No quarantine, no healing: bytes untouched.
        assert_eq!(std::fs::read_to_string(dir.join(RESULTS)).unwrap(), text);
        assert!(!dir.join(QUARANTINE).exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
