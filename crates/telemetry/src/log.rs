//! Structured, leveled JSON logging for the resident service.
//!
//! One JSON object per line, written to stderr by default or to a
//! file chosen with `ctcp serve --log-file`. The level filter is a
//! process-global atomic read before any formatting happens, so a
//! disabled level costs one relaxed load and nothing else — the
//! no-observer-effect guarantee the serve tests pin down. The filter
//! starts at `warn`; [`set_level`] changes it (`ctcp serve
//! --log-level off|error|warn|info|debug`).
//!
//! Records look like:
//!
//! ```json
//! {"ts_ms":1754700000000,"level":"warn","target":"serve","msg":"slow cell","token":"00ff..","took_ms":412}
//! ```
//!
//! `target` names the subsystem (`serve`, `sched`, `journal`, …) and
//! the caller-supplied fields carry the correlation id (`token`) so
//! one request's records can be grepped across layers. The last few
//! warn/error records are additionally kept in a small in-memory ring
//! ([`recent`]) so `/status` can expose a log tail to `ctcp top`
//! without the daemon ever re-reading its own log file.

use crate::json::Value;
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Severity levels, ordered so that a numeric comparison implements
/// the filter: a record is emitted when `record level <= filter`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Nothing is emitted, ever.
    Off = 0,
    /// Unrecoverable request or daemon faults.
    Error = 1,
    /// Degradations the operator should know about (default filter).
    Warn = 2,
    /// Request lifecycle milestones.
    Info = 3,
    /// Per-cell chatter.
    Debug = 4,
}

impl Level {
    /// The lowercase name used in records and by `--log-level`.
    pub fn name(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parses a `--log-level` word, case-insensitively.
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Some(Level::Off),
            "error" => Some(Level::Error),
            "warn" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }
}

/// The filter, a [`Level`] as its discriminant.
static LEVEL: AtomicU8 = AtomicU8::new(Level::Warn as u8);

/// `None` sinks to stderr; `Some(file)` appends to the chosen file.
static SINK: OnceLock<Mutex<Option<std::fs::File>>> = OnceLock::new();

/// Ring of the most recent warn/error records, oldest first once full.
static RECENT: OnceLock<Mutex<Vec<Value>>> = OnceLock::new();

/// How many warn/error records [`recent`] retains.
pub const RECENT_CAP: usize = 32;

fn sink() -> MutexGuard<'static, Option<std::fs::File>> {
    let m = SINK.get_or_init(|| Mutex::new(None));
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn recent_ring() -> MutexGuard<'static, Vec<Value>> {
    let m = RECENT.get_or_init(|| Mutex::new(Vec::new()));
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The current filter level.
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        1 => Level::Error,
        2 => Level::Warn,
        3 => Level::Info,
        4 => Level::Debug,
        _ => Level::Off,
    }
}

/// Overrides the filter (e.g. from `ctcp serve --log-level`).
pub fn set_level(l: Level) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// Redirects records to `path` (append mode) instead of stderr.
pub fn set_file(path: &str) -> std::io::Result<()> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    *sink() = Some(file);
    Ok(())
}

/// True when a record at `l` would be emitted — callers can guard
/// expensive field construction behind this.
pub fn enabled(l: Level) -> bool {
    l != Level::Off && l <= level()
}

/// Milliseconds since the Unix epoch, 0 if the clock is broken.
fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Emits one structured record. `fields` are appended after the
/// standard `ts_ms`/`level`/`target`/`msg` keys; use a `token` field
/// for the per-request correlation id.
pub fn log(l: Level, target: &str, msg: &str, fields: &[(&str, Value)]) {
    if !enabled(l) {
        return;
    }
    let mut obj = vec![
        ("ts_ms".to_string(), Value::u64(now_ms())),
        ("level".to_string(), Value::str(l.name())),
        ("target".to_string(), Value::str(target)),
        ("msg".to_string(), Value::str(msg)),
    ];
    for (k, v) in fields {
        obj.push((k.to_string(), v.clone()));
    }
    let record = Value::Obj(obj);
    if l <= Level::Warn {
        let mut ring = recent_ring();
        if ring.len() >= RECENT_CAP {
            ring.remove(0);
        }
        ring.push(record.clone());
    }
    let mut line = record.render();
    line.push('\n');
    let mut guard = sink();
    match guard.as_mut() {
        Some(file) => {
            let _ = file.write_all(line.as_bytes());
        }
        None => {
            let _ = std::io::stderr().write_all(line.as_bytes());
        }
    }
}

/// [`log`] at [`Level::Error`].
pub fn error(target: &str, msg: &str, fields: &[(&str, Value)]) {
    log(Level::Error, target, msg, fields);
}

/// [`log`] at [`Level::Warn`].
pub fn warn(target: &str, msg: &str, fields: &[(&str, Value)]) {
    log(Level::Warn, target, msg, fields);
}

/// [`log`] at [`Level::Info`].
pub fn info(target: &str, msg: &str, fields: &[(&str, Value)]) {
    log(Level::Info, target, msg, fields);
}

/// [`log`] at [`Level::Debug`].
pub fn debug(target: &str, msg: &str, fields: &[(&str, Value)]) {
    log(Level::Debug, target, msg, fields);
}

/// The most recent warn/error records, oldest first. `/status`
/// serves these as `recent_logs` for the `ctcp top` log tail.
pub fn recent() -> Vec<Value> {
    recent_ring().clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Level state is process-global; these tests serialise on a lock
    // and restore the filter so other tests see the default.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn levels_order_and_parse() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Debug);
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("off"), Some(Level::Off));
        assert_eq!(Level::parse("verbose"), None);
        assert_eq!(Level::parse("warning"), None);
        assert_eq!(Level::Debug.name(), "debug");
    }

    #[test]
    fn filter_gates_emission_and_recent_ring_holds_warnings() {
        let _g = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        set_file("/dev/null").ok();
        set_level(Level::Off);
        let before = recent().len();
        warn("test", "suppressed", &[]);
        assert_eq!(recent().len(), before, "off must emit nothing");
        assert!(!enabled(Level::Error));

        set_level(Level::Warn);
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        warn("test", "kept", &[("token", Value::str("00ff"))]);
        let ring = recent();
        let last = ring.last().expect("ring entry");
        assert_eq!(last.get("msg").and_then(Value::as_str), Some("kept"));
        assert_eq!(last.get("token").and_then(Value::as_str), Some("00ff"));
        assert_eq!(last.get("level").and_then(Value::as_str), Some("warn"));
        assert!(last.get("ts_ms").and_then(Value::as_u64).is_some());
        // Info records never enter the warn/error ring.
        let n = recent().len();
        set_level(Level::Debug);
        info("test", "chatty", &[]);
        assert_eq!(recent().len(), n);
        set_level(Level::Warn);
    }

    #[test]
    fn recent_ring_is_bounded() {
        let _g = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        set_file("/dev/null").ok();
        set_level(Level::Warn);
        for i in 0..(RECENT_CAP + 8) {
            warn("test", &format!("fill-{i}"), &[]);
        }
        assert_eq!(recent().len(), RECENT_CAP);
    }
}
