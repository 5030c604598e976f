//! Fault injection for crash tests.
//!
//! A *fail point* is a named site in the workspace where a test (or the
//! `CTCP_FAIL_POINT` environment variable) can force a failure that is
//! hard to provoke organically: a panicking sweep cell, a truncated
//! result-store write, a retire stage that silently stalls. Production
//! code queries [`is_active`] at the site; when the point is not armed
//! the query is one atomic load plus a lock-free fast path, so leaving
//! the hooks compiled in costs nothing measurable.
//!
//! ## Spec format
//!
//! The configuration is a comma-separated list of `name` or `name=arg`
//! entries:
//!
//! ```text
//! CTCP_FAIL_POINT=job-panic=twolf:fdrt ctcp sweep ...
//! CTCP_FAIL_POINT=stall-retire,store-truncate repro table1
//! ```
//!
//! The workspace's registered points:
//!
//! | name             | site                         | effect                         |
//! |------------------|------------------------------|--------------------------------|
//! | `job-panic`      | `ctcp_harness::Job::try_simulate_with` | panics the worker running the matching `workload[:strategy]` cell (no arg = every cell) |
//! | `stall-retire`   | `ctcp_sim` cycle loop        | drops all retirements, stalling the pipeline until the watchdog trips |
//! | `store-truncate` | `ctcp_harness` result store  | writes only half of each appended envelope, simulating a crash mid-write |
//! | `journal-truncate` | `ctcp_harness` request journal, which no command opens | writes only half of one appended journal record (then disarms itself), simulating a crash mid-append |
//! | `disk-full`      | `ctcp_harness` result store  | every store append fails with a synthetic `ENOSPC`, driving the daemon into read-only degradation |
//! | `serve-partial-write` | `ctcp_serve` chunked writer | writes only half of one stream chunk, then fails the write (then disarms itself) |
//! | `serve-disconnect` | `ctcp_serve` chunked writer | fails the stream after `N` chunks (`serve-disconnect=N`; then disarms itself), simulating a mid-stream peer loss |
//! | `serve-accept-storm` | `ctcp_serve` accept loop   | drops the first `N` accepted connections on the floor (`serve-accept-storm=N`), simulating a thundering reconnect herd |
//! | `serve-slow-reader` | `ctcp_serve` chunked writer | sleeps `ms` per chunk (`serve-slow-reader=250`), simulating a stalled reader |
//!
//! ## Test use
//!
//! Tests arm points programmatically with [`set`] (which overrides the
//! environment) and must disarm with `set(None)` when done. The
//! configuration is process-global, so tests that arm fail points must
//! serialise themselves (e.g. behind a shared mutex) — the fail-point
//! registry deliberately does not try to hide that.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::RwLock;

/// Fast path: false until the first [`set`] call or until the
/// environment variable has been seen. Lets [`is_active`] bail with one
/// atomic load in the common (nothing armed) case.
static ARMED: AtomicBool = AtomicBool::new(false);

/// The parsed spec: `(name, arg)` pairs. `None` = environment not read
/// yet; `Some(vec)` may be empty (explicitly disarmed).
static SPEC: RwLock<Option<Vec<(String, String)>>> = RwLock::new(None);

fn parse(spec: &str) -> Vec<(String, String)> {
    spec.split(',')
        .filter(|s| !s.is_empty())
        .map(|entry| match entry.split_once('=') {
            Some((name, arg)) => (name.trim().to_string(), arg.trim().to_string()),
            None => (entry.trim().to_string(), String::new()),
        })
        .collect()
}

fn ensure_loaded() {
    let needs_init = SPEC.read().map(|g| g.is_none()).unwrap_or(false);
    if needs_init {
        let mut g = SPEC.write().expect("fail-point registry poisoned");
        if g.is_none() {
            let parsed = std::env::var("CTCP_FAIL_POINT")
                .map(|v| parse(&v))
                .unwrap_or_default();
            if !parsed.is_empty() {
                ARMED.store(true, Ordering::Release);
            }
            *g = Some(parsed);
        }
    }
}

/// Arms the given spec (see the module docs for the format), replacing
/// both any previous [`set`] and the environment variable. `set(None)`
/// disarms every point. Intended for tests; the process environment is
/// the production interface.
pub fn set(spec: Option<&str>) {
    let parsed = spec.map(parse).unwrap_or_default();
    ARMED.store(!parsed.is_empty(), Ordering::Release);
    *SPEC.write().expect("fail-point registry poisoned") = Some(parsed);
}

/// True when fail point `name` is armed (with any argument).
pub fn is_active(name: &str) -> bool {
    arg(name).is_some()
}

/// The argument of fail point `name` when armed: `Some("")` for a bare
/// `name` entry, `Some(arg)` for `name=arg`, `None` when not armed.
pub fn arg(name: &str) -> Option<String> {
    if !ARMED.load(Ordering::Acquire) {
        // One more possibility: the env var is set but not yet parsed.
        ensure_loaded();
        if !ARMED.load(Ordering::Acquire) {
            return None;
        }
    }
    let g = SPEC.read().expect("fail-point registry poisoned");
    g.as_ref()?
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, a)| a.clone())
}

/// Consumes fail point `name`: returns its argument like [`arg`] and
/// disarms that one entry, so the fault fires exactly once per arming.
/// One-shot points (`serve-disconnect`, `serve-partial-write`,
/// `journal-truncate`) use this so a retried operation succeeds — the
/// fault models a transient event, not a broken component.
pub fn take(name: &str) -> Option<String> {
    if !ARMED.load(Ordering::Acquire) {
        ensure_loaded();
        if !ARMED.load(Ordering::Acquire) {
            return None;
        }
    }
    let mut g = SPEC.write().expect("fail-point registry poisoned");
    let spec = g.as_mut()?;
    let i = spec.iter().position(|(n, _)| n == name)?;
    let (_, a) = spec.remove(i);
    if spec.is_empty() {
        ARMED.store(false, Ordering::Release);
    }
    Some(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Fail-point state is process-global; these tests serialise.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn unarmed_by_default_and_after_disarm() {
        let _g = LOCK.lock().unwrap();
        set(None);
        assert!(!is_active("job-panic"));
        assert_eq!(arg("job-panic"), None);
    }

    #[test]
    fn bare_and_valued_entries() {
        let _g = LOCK.lock().unwrap();
        set(Some("stall-retire,job-panic=twolf:fdrt"));
        assert!(is_active("stall-retire"));
        assert_eq!(arg("stall-retire").as_deref(), Some(""));
        assert_eq!(arg("job-panic").as_deref(), Some("twolf:fdrt"));
        assert!(!is_active("store-truncate"));
        set(None);
    }

    #[test]
    fn take_fires_once_then_disarms_that_entry() {
        let _g = LOCK.lock().unwrap();
        set(Some("serve-disconnect=3,stall-retire"));
        assert_eq!(take("serve-disconnect").as_deref(), Some("3"));
        assert_eq!(take("serve-disconnect"), None, "one-shot");
        assert!(is_active("stall-retire"), "other entries survive");
        assert_eq!(take("stall-retire").as_deref(), Some(""));
        assert!(!is_active("stall-retire"));
        set(None);
    }

    #[test]
    fn set_replaces_previous_spec() {
        let _g = LOCK.lock().unwrap();
        set(Some("store-truncate"));
        assert!(is_active("store-truncate"));
        set(Some("stall-retire"));
        assert!(!is_active("store-truncate"));
        assert!(is_active("stall-retire"));
        set(None);
    }
}
