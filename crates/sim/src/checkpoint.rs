//! Warmup checkpoints: reusable functional fast-forward snapshots, and
//! the one cache that shares them.
//!
//! Fast-forwarding a long workload to its region of interest is pure
//! functional execution — no timing state is touched — so the result
//! depends only on the program and the instruction count. A
//! [`Checkpoint`] captures that state once; every simulation resumed
//! from it (via [`SimBuilder::resume_from`](crate::SimBuilder)) starts
//! bit-identically to a simulation that fast-forwarded on its own,
//! without re-executing the warmup phase.
//!
//! A [`CheckpointCache`] holds the checkpoints of a worker pool, keyed
//! by `(program, warmup)`, so each pair is fast-forwarded once however
//! many workers, requests and batches ask for it.

use ctcp_isa::{ExecState, Executor, Instruction, Program};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// The functional (architectural) state of a program after executing
/// its first `warmup_instructions` instructions: registers, data memory
/// image, and the position in the dynamic instruction stream. It owns
/// its program, so it can outlive any one borrow of it and be shared
/// between threads; it is never mutated after capture, and each resume
/// clones the state, so one capture serves any number of timed runs.
#[derive(Clone)]
pub struct Checkpoint {
    /// The program it was captured from: a simulation of any other
    /// program refuses to resume from it.
    pub(crate) program: Arc<Program>,
    pub(crate) state: ExecState,
    pub(crate) requested: u64,
    pub(crate) skipped: u64,
}

impl Checkpoint {
    /// Functionally executes the first `warmup_insts` instructions of
    /// `program` (fewer if the program ends first) and snapshots the
    /// resulting state. The instructions run through
    /// [`Executor::fast_forward`], which builds no per-instruction
    /// records.
    pub fn capture(program: &Arc<Program>, warmup_insts: u64) -> Self {
        let mut exec = Executor::new(program);
        let skipped = exec.fast_forward(warmup_insts);
        Checkpoint {
            state: exec.into_state(),
            program: Arc::clone(program),
            requested: warmup_insts,
            skipped,
        }
    }

    /// The warmup budget this checkpoint was captured with.
    pub fn warmup_instructions(&self) -> u64 {
        self.requested
    }

    /// How many instructions were actually skipped — less than the
    /// budget only when the program ended inside the warmup phase.
    pub fn instructions_skipped(&self) -> u64 {
        self.skipped
    }

    /// What the checkpoint holds, as the cache budgets it: its resident
    /// memory pages and its program's text.
    fn bytes(&self) -> usize {
        self.state.memory().resident_pages() * PAGE_BYTES
            + self.program.len() * std::mem::size_of::<Instruction>()
    }
}

/// Bytes in one resident page of a checkpoint's data memory.
const PAGE_BYTES: usize = 8 * 1024;

/// The bytes of checkpoints one [`CheckpointCache`] keeps resident. A
/// focus preset touches about four pages by 2M instructions, so an
/// entry is tens of KiB and the budget holds well over a thousand; it
/// bounds a daemon that is asked for many programs, not a sweep.
const CHECKPOINT_CACHE_BYTES: usize = 64 << 20;

/// One `(program, warmup)` key and its checkpoint, once captured.
struct Entry {
    program: Arc<Program>,
    warmup: u64,
    /// Filled by the first lookup's capture; later lookups of the key
    /// wait here rather than capture again.
    slot: Arc<OnceLock<Arc<Checkpoint>>>,
    /// The lookup tick that last touched the entry, for LRU eviction.
    used: u64,
    /// Budgeted size, zero until the capture lands.
    bytes: usize,
}

/// The entries, scanned in full per lookup: a pool holds a few dozen.
#[derive(Default)]
struct Entries {
    list: Vec<Entry>,
    tick: u64,
    bytes: usize,
}

/// A pool's warmup checkpoints, keyed by `(program, warmup)` and
/// bounded in bytes. Programs are compared by `Arc` pointer first and
/// by value after, so fresh `Arc`s of an equal program share an entry;
/// nothing hashes a program.
///
/// A capture runs outside the map lock. Concurrent lookups of one key
/// wait for a single capture; a capture that panics leaves the key
/// empty, and the next lookup captures again. Past a budget of 64 MiB
/// the least recently used checkpoints are dropped; a cell already
/// holding one keeps it.
pub struct CheckpointCache {
    budget: usize,
    entries: Mutex<Entries>,
    captures: AtomicU64,
    hits: AtomicU64,
}

impl Default for CheckpointCache {
    fn default() -> Self {
        CheckpointCache::with_budget(CHECKPOINT_CACHE_BYTES)
    }
}

impl CheckpointCache {
    /// An empty cache with the 64 MiB budget.
    pub fn new() -> Self {
        CheckpointCache::default()
    }

    fn with_budget(budget: usize) -> Self {
        CheckpointCache {
            budget,
            entries: Mutex::new(Entries::default()),
            captures: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    /// Every update under the lock leaves the entries consistent, and
    /// no capture runs under it, so a poisoned lock is safe to recover.
    fn lock(&self) -> std::sync::MutexGuard<'_, Entries> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The checkpoint of `program` after `warmup` instructions:
    /// captured on the key's first lookup, shared after.
    pub fn get_or_capture(&self, program: &Arc<Program>, warmup: u64) -> Arc<Checkpoint> {
        let slot = {
            let mut entries = self.lock();
            entries.tick += 1;
            let tick = entries.tick;
            let found = entries.list.iter_mut().find(|e| {
                e.warmup == warmup && (Arc::ptr_eq(&e.program, program) || *e.program == **program)
            });
            match found {
                Some(e) => {
                    e.used = tick;
                    Arc::clone(&e.slot)
                }
                None => {
                    let slot = Arc::new(OnceLock::new());
                    entries.list.push(Entry {
                        program: Arc::clone(program),
                        warmup,
                        slot: Arc::clone(&slot),
                        used: tick,
                        bytes: 0,
                    });
                    slot
                }
            }
        };
        let mut captured = false;
        let checkpoint = Arc::clone(slot.get_or_init(|| {
            captured = true;
            Arc::new(Checkpoint::capture(program, warmup))
        }));
        if captured {
            self.captures.fetch_add(1, Ordering::Relaxed);
            self.admit(&slot, checkpoint.bytes());
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        checkpoint
    }

    /// Books a fresh capture's size and evicts least recently used
    /// checkpoints until the cache fits its budget again. Keys still
    /// capturing are never evicted.
    fn admit(&self, slot: &Arc<OnceLock<Arc<Checkpoint>>>, bytes: usize) {
        let mut entries = self.lock();
        let Some(e) = entries.list.iter_mut().find(|e| Arc::ptr_eq(&e.slot, slot)) else {
            return;
        };
        e.bytes = bytes;
        entries.bytes += bytes;
        while entries.bytes > self.budget {
            let Some(lru) = (0..entries.list.len())
                .filter(|&i| entries.list[i].slot.get().is_some())
                .min_by_key(|&i| entries.list[i].used)
            else {
                break;
            };
            let gone = entries.list.swap_remove(lru);
            entries.bytes -= gone.bytes;
        }
    }

    /// Checkpoints captured so far.
    pub fn captures(&self) -> u64 {
        self.captures.load(Ordering::Relaxed)
    }

    /// Lookups answered with a checkpoint already captured, or being
    /// captured by another lookup.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Budgeted bytes of the checkpoints resident now.
    pub fn resident_bytes(&self) -> usize {
        self.lock().bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;
    use ctcp_isa::{ProgramBuilder, Reg};
    use std::panic::AssertUnwindSafe;
    use std::sync::Barrier;

    /// An endless loop that stores to a new page every iteration, so
    /// deeper warmups hold more resident memory.
    fn walker(stride: i64) -> Arc<Program> {
        let mut b = ProgramBuilder::new();
        b.movi(Reg::R1, 0x10_000);
        let top = b.here();
        b.addi(Reg::R1, Reg::R1, stride);
        b.st(Reg::R1, Reg::R1, 0);
        b.jmp(top);
        Arc::new(b.build())
    }

    fn resumed_json(program: &Arc<Program>, ck: &Checkpoint) -> String {
        Simulation::builder(program)
            .max_insts(2_000)
            .resume_from(ck)
            .build()
            .unwrap()
            .run()
            .to_json()
    }

    #[test]
    fn checkpoints_are_send_and_sync() {
        fn shareable<T: Send + Sync>() {}
        shareable::<Checkpoint>();
        shareable::<CheckpointCache>();
    }

    #[test]
    fn equal_programs_share_an_entry_and_warmups_do_not() {
        let cache = CheckpointCache::new();
        let a = walker(8);
        let twin = walker(8);
        assert!(!Arc::ptr_eq(&a, &twin));
        let first = cache.get_or_capture(&a, 1_000);
        let again = cache.get_or_capture(&twin, 1_000);
        assert!(
            Arc::ptr_eq(&first, &again),
            "a fresh Arc of an equal program hits"
        );
        assert_eq!((cache.captures(), cache.hits()), (1, 1));
        let deeper = cache.get_or_capture(&a, 2_000);
        assert_eq!(deeper.instructions_skipped(), 2_000);
        let other = cache.get_or_capture(&walker(16), 1_000);
        assert!(!Arc::ptr_eq(&other, &first));
        assert_eq!((cache.captures(), cache.hits()), (3, 1));
        let sizes: usize = [&first, &deeper, &other].iter().map(|c| c.bytes()).sum();
        assert_eq!(cache.resident_bytes(), sizes);
    }

    #[test]
    fn concurrent_lookups_of_one_key_capture_once() {
        let cache = CheckpointCache::new();
        let program = walker(8);
        let barrier = Barrier::new(2);
        let got: Vec<Arc<Checkpoint>> = std::thread::scope(|s| {
            let lookups: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        cache.get_or_capture(&program, 200_000)
                    })
                })
                .collect();
            lookups.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert!(Arc::ptr_eq(&got[0], &got[1]));
        assert_eq!((cache.captures(), cache.hits()), (1, 1));
    }

    #[test]
    fn a_key_whose_capture_panicked_captures_again() {
        let cache = CheckpointCache::new();
        let program = walker(8);
        cache.get_or_capture(&program, 10);
        // Leave the key as a capture that panics leaves it: listed,
        // its slot empty and its bytes never booked.
        let torn = Arc::new(OnceLock::new());
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            torn.get_or_init(|| -> Arc<Checkpoint> { panic!("capture failed") });
        }));
        assert!(caught.is_err());
        {
            let mut entries = cache.lock();
            entries.bytes = 0;
            entries.list[0].slot = torn;
        }
        let again = cache.get_or_capture(&program, 10);
        assert_eq!(cache.captures(), 2);
        assert_eq!(again.instructions_skipped(), 10);
        assert_eq!(cache.resident_bytes(), again.bytes());
    }

    #[test]
    fn eviction_under_a_small_budget_recaptures_the_same_state() {
        let a = walker(8 * 1024);
        let b = walker(16 * 1024);
        let one = Checkpoint::capture(&a, 300).bytes();
        // Room for one checkpoint of either program, not for two.
        let cache = CheckpointCache::with_budget(one + one / 2);
        let first = cache.get_or_capture(&a, 300);
        let expected = resumed_json(&a, &first);
        drop(first);
        cache.get_or_capture(&b, 300);
        assert_eq!(cache.lock().list.len(), 1, "a's checkpoint was evicted");
        assert!(cache.resident_bytes() <= one + one / 2);
        let recaptured = cache.get_or_capture(&a, 300);
        assert_eq!(cache.captures(), 3);
        assert_eq!(resumed_json(&a, &recaptured), expected);
        // Recently used entries survive: b was evicted, a stays.
        assert!(Arc::ptr_eq(&recaptured, &cache.get_or_capture(&a, 300)));
        assert_eq!(cache.captures(), 3);
    }
}
