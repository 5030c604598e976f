//! Host-speed calibration for the end-to-end timings.
//!
//! The benchmark runs on shared machines whose speed drifts by tens of
//! percent for seconds to minutes at a time when neighbours load the
//! host. A fixed loop, independent of the simulator, is timed beside
//! every timed operation; each end-to-end time is reported scaled to
//! the speed at which that loop takes [`REFERENCE_MS`]. On a quiet host
//! scaled and raw times agree; under contention the raw time grows and
//! the scaled one stays put, so two commits compare on the same footing.
//! The loop is a random walk over a 256 KiB table with data-dependent
//! branches: of the loops tried (pure arithmetic, 256 KiB and 4 MiB
//! walks), it tracked the simulator's slowdowns most closely.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// The loop's time on a quiet 2-vCPU x86-64 virtual machine, ms.
pub const REFERENCE_MS: f64 = 3.3;

const TABLE_LEN: usize = 1 << 16;
const STEPS: usize = 2_000_000;

/// Times the calibration loop once, ms.
pub fn loop_ms() -> f64 {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        (0..TABLE_LEN as u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect()
    });
    let t = Instant::now();
    let (mut x, mut acc) = (1u64, 0u64);
    for _ in 0..STEPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let v = u64::from(table[(x >> 40) as usize & (TABLE_LEN - 1)]);
        if v & 1 == 0 {
            acc = acc.wrapping_add(v);
        } else {
            acc ^= v >> 3;
        }
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// `measured` (any time unit) scaled to the reference speed, given the
/// calibration loop's time `loop_ms` beside it.
pub fn scaled(measured: f64, loop_ms: f64) -> f64 {
    measured * REFERENCE_MS / loop_ms
}
