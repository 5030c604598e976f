//! Generated oracle for the streaming critical-path walker: over seeded
//! link sequences and adversarial shapes, [`CritWalker`] must report
//! exactly what a whole-run backward walk over the same links reports,
//! at every `top_n`, however its storage was recycled.
//!
//! Failures name the case seed, which reproduces the exact links.

use ctcp::telemetry::{CritEdge, CritLink, CritWalker, CriticalSummary};
use ctcp::workload::Pcg32;
use std::collections::HashMap;

/// Windows the generated cases run with: the degenerate ones, an odd
/// one, the default ROB size and a large ROB.
const WINDOWS: [usize; 5] = [1, 2, 7, 128, 512];

/// Chain-head densities: the share of links that read the register
/// file (or have no source), from never to nearly always.
const HEAD_DENSITIES: [f64; 6] = [0.0, 0.02, 0.1, 0.3, 0.6, 0.9];

/// Seeds per window and density.
const SEEDS: u64 = 3;

/// The reference: keep every link, then walk once from the last one.
/// At each position the walk steps `back` links to the critical
/// producer when `0 < back < idx`, counting an edge, and otherwise
/// falls back one instruction.
fn reference(links: &[CritLink], top_n: usize) -> CriticalSummary {
    let mut counts: HashMap<(u64, u64, u8), u64> = HashMap::new();
    let mut edges = 0u64;
    let mut cross_cluster = 0u64;
    let mut idx = links.len();
    while idx > 0 {
        let cur = links[idx - 1];
        let back = cur.back as usize;
        if back == 0 || back >= idx {
            idx -= 1;
            continue;
        }
        idx -= back;
        edges += 1;
        if cur.hops > 0 {
            cross_cluster += 1;
        }
        let producer = links[idx - 1];
        *counts.entry((producer.pc, cur.pc, cur.hops)).or_insert(0) += 1;
    }
    let mut top: Vec<CritEdge> = counts
        .into_iter()
        .map(|((from_pc, to_pc, hops), count)| CritEdge {
            from_pc,
            to_pc,
            hops,
            count,
        })
        .collect();
    top.sort_unstable_by(|a, b| {
        b.count
            .cmp(&a.count)
            .then(a.from_pc.cmp(&b.from_pc))
            .then(a.to_pc.cmp(&b.to_pc))
            .then(a.hops.cmp(&b.hops))
    });
    top.truncate(top_n);
    CriticalSummary {
        edges,
        cross_cluster,
        top,
    }
}

/// Streams `links` through `walker` rebuilt for `window`, and checks
/// the summary against the reference at `top_n = usize::MAX` and 8.
/// The walker comes back holding a walk it never finished, as an
/// aborted run leaves it, so every case after the first runs in
/// recycled, dirty storage.
fn check(walker: CritWalker, window: usize, links: &[CritLink], case: &str) -> CritWalker {
    let mut walker = CritWalker::new(window, walker);
    for top_n in [usize::MAX, 8] {
        for &link in links {
            walker.push(link);
        }
        assert_eq!(
            walker.finish(top_n),
            reference(links, top_n),
            "{case}: window {window}, {} links, top {top_n}",
            links.len()
        );
    }
    for &link in links {
        walker.push(link);
    }
    walker
}

/// A `back` below `window`: a chain head (0) with probability `heads`,
/// else uniform over `1..window`.
fn random_back(r: &mut Pcg32, heads: f64, window: u32) -> u32 {
    if window == 1 || r.chance(heads) {
        0
    } else {
        r.range(1, i64::from(window)) as u32
    }
}

/// A link at a PC drawn from a small pool, so static edges repeat and
/// count ties are common.
fn link(r: &mut Pcg32, back: u32) -> CritLink {
    CritLink {
        pc: 0x1000 + 4 * r.index(48) as u64,
        back,
        hops: r.index(4) as u8,
    }
}

#[test]
fn generated_links_match_the_whole_run_walk() {
    let mut walker = CritWalker::default();
    for window in WINDOWS {
        for (d, &density) in HEAD_DENSITIES.iter().enumerate() {
            for seed in 0..SEEDS {
                let case_seed = (window as u64) << 16 | (d as u64) << 8 | seed;
                let mut r = Pcg32::seed_from_u64(case_seed);
                let n = r.index(12 * window + 3000);
                let links: Vec<CritLink> = (0..n)
                    .map(|_| {
                        let back = random_back(&mut r, density, window as u32);
                        link(&mut r, back)
                    })
                    .collect();
                walker = check(walker, window, &links, &format!("seed {case_seed:#x}"));
            }
        }
    }
}

#[test]
fn two_interleaved_chains_that_never_meet() {
    // Every link reads its producer two back and none heads a chain:
    // the even and odd walks stay apart down to the first links, so no
    // meeting point ever commits anything.
    let mut r = Pcg32::seed_from_u64(2);
    let links: Vec<CritLink> = (0..100_000).map(|_| link(&mut r, 2)).collect();
    let walker = check(CritWalker::default(), 3, &links, "interleaved, window 3");
    check(walker, 128, &links, "interleaved, window 128");
}

#[test]
fn producers_before_the_first_link_break_the_chain() {
    // Near the start, `back` reaches past position 0: no edge, the walk
    // falls back one instruction. Later links are ordinary.
    let mut r = Pcg32::seed_from_u64(3);
    let mut links: Vec<CritLink> = (0..16u32).map(|p| link(&mut r, p + 1 + p % 3)).collect();
    links.extend((0..2000).map(|_| {
        let back = random_back(&mut r, 0.2, 20);
        link(&mut r, back)
    }));
    check(CritWalker::default(), 20, &links, "back past the start");
}

#[test]
fn empty_and_single_link_inputs() {
    let mut walker = check(CritWalker::default(), 4, &[], "empty");
    for back in 0..4 {
        let single = [CritLink {
            pc: 0x40,
            back,
            hops: 1,
        }];
        walker = check(walker, 4, &single, &format!("single link, back {back}"));
    }
}

#[test]
fn walks_that_run_off_the_first_link_before_they_meet() {
    // Six interleaved chains at stride six, no heads: the walks from
    // any window only join at the first links, so the searches find no
    // meeting point above position 0. Then heads appear and the walks
    // start meeting; the early stretch must still be counted once.
    let mut r = Pcg32::seed_from_u64(4);
    let mut links: Vec<CritLink> = (0..5000).map(|_| link(&mut r, 6)).collect();
    links.extend((0..5000).map(|_| {
        let back = random_back(&mut r, 0.3, 7);
        link(&mut r, back)
    }));
    check(CritWalker::default(), 7, &links, "late meeting");
}

#[test]
fn the_summary_does_not_depend_on_the_window() {
    // Any window above the largest `back` gives the same answer: the
    // meeting points move, the counted edges do not.
    let mut r = Pcg32::seed_from_u64(5);
    let links: Vec<CritLink> = (0..20_000)
        .map(|_| {
            let back = random_back(&mut r, 0.25, 5);
            link(&mut r, back)
        })
        .collect();
    let mut walker = CritWalker::default();
    for window in [5, 6, 64, 4096] {
        walker = check(walker, window, &links, "window sweep");
    }
    assert_eq!(
        CriticalSummary::walk(&links, 8),
        reference(&links, 8),
        "the slice walk streams with window = largest back + 1"
    );
}

#[test]
#[should_panic(expected = "beyond the walker's window")]
fn a_link_at_the_window_is_refused() {
    let mut walker = CritWalker::new(4, CritWalker::default());
    walker.push(CritLink {
        pc: 0,
        back: 3,
        hops: 0,
    });
    walker.push(CritLink {
        pc: 4,
        back: 4,
        hops: 0,
    });
}
