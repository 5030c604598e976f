//! Golden pipeline-trace test: the Chrome trace (spans plus
//! inter-cluster flow arrows) and the JSONL metrics record of two
//! recorded runs are pinned by FNV-1a digests, so a byte drift in the
//! event capture, the ring eviction, the flow derivation, the trace
//! export or the metrics record cannot pass unnoticed. Each run exports
//! exactly what `ctcp trace --out … --metrics-out …` writes.

use ctcp::sim::{Simulation, Strategy};
use ctcp::telemetry::{
    chrome_trace_with_flows, metrics_line, validate_chrome_trace, PipeStage, Recorder,
    RecorderConfig,
};
use ctcp::workload::Benchmark;
use std::collections::HashSet;
use std::rc::Rc;

const INSTS: u64 = 20_000;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `bench` under `strategy` with a recorder attached and returns
/// the digests of its Chrome trace and its metrics line.
fn digests(bench: &str, strategy: Strategy, cfg: RecorderConfig) -> (u64, u64) {
    let program = Benchmark::by_name(bench).unwrap().program();
    let recorder = Rc::new(Recorder::new(cfg));
    let report = Simulation::builder(&program)
        .strategy(strategy)
        .max_insts(INSTS)
        .recorder(Rc::clone(&recorder))
        .build()
        .unwrap()
        .run();
    let events = recorder.events();
    // As `ctcp trace` does: keep only flows whose consumer's retire
    // span survived the ring.
    let retired: HashSet<u64> = events
        .iter()
        .filter(|e| e.stage == PipeStage::Retire)
        .map(|e| e.seq)
        .collect();
    let mut flows = recorder.flows();
    flows.retain(|f| retired.contains(&f.seq));
    let chrome = chrome_trace_with_flows(&events, &flows);
    let summary = validate_chrome_trace(&chrome).expect("exported trace is valid");
    assert!(
        summary.spans > 0 && summary.flows > 0,
        "{bench}: empty trace"
    );
    let line = metrics_line(bench, &report.strategy, &recorder.metrics());
    (fnv1a(chrome.as_bytes()), fnv1a(line.as_bytes()))
}

fn check(bench: &str, got: (u64, u64), want: (u64, u64)) {
    assert_eq!(
        got.0, want.0,
        "{bench}: trace digest {:#018x}, golden {:#018x}",
        got.0, want.0
    );
    assert_eq!(
        got.1, want.1,
        "{bench}: metrics digest {:#018x}, golden {:#018x}",
        got.1, want.1
    );
}

#[test]
fn default_recorder_trace_matches_its_golden() {
    let got = digests(
        "gzip",
        Strategy::Fdrt { pinning: true },
        RecorderConfig::default(),
    );
    check("gzip/fdrt", got, (0x65fb4cbcbdad9155, 0xa13b56c57e3c6fa9));
}

#[test]
fn sampled_evicting_trace_matches_its_golden() {
    let got = digests(
        "twolf",
        Strategy::Baseline,
        RecorderConfig {
            event_capacity: 5_000,
            sample_every: 7,
        },
    );
    check("twolf/base", got, (0xbef96a267ab09182, 0xf55c90f713f837c7));
}
