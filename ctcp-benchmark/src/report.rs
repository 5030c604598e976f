//! Turns a workload's [`Outcome`] into named metrics, prints them with
//! units and sample sizes, and renders the one-line JSON result.

use crate::catalog::Catalog;
use crate::outcome::{Outcome, Phase};
use crate::stats::{highest_percentile, mean, median, percentile};
use ctcp_telemetry::json::Value;

/// One metric value with the note printed beside it.
pub struct Row {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Sample size and other context, for people.
    pub note: String,
}

fn row(name: &'static str, value: f64, note: impl Into<String>) -> Row {
    Row {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        note: note.into(),
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A latency sample's tail note: size and the highest percentile it
/// supports.
fn tail_note(xs: &[f64]) -> String {
    match highest_percentile(xs.len()) {
        Some(p) => format!(
            "n={}, p{p} supported, p{p}={:.3}",
            xs.len(),
            percentile(xs, p)
        ),
        None => format!("n={}, too few samples for any percentile", xs.len()),
    }
}

/// The end-to-end metrics, from the untraced phase.
pub fn end_to_end(o: &Outcome) -> Vec<Row> {
    let p = &o.untraced;
    vec![
        row(
            "setup_s",
            median(&o.setup_s),
            format!("median of {} set-ups", o.setup_s.len()),
        ),
        row(
            "sim_mips",
            p.sim_mips,
            format!("{} cells in {:.1}s", p.cells, p.wall_s),
        ),
        row("cells_per_s", p.cells_per_s, format!("{} cells", p.cells)),
        row("op_p50_ms", percentile(&p.op_ms, 50.0), tail_note(&p.op_ms)),
        row("op_p75_ms", percentile(&p.op_ms, 75.0), tail_note(&p.op_ms)),
        row(
            "peak_rss_mb",
            o.peak_rss_mb,
            "VmHWM of the simulating process",
        ),
    ]
}

/// Host time the isolated replays account for, as a share of the
/// cells' host time: 1 − Σ(layer cost per op × the cell's op count)
/// / Σ cell time. The engine replay already contains the data memory,
/// so `memory.access_ns` is not added again.
fn unattributed(o: &Outcome, t: &Phase) -> f64 {
    let Some(d) = &o.layers else { return 0.0 };
    let mut attributed_ns = t.ff_insts as f64 * d.exec_ns;
    let mut total_ns = 0.0;
    for (_, r, took_s) in &t.sims {
        let m = &r.metrics;
        let insts = r.instructions as f64;
        attributed_ns += insts * (d.exec_ns + d.core_ns_per_inst)
            + m.cond_branches as f64 * d.predict_ns
            + m.icache.accesses() as f64 * d.icache_ns
            + (m.trace_cache.hits + m.trace_cache.misses) as f64 * d.lookup_ns
            + m.insts_in_traces as f64 * d.fill_ns
            + m.traces_built as f64 * d.assign_us * 1e3
            + d.build_us * 1e3;
        total_ns += took_s * 1e9;
    }
    if total_ns == 0.0 {
        0.0
    } else {
        1.0 - attributed_ns / total_ns
    }
}

/// The per-layer metrics, from the traced phase and the replays.
pub fn per_layer(o: &Outcome) -> Vec<Row> {
    let empty = Phase::default();
    let t = o.traced.as_ref().unwrap_or(&empty);
    let d = o.layers.clone().unwrap_or_default();
    let s = &t.serve;
    let sum =
        |f: &dyn Fn(&ctcp_sim::SimReport) -> u64| t.sims.iter().map(|(_, r, _)| f(r)).sum::<u64>();
    let cycles = sum(&|r| r.cycles);
    let cell_s: f64 = t.sims.iter().map(|(_, _, s)| s).sum();
    let fwd_crit = sum(&|r| r.metrics.fwd.forwarded_critical);
    let fwd_intra = sum(&|r| r.metrics.fwd.critical_intra_cluster);
    let n = |xs: &[f64]| format!("n={}", xs.len());
    let sims = format!("over {} simulated cells", t.sims.len());
    let replay = "isolated replay";
    let spans = |name| o.tracer.durations(name);
    let cell_ms = spans("sim.cell");
    let overhead_ms = o.tracer.self_times("harness.batch");
    let (admit_ms, queue_ms, tail_ms) = (
        spans("serve.admit"),
        spans("serve.queue"),
        spans("serve.stream_tail"),
    );
    let (status_ms, hit_ms) = (spans("serve.status"), spans("serve.hit"));
    vec![
        row("workload.gen_ms", median(&o.gen_ms), n(&o.gen_ms)),
        row("isa.exec_ns_per_inst", d.exec_ns, replay),
        row(
            "isa.ff_insts",
            t.ff_insts as f64,
            "fast-forwarded, traced phase",
        ),
        row("sim.checkpoint_ms", d.checkpoint_ms, replay),
        row("sim.checkpoint_captures", t.captures as f64, "traced phase"),
        row("sim.build_us", d.build_us, replay),
        row(
            "sim.cell_p50_ms",
            percentile(&cell_ms, 50.0),
            tail_note(&cell_ms),
        ),
        row(
            "sim.cell_p90_ms",
            percentile(&cell_ms, 90.0),
            tail_note(&cell_ms),
        ),
        row(
            "sim.ns_per_cycle",
            cell_s * 1e9 / cycles.max(1) as f64,
            sims.clone(),
        ),
        row("sim.encode_us", d.encode_us, replay),
        row("sim.decode_us", d.decode_us, replay),
        row(
            "sim.unattributed_frac",
            unattributed(o, t),
            "host time the replays do not account for; tolerance ±0.5",
        ),
        row("frontend.predict_ns", d.predict_ns, replay),
        row("frontend.btb_ns", d.btb_ns, replay),
        row("frontend.icache_ns", d.icache_ns, replay),
        row(
            "frontend.cond_mispredict_rate",
            ratio(
                sum(&|r| r.metrics.cond_mispredicts),
                sum(&|r| r.metrics.cond_branches),
            ),
            sims.clone(),
        ),
        row("tracecache.lookup_ns", d.lookup_ns, replay),
        row("tracecache.fill_ns", d.fill_ns, replay),
        row("tracecache.assign_us", d.assign_us, replay),
        row(
            "tracecache.tc_inst_frac",
            ratio(
                sum(&|r| r.metrics.insts_from_tc),
                sum(&|r| r.metrics.insts_from_tc + r.metrics.insts_from_icache),
            ),
            sims.clone(),
        ),
        row("memory.access_ns", d.access_ns, replay),
        row(
            "memory.l1d_miss_rate",
            ratio(
                sum(&|r| r.metrics.l1d.misses),
                sum(&|r| r.metrics.l1d.accesses()),
            ),
            sims.clone(),
        ),
        row("core.ns_per_inst", d.core_ns_per_inst, replay),
        row("core.ns_per_tick", d.core_ns_per_tick, replay),
        row("core.rob_pressure_ms", d.rob_pressure_ms, replay),
        row("core.wakeup_fanout_ms", d.wakeup_fanout_ms, replay),
        row("core.completion_pop_ms", d.completion_pop_ms, replay),
        row(
            "core.inter_cluster_fwd_frac",
            ratio(fwd_crit - fwd_intra, fwd_crit),
            sims,
        ),
        row("telemetry.attrib_overhead_x", d.attrib_overhead_x, replay),
        row("telemetry.attrib_heap_mb", d.attrib_heap_mb, replay),
        row(
            "harness.batch_overhead_ms",
            median(&overhead_ms),
            format!("self time of harness.batch spans, {}", n(&overhead_ms)),
        ),
        row("harness.retries", t.retries as f64, "traced phase"),
        row("harness.failures", t.failures as f64, "traced phase"),
        row("harness.job_key_ns", d.job_key_ns, replay),
        row("harness.store_get_us", d.store_get_us, replay),
        row("harness.store_put_us", d.store_put_us, replay),
        row("harness.store_open_ms", d.store_open_ms, replay),
        row("harness.journal_us", d.journal_us, replay),
        row(
            "harness.store_hit_ratio",
            ratio(s.cache_hits, s.cache_hits + s.simulated),
            format!("{} of {} cells", s.cache_hits, s.cache_hits + s.simulated),
        ),
        row("serve.admit_ms", median(&admit_ms), n(&admit_ms)),
        row("serve.queue_ms", median(&queue_ms), n(&queue_ms)),
        row("serve.stream_tail_ms", median(&tail_ms), n(&tail_ms)),
        row("serve.status_ms", median(&status_ms), n(&status_ms)),
        row("serve.resp_bytes", mean(&s.resp_bytes), n(&s.resp_bytes)),
        row("serve.worker_util", mean(&s.worker_util), n(&s.worker_util)),
        row(
            "serve.hit_p50_ms",
            percentile(&hit_ms, 50.0),
            tail_note(&hit_ms),
        ),
        row(
            "serve.hit_p99_ms",
            percentile(&hit_ms, 99.0),
            tail_note(&hit_ms),
        ),
        row(
            "serve.req_per_s",
            s.requests as f64 / s.wall_s,
            format!("{} requests in {:.1}s", s.requests, s.wall_s),
        ),
        row(
            "trace_overhead",
            if t.cells_per_s > 0.0 {
                o.untraced.cells_per_s / t.cells_per_s
            } else {
                0.0
            },
            "untraced over traced cells_per_s",
        ),
    ]
}

/// Prints `rows` with their units, one per line.
pub fn print_rows(catalog: &Catalog, rows: &[Row]) {
    for r in rows {
        let unit = catalog.metric(r.name).map_or("?", |m| m.unit.as_str());
        println!("  {:<30} {:>14.6} {:<8} {}", r.name, r.value, unit, r.note);
    }
}

/// The final JSON line.
pub fn json_line(
    catalog: &Catalog,
    rows: &[Row],
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let metrics = rows
        .iter()
        .map(|r| {
            let unit = catalog.metric(r.name).map_or("", |m| m.unit.as_str());
            (
                r.name.to_string(),
                Value::Obj(vec![
                    ("value".into(), Value::f64(r.value)),
                    ("unit".into(), Value::str(unit)),
                ]),
            )
        })
        .collect();
    Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::u64(attempted)),
        ("failed".into(), Value::u64(failed)),
        ("metrics".into(), Value::Obj(metrics)),
    ])
    .render()
}
