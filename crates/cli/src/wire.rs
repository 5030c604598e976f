//! JSON codec between the CLI's argument structs and the sweep
//! service's wire bodies.
//!
//! `ctcp client sweep` encodes a [`SweepArgs`] with this module, ships
//! it to the daemon as the `POST /sweep` body, and the daemon's handler
//! decodes it back — both ends reuse the CLI's own flag spellings
//! (strategy and topology names exactly as `--strategies`/`--topology`
//! accept them), so the wire vocabulary can never drift from the
//! command line's.
//!
//! Execution-placement knobs (`--jobs`, `--cache`, `--metrics-out`)
//! are deliberately *not* part of the sweep body: they describe the
//! daemon's machine, not the experiment, and are fixed when the daemon
//! starts. Decoded args always come back with those fields at their
//! daemon-side values (`jobs: 0`, `cache: false`, `metrics_out: None`).

use crate::args::{
    cluster_count, parse_strategy, parse_topology, AnalyzeArgs, CliError, ProgramSource, SweepArgs,
};
use ctcp_core::Topology;
use ctcp_harness::SweepSpec;
use ctcp_sim::{Strategy, MAX_CLUSTERS};
use ctcp_telemetry::json::Value;

/// The CLI spelling of a strategy, the inverse of
/// [`parse_strategy`](crate::args::parse_strategy).
pub fn strategy_cli_name(s: Strategy) -> &'static str {
    match s {
        Strategy::Baseline => "base",
        Strategy::IssueTime { latency: 0 } => "issue0",
        Strategy::IssueTime { .. } => "issue4",
        Strategy::Friendly { middle_bias: false } => "friendly",
        Strategy::Friendly { middle_bias: true } => "friendly-mid",
        Strategy::Fdrt { pinning: true } => "fdrt",
        Strategy::Fdrt { pinning: false } => "fdrt-nopin",
        Strategy::FdrtIntraOnly => "fdrt-intra",
    }
}

/// The CLI spelling of a topology, the inverse of `parse_topology`.
pub fn topology_cli_name(t: Topology) -> &'static str {
    match t {
        Topology::Linear => "linear",
        Topology::Ring => "ring",
        Topology::FullyConnected => "full",
    }
}

fn str_arr<T, F: Fn(&T) -> String>(items: &[T], f: F) -> Value {
    Value::Arr(items.iter().map(|i| Value::Str(f(i))).collect())
}

/// Encodes a sweep request body.
pub fn sweep_to_json(a: &SweepArgs) -> Value {
    let mut fields = vec![
        ("benches".into(), str_arr(&a.spec.benches, Clone::clone)),
        (
            "strategies".into(),
            str_arr(&a.spec.strategies, |&s| strategy_cli_name(s).to_string()),
        ),
        (
            "clusters".into(),
            Value::Arr(
                a.spec
                    .clusters
                    .iter()
                    .map(|&c| Value::u64(c.into()))
                    .collect(),
            ),
        ),
        (
            "topologies".into(),
            str_arr(&a.spec.topologies, |&t| topology_cli_name(t).to_string()),
        ),
        ("insts".into(), Value::u64(a.spec.insts)),
        ("csv".into(), Value::Bool(a.csv)),
        ("attrib".into(), Value::Bool(a.attrib)),
    ];
    // Warmup post-dates the v1 body: emit only when set (see
    // `warmup_field`).
    if a.spec.warmup != 0 {
        fields.push(("warmup".into(), Value::u64(a.spec.warmup)));
    }
    Value::Obj(fields)
}

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, CliError> {
    v.get(key)
        .ok_or_else(|| CliError(format!("request body is missing {key:?}")))
}

fn str_list(v: &Value, key: &str) -> Result<Vec<String>, CliError> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| CliError(format!("{key:?} must be an array")))?
        .iter()
        .map(|e| {
            e.as_str()
                .map(str::to_string)
                .ok_or_else(|| CliError(format!("{key:?} must hold strings")))
        })
        .collect()
}

fn u64_field(v: &Value, key: &str) -> Result<u64, CliError> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| CliError(format!("{key:?} must be an unsigned integer")))
}

fn bool_field(v: &Value, key: &str) -> Result<bool, CliError> {
    match field(v, key)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(CliError(format!("{key:?} must be a boolean"))),
    }
}

/// The optional `warmup` field. Absent means zero: warmup-free bodies
/// predate the field, and encoders emit it only when set, so their
/// bytes (and resume tokens) stay what older daemons expect.
fn warmup_field(v: &Value) -> Result<u64, CliError> {
    match v.get("warmup") {
        None => Ok(0),
        Some(w) => w
            .as_u64()
            .ok_or_else(|| CliError("\"warmup\" must be an unsigned integer".into())),
    }
}

/// Decodes a sweep request body, validating every field with the same
/// rules as the command line.
pub fn sweep_from_json(v: &Value) -> Result<SweepArgs, CliError> {
    let strategies = str_list(v, "strategies")?
        .iter()
        .map(|s| parse_strategy(s))
        .collect::<Result<_, _>>()?;
    let topologies = str_list(v, "topologies")?
        .iter()
        .map(|t| parse_topology(t))
        .collect::<Result<_, _>>()?;
    let clusters = field(v, "clusters")?
        .as_arr()
        .ok_or_else(|| CliError("\"clusters\" must be an array".into()))?
        .iter()
        .map(|c| {
            c.as_u64().and_then(cluster_count).ok_or_else(|| {
                CliError(format!(
                    "bad cluster count {} (1..={MAX_CLUSTERS})",
                    c.render()
                ))
            })
        })
        .collect::<Result<_, _>>()?;
    let warmup = warmup_field(v)?;
    Ok(SweepArgs {
        spec: SweepSpec {
            benches: str_list(v, "benches")?,
            strategies,
            clusters,
            topologies,
            insts: u64_field(v, "insts")?,
            warmup,
        },
        csv: bool_field(v, "csv")?,
        attrib: bool_field(v, "attrib")?,
        // Daemon-side knobs: fixed at daemon start, never on the wire.
        jobs: 0,
        cache: false,
        metrics_out: None,
    })
}

/// Encodes an analyze request body.
///
/// # Errors
///
/// Remote analysis only supports benchmark presets — an `--asm` file
/// lives on the client's filesystem, which the daemon cannot see.
pub fn analyze_to_json(a: &AnalyzeArgs) -> Result<Value, CliError> {
    let ProgramSource::Bench(bench) = &a.run.source else {
        return Err(CliError(
            "client analyze needs --bench (the daemon cannot read local --asm files)".into(),
        ));
    };
    let mut fields = vec![
        ("bench".into(), Value::str(bench)),
        (
            "strategies".into(),
            str_arr(&a.strategies, |&s| strategy_cli_name(s).to_string()),
        ),
        ("insts".into(), Value::u64(a.run.insts)),
        ("clusters".into(), Value::u64(a.run.clusters.into())),
        (
            "topology".into(),
            Value::str(topology_cli_name(a.run.topology)),
        ),
        ("hop".into(), Value::u64(a.run.hop_latency)),
        ("top".into(), Value::u64(a.top as u64)),
        ("json".into(), Value::Bool(a.json)),
        ("csv".into(), Value::Bool(a.run.csv)),
    ];
    if a.run.warmup != 0 {
        fields.push(("warmup".into(), Value::u64(a.run.warmup)));
    }
    Ok(Value::Obj(fields))
}

/// Decodes an analyze request body.
pub fn analyze_from_json(v: &Value) -> Result<AnalyzeArgs, CliError> {
    let mut out = AnalyzeArgs::default();
    let bench = field(v, "bench")?
        .as_str()
        .ok_or_else(|| CliError("\"bench\" must be a string".into()))?;
    out.run.source = ProgramSource::Bench(bench.to_string());
    out.strategies = str_list(v, "strategies")?
        .iter()
        .map(|s| parse_strategy(s))
        .collect::<Result<_, _>>()?;
    out.run.insts = u64_field(v, "insts")?;
    out.run.clusters = cluster_count(u64_field(v, "clusters")?)
        .ok_or_else(|| CliError(format!("bad \"clusters\" value (1..={MAX_CLUSTERS})")))?;
    out.run.topology = parse_topology(
        field(v, "topology")?
            .as_str()
            .ok_or_else(|| CliError("\"topology\" must be a string".into()))?,
    )?;
    out.run.hop_latency = u64_field(v, "hop")?;
    out.top =
        usize::try_from(u64_field(v, "top")?).map_err(|_| CliError("bad \"top\" value".into()))?;
    out.json = bool_field(v, "json")?;
    out.run.csv = bool_field(v, "csv")?;
    out.run.warmup = warmup_field(v)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_strategy_name_round_trips() {
        for s in [
            Strategy::Baseline,
            Strategy::IssueTime { latency: 0 },
            Strategy::IssueTime { latency: 4 },
            Strategy::Friendly { middle_bias: false },
            Strategy::Friendly { middle_bias: true },
            Strategy::Fdrt { pinning: true },
            Strategy::Fdrt { pinning: false },
            Strategy::FdrtIntraOnly,
        ] {
            assert_eq!(parse_strategy(strategy_cli_name(s)).unwrap(), s);
        }
        for t in [Topology::Linear, Topology::Ring, Topology::FullyConnected] {
            assert_eq!(parse_topology(topology_cli_name(t)).unwrap(), t);
        }
    }

    #[test]
    fn sweep_args_round_trip_through_json() {
        let mut args = SweepArgs {
            spec: SweepSpec {
                benches: vec!["gzip".into(), "twolf".into()],
                strategies: vec![
                    Strategy::Fdrt { pinning: true },
                    Strategy::Friendly { middle_bias: true },
                ],
                clusters: vec![2, 4],
                topologies: vec![Topology::Ring, Topology::FullyConnected],
                insts: 12_345,
                warmup: 6_000,
            },
            csv: true,
            attrib: true,
            // Daemon-side knobs are dropped by the codec.
            jobs: 7,
            cache: true,
            metrics_out: Some("m.jsonl".into()),
        };
        let rendered = sweep_to_json(&args).render();
        let decoded = sweep_from_json(&Value::parse(&rendered).unwrap()).unwrap();
        args.jobs = 0;
        args.cache = false;
        args.metrics_out = None;
        assert_eq!(decoded, args);
    }

    #[test]
    fn warmup_free_bodies_stay_byte_identical() {
        // A spec with warmup 0 must render exactly the pre-warmup body
        // (no "warmup" key) and such bodies must decode to warmup 0.
        let args = SweepArgs {
            spec: SweepSpec {
                benches: vec!["gzip".into()],
                strategies: vec![Strategy::Fdrt { pinning: true }],
                clusters: vec![4],
                topologies: vec![Topology::Linear],
                insts: 1_000,
                warmup: 0,
            },
            ..SweepArgs::default()
        };
        let rendered = sweep_to_json(&args).render();
        assert!(!rendered.contains("warmup"), "{rendered}");
        let decoded = sweep_from_json(&Value::parse(&rendered).unwrap()).unwrap();
        assert_eq!(decoded.spec.warmup, 0);
        // And a bad warmup value is a clean decode error.
        let bad = rendered.replacen('{', "{\"warmup\":\"soon\",", 1);
        assert!(sweep_from_json(&Value::parse(&bad).unwrap()).is_err());
    }

    #[test]
    fn analyze_args_round_trip_through_json() {
        let mut args = AnalyzeArgs::default();
        args.run.source = ProgramSource::Bench("twolf".into());
        args.run.insts = 9_000;
        args.run.clusters = 2;
        args.run.topology = Topology::Ring;
        args.run.hop_latency = 1;
        args.strategies = vec![Strategy::Baseline, Strategy::Fdrt { pinning: true }];
        args.top = 3;
        args.json = true;
        let rendered = analyze_to_json(&args).unwrap().render();
        assert!(!rendered.contains("warmup"), "{rendered}");
        let decoded = analyze_from_json(&Value::parse(&rendered).unwrap()).unwrap();
        assert_eq!(decoded, args);
        // A warmed analysis keeps its warmup across the wire.
        args.run.warmup = 40_000;
        let rendered = analyze_to_json(&args).unwrap().render();
        let decoded = analyze_from_json(&Value::parse(&rendered).unwrap()).unwrap();
        assert_eq!(decoded, args);
    }

    #[test]
    fn asm_sources_cannot_cross_the_wire() {
        let mut args = AnalyzeArgs::default();
        args.run.source = ProgramSource::AsmFile("k.s".into());
        let err = analyze_to_json(&args).unwrap_err();
        assert!(err.0.contains("--bench"), "{err}");
    }

    #[test]
    fn malformed_bodies_decode_to_clean_errors() {
        for body in [
            "{}",
            "{\"benches\":[\"gzip\"]}",
            "{\"benches\":[\"gzip\"],\"strategies\":[\"warp\"],\"clusters\":[4],\
             \"topologies\":[\"linear\"],\"insts\":1,\"csv\":false,\"attrib\":false}",
            "{\"benches\":[\"gzip\"],\"strategies\":[\"fdrt\"],\"clusters\":[9],\
             \"topologies\":[\"linear\"],\"insts\":1,\"csv\":false,\"attrib\":false}",
        ] {
            let v = Value::parse(body).unwrap();
            assert!(sweep_from_json(&v).is_err(), "{body}");
        }
    }

    #[test]
    fn out_of_range_cluster_counts_name_the_range() {
        let mut sweep = SweepArgs::default();
        sweep.spec.clusters = vec![4, 9];
        let err = sweep_from_json(&sweep_to_json(&sweep)).unwrap_err();
        assert_eq!(err.0, "bad cluster count 9 (1..=8)");
        let mut analyze = AnalyzeArgs::default();
        analyze.run.clusters = 0;
        let err = analyze_from_json(&analyze_to_json(&analyze).unwrap()).unwrap_err();
        assert_eq!(err.0, "bad \"clusters\" value (1..=8)");
    }
}
