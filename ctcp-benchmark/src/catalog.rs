//! The benchmark's contract, read from the repository's
//! `BENCHMARK.json`: run length, workloads, and every metric's name,
//! unit, direction and regression bound. The file is compiled in, so
//! the names this binary prints and the names the file declares cannot
//! drift apart without a test noticing.

use ctcp_telemetry::json::Value;

/// `BENCHMARK.json` as committed at the repository root.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, sizes, miss rates).
    Lower,
    /// Larger is better (throughputs, hit rates).
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name, as printed.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// Seconds one run measures when `--seconds` is not given.
    pub run_seconds: u64,
    /// Workload names with the reason each exists.
    pub workloads: Vec<(String, String)>,
    /// Metrics an untraced run prints.
    pub end_to_end: Vec<MetricDef>,
    /// Metrics a traced run prints.
    pub per_layer: Vec<MetricDef>,
}

/// Whether `name` is a valid metric or workload name: a letter or digit
/// first, then at most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn metrics(root: &Value, key: &str) -> Result<Vec<MetricDef>, String> {
    let list = root
        .get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{key:?} must be an array"))?;
    list.iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("a {key} entry lacks {k:?}"))
            };
            let better = match text("better")?.as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("bad direction {other:?}")),
            };
            Ok(MetricDef {
                name: text("name")?,
                unit: text("unit")?,
                better,
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Catalog {
    /// Parses `text` (the contents of `BENCHMARK.json`).
    ///
    /// # Errors
    ///
    /// A message naming the first missing or malformed field.
    pub fn parse(text: &str) -> Result<Catalog, String> {
        let root = Value::parse(text)?;
        let run_seconds = root
            .get("run_seconds")
            .and_then(Value::as_u64)
            .ok_or("\"run_seconds\" must be a whole number")?;
        let workloads = root
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("\"workloads\" must be an array")?
            .iter()
            .map(|w| {
                let name = w.get("name").and_then(Value::as_str);
                let why = w.get("why").and_then(Value::as_str);
                match (name, why) {
                    (Some(n), Some(y)) => Ok((n.to_string(), y.to_string())),
                    _ => Err("a workload lacks \"name\" or \"why\"".to_string()),
                }
            })
            .collect::<Result<_, _>>()?;
        let c = Catalog {
            run_seconds,
            workloads,
            end_to_end: metrics(&root, "end_to_end")?,
            per_layer: metrics(&root, "per_layer")?,
        };
        let names = c.workloads.iter().map(|(n, _)| n);
        let metric_names = c.end_to_end.iter().chain(&c.per_layer).map(|m| &m.name);
        match names.chain(metric_names).find(|n| !valid_name(n)) {
            Some(bad) => Err(format!("invalid name {bad:?}")),
            None => Ok(c),
        }
    }

    /// The committed contract.
    pub fn committed() -> Catalog {
        Catalog::parse(BENCHMARK_JSON).expect("BENCHMARK.json is checked by the tests")
    }

    /// The definition of `name`, end-to-end or per-layer.
    pub fn metric(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_names_are_valid_and_unique() {
        let c = Catalog::committed();
        let mut names: Vec<&str> = c.workloads.iter().map(|(n, _)| n.as_str()).collect();
        names.extend(
            c.end_to_end
                .iter()
                .chain(&c.per_layer)
                .map(|m| m.name.as_str()),
        );
        for n in &names {
            assert!(valid_name(n), "invalid name {n:?}");
        }
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "names must be used once");
        for m in &c.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!((0.0..=0.25).contains(&bound), "{}", m.name);
        }
        let setup = c.metric("setup_s").expect("setup_s is declared");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
    }

    #[test]
    fn name_rule() {
        assert!(valid_name("sim.cell_p50_ms"));
        assert!(valid_name("9lives-x"));
        assert!(!valid_name(""));
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"a".repeat(65)));
    }
}
