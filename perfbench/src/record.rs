//! The metric catalogue, the line records child processes print, and
//! the result object the benchmark prints last.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("cpu_ns_per_tuple", "ns", Lower),
    m("throughput_tps", "tuples/s", Higher),
    m("delivered_ratio", "ratio", Higher),
    m("jain", "index", Higher),
    m("sic_mean", "SIC", Higher),
    m("peak_rss_mb", "MB", Lower),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: &[MetricDef] = &[
    // From the sampled real run (per-thread CPU from /proc).
    m("engine.shard.cpu_ns_per_tuple", "ns", Lower),
    m("engine.shard.runnable_share", "share", Lower),
    m("engine.pump.cpu_ns_per_tuple", "ns", Lower),
    m("engine.coordinator.cpu_ns_per_tuple", "ns", Lower),
    m("net.ingest.cpu_ns_per_tuple", "ns", Lower),
    m("sampler.overhead_share", "share", Lower),
    // From the unsampled real run's counters.
    m("engine.late_tick_share", "share", Lower),
    m("core.coordinator.msgs_per_s", "1/s", Lower),
    m("engine.sic_updates_per_s", "1/s", Lower),
    m("core.pool.reuse_share", "share", Higher),
    m("core.pool.acquires_per_tuple", "count", Lower),
    m("core.batch.allocs_per_tuple", "count", Lower),
    m("core.shedder.decide_ns", "ns", Lower),
    m("core.shedder.invocations_per_s", "1/s", Lower),
    m("core.shedder.shed_share", "share", Lower),
    m("net.link_shed_share", "share", Lower),
    m("net.batches_per_s", "1/s", Higher),
    m("core.wal.bytes_per_s", "B/s", Lower),
    m("core.wal.checkpoints", "count", Lower),
    // From the traced single-threaded replay.
    m("workloads.emit_ns_per_tuple", "ns", Lower),
    m("engine.node.enqueue_ns_per_batch", "ns", Lower),
    m("engine.node.tick_ns_per_tuple", "ns", Lower),
    m("core.shedder.select_ns_per_candidate", "ns", Lower),
    m("engine.node.tick_exec_ns_per_tuple", "ns", Lower),
    m("engine.node.idle_tick_ns", "ns", Lower),
    m("operators.window.push_ns_per_row", "ns", Lower),
    m("operators.window.close_ns_per_pane", "ns", Lower),
    m("engine.node.apply_sic_ns", "ns", Lower),
    m("core.coordinator.tick_ns_per_query", "ns", Lower),
    m("core.wal.encode_ns_per_byte", "ns", Lower),
    m("core.wal.checkpoint_ns", "ns", Lower),
    m("core.wal.append_ns", "ns", Lower),
    m("net.codec.encode_ns_per_batch", "ns", Lower),
    m("net.codec.decode_ns_per_batch", "ns", Lower),
    m("net.codec.bytes_per_tuple", "B", Lower),
    m("query.compile_ns_per_query", "ns", Lower),
    m("workloads.scenario_build_s", "s", Lower),
    m("trace.unaccounted_share", "share", Lower),
];

/// What one child process measured: named values plus named checks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Records {
    /// Measured values by name.
    pub values: BTreeMap<String, f64>,
    /// Checks: name → (passed, detail).
    pub checks: BTreeMap<String, (bool, String)>,
}

impl Records {
    /// Records a value.
    pub fn value(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    /// Records a check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.insert(name.to_string(), (ok, detail.into()));
    }

    /// True when every check passed.
    pub fn passed(&self) -> bool {
        self.checks.values().all(|(ok, _)| *ok)
    }

    /// Tab-separated lines: `v name value` and `c name 0|1 detail`.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.values {
            let _ = writeln!(out, "v\t{k}\t{v:?}");
        }
        for (k, (ok, detail)) in &self.checks {
            let detail = detail.replace(['\t', '\n'], " ");
            let _ = writeln!(out, "c\t{k}\t{}\t{detail}", u8::from(*ok));
        }
        out
    }

    /// Parses [`Records::to_lines`] output; other lines are ignored.
    pub fn parse(text: &str) -> Records {
        let mut r = Records::default();
        for line in text.lines() {
            let f: Vec<&str> = line.splitn(4, '\t').collect();
            match f.as_slice() {
                ["v", name, value] => {
                    if let Ok(v) = value.parse::<f64>() {
                        r.value(name, v);
                    }
                }
                ["c", name, ok, detail] => r.check(name, *ok == "1", *detail),
                _ => {}
            }
        }
        r
    }
}

/// Escapes a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The final result object. Non-finite values cannot be JSON numbers;
/// callers mark such a run failed before printing it as 0.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&MetricDef, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (def, v)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(
            out,
            "{}{}: {{\"value\": {v:?}, \"unit\": {}}}",
            if i == 0 { "" } else { ", " },
            json_str(def.name),
            json_str(def.unit)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_lines() {
        let mut r = Records::default();
        r.value("cpu_ns_per_tuple", 1234.5678901234);
        r.value("jain", 0.999_999_999_1);
        r.check("errors", true, "0 engine errors");
        r.check("shed", false, "shed 0.3\tvs 0.5\n");
        let back = Records::parse(&format!("noise line\n{}", r.to_lines()));
        assert_eq!(back.values, r.values, "values keep every digit");
        assert!(!back.passed());
        assert_eq!(back.checks["shed"].1, "shed 0.3 vs 0.5 ");
    }

    #[test]
    fn result_json_has_the_contract_keys() {
        let j = result_json(true, 3, 0, &[(&END_TO_END[0], 0.8127)]);
        assert_eq!(
            j,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        let nan = result_json(false, 1, 1, &[(&END_TO_END[0], f64::NAN)]);
        assert!(nan.contains("\"value\": 0.0"));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!("\"name\": \"{}\", \"unit\": \"{}\"", def.name, def.unit);
            assert!(json.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        for def in END_TO_END {
            let better = match def.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            let needle = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                def.name, def.unit
            );
            assert!(json.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        let names: std::collections::BTreeSet<&str> =
            END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "names are unique"
        );
    }
}
