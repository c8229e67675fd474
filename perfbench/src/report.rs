//! Metric names, per-run sample collection, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics (untraced runs): name and unit. Every workload
/// prints all of them; `BENCHMARK.json` lists the same set.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("request_p50_s", "s"),
    ("request_tail_s", "s"),
    ("windows_per_s", "windows/s"),
    ("first_point_p50_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs): name and unit. Metrics that do not
/// apply to a workload (or cannot be observed from outside the program
/// on it) read 0; README.md says which apply where.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("workloads.generate_s", "s"),
    ("workloads.build_s", "s"),
    ("trace.exec_ns_per_inst", "ns/inst"),
    ("trace.populate_s", "s"),
    ("sample.ff_s", "s"),
    ("sample.warm_s", "s"),
    ("sample.detail_s", "s"),
    ("sample.cell_ms", "ms"),
    ("sample.reuse_ratio", "ratio"),
    ("store.ckpt_hits", "count"),
    ("store.ckpt_misses", "count"),
    ("store.ckpt_rejected", "count"),
    ("store.bank_hits", "count"),
    ("store.bank_misses", "count"),
    ("store.ckpt_load_ms", "ms"),
    ("store.warm_load_ms", "ms"),
    ("store.bytes", "bytes"),
    ("core.ns_per_cycle.ev8", "ns/cycle"),
    ("core.ns_per_cycle.ftb", "ns/cycle"),
    ("core.ns_per_cycle.stream", "ns/cycle"),
    ("core.ns_per_cycle.tcache", "ns/cycle"),
    ("core.sim_cycles", "cycles"),
    ("grid.merge_ms", "ms"),
    ("grid.parse_ms", "ms"),
    ("fleet.spawned", "count"),
    ("fleet.retries", "count"),
    ("fleet.kills", "count"),
    ("fleet.cell_p50_ms", "ms"),
    ("fleet.cell_max_ms", "ms"),
    ("fleet.busy_frac", "fraction"),
    ("serve.accept_ms", "ms"),
    ("serve.first_cell_ms", "ms"),
    ("serve.cold_ms", "ms"),
    ("serve.extend_ms", "ms"),
    ("serve.resume_ms", "ms"),
    ("serve.computed", "count"),
    ("serve.resumed", "count"),
    ("serve.shared", "count"),
    ("self.trace_s", "s"),
    ("self.sample_s", "s"),
    ("self.store_s", "s"),
    ("self.grid_s", "s"),
    ("self.fleet_s", "s"),
    ("self.serve_s", "s"),
    ("self.gap_s", "s"),
    ("bench.trace_overhead", "fraction"),
    ("bench.opaque_frac", "fraction"),
];

/// Samples collected during one run, by metric name.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Records one sample.
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    /// The samples recorded under `name`.
    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that errored, degraded or failed the gate (the
    /// reference, the cycle pin, the BENCH_10 estimates).
    pub failed: u64,
    /// Final metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines for stderr.
    pub notes: Vec<String>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.metrics.insert(name, v);
    }

    /// Per-layer values from `s`: counts are means per request, every
    /// other metric the median of its samples; absent metrics read 0.
    pub fn set_layers_from(&mut self, s: &Samples) {
        for (name, unit) in PER_LAYER {
            if self.metrics.contains_key(name) {
                continue;
            }
            let v = s.get(name);
            let value = if v.is_empty() {
                0.0
            } else if unit == "count" {
                v.iter().sum::<f64>() / v.len() as f64
            } else {
                crate::stats::median(v)
            };
            self.metrics.insert(name, value);
        }
    }

    /// The result line: the metrics of `set` (end-to-end or per-layer),
    /// in its order.
    ///
    /// # Errors
    ///
    /// Names a metric of `set` the run did not produce, or a value that
    /// is not a finite number.
    pub fn json_line(&self, set: &[(&str, &str)]) -> Result<String, String> {
        let mut fields = Vec::new();
        for &(name, unit) in set {
            let v = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is {v}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        let correct = self.failed == 0 && self.attempted > 0;
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name` fields of one top-level array of `BENCHMARK.json`
    /// (the file's own fixed layout; no JSON parser is vendored).
    fn names_in(json: &str, array: &str) -> Vec<String> {
        let start = json.find(&format!("\"{array}\"")).expect("array present");
        let body = &json[start..];
        let end = body.find(']').expect("array closes");
        body[..end]
            .split("\"name\"")
            .skip(1)
            .map(|rest| {
                let open = rest.find('"').expect("name value") + 1;
                let len = rest[open..].find('"').expect("name closes");
                rest[open..open + len].to_owned()
            })
            .collect()
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let ours =
            |set: &[(&str, &str)]| set.iter().map(|(n, _)| (*n).to_owned()).collect::<Vec<_>>();
        assert_eq!(names_in(&json, "end_to_end"), ours(&END_TO_END));
        assert_eq!(names_in(&json, "per_layer"), ours(&PER_LAYER));
        // Units too, in the same order.
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let tag = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&tag), "BENCHMARK.json lacks {tag}");
        }
        let names = names_in(&json, "workloads");
        assert_eq!(
            names,
            crate::WORKLOADS
                .iter()
                .map(|w| (*w).to_owned())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn the_result_line_carries_every_metric_of_the_set() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let line = r.json_line(&END_TO_END).expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
        assert!(
            r.json_line(&PER_LAYER).is_err(),
            "missing metrics are an error"
        );
    }
}
