//! The benchmark's metric catalogue and its result line.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics; the
//! self-tests keep the two in step (names, units, directions).

use std::collections::BTreeMap;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (rates, throughput).
    Higher,
    /// Smaller values are better (times, bytes, memory).
    Lower,
}

impl Better {
    /// The `better` field's spelling in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric: name, unit, direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics of an untraced run (`--trace 0`), reported on every workload.
pub const END_TO_END: &[MetricDef] = &[
    def("invert_s", "s", Lower),
    def("request_p50_ms", "ms", Lower),
    def("ops_per_s", "1/s", Higher),
    def("setup_s", "s", Lower),
    def("peak_rss_mb", "MB", Lower),
];

/// Metrics of a traced run (`--trace 1`), reported on every workload.
pub const PER_LAYER: &[MetricDef] = &[
    def("io.decode_text_s", "s", Lower),
    def("io.encode_text_s", "s", Lower),
    def("io.text_bytes", "bytes", Lower),
    def("partition.s", "s", Lower),
    def("lu_mr.s", "s", Lower),
    def("lu_mr.jobs", "count", Lower),
    def("lu_mr.task_cpu_s", "s", Lower),
    def("lu_mr.kernel_cpu_s", "s", Lower),
    def("tri_inv_mr.s", "s", Lower),
    def("tri_inv_mr.task_cpu_s", "s", Lower),
    def("tri_inv_mr.kernel_cpu_s", "s", Lower),
    def("runner.task_attempts", "count", Lower),
    def("runner.failed_attempts", "count", Lower),
    def("runner.nonkernel_cpu_s", "s", Lower),
    def("runner.outside_tasks_s", "s", Lower),
    def("dfs.read_bytes", "bytes", Lower),
    def("dfs.write_bytes", "bytes", Lower),
    def("dfs.read_per_input", "ratio", Lower),
    def("kernel.gemm_calls", "count", Lower),
    def("kernel.gemm_flops", "flop", Lower),
    def("kernel.gemm_s", "s", Lower),
    def("kernel.gemm_gflops", "GFLOP/s", Higher),
    def("kernel.pack_s", "s", Lower),
    def("kernel.gemm_peak_gflops", "GFLOP/s", Higher),
    def("kernel.trsm_gflops", "GFLOP/s", Higher),
    def("triangular.invert_lower_gflops", "GFLOP/s", Higher),
    def("norms.residual_s", "s", Lower),
    def("inmem.invert_block_s", "s", Lower),
    def("mem.copy_gbps", "GB/s", Higher),
    def("cache.key_ms", "ms", Lower),
    def("cache.hit_solve_ms", "ms", Lower),
    def("cache.hits", "count", Higher),
    def("cache.misses", "count", Lower),
    def("cache.entries", "count", Lower),
    def("service.warm_overhead_ms", "ms", Lower),
    def("service.cold_pipeline_ms", "ms", Lower),
    def("service.served", "count", Higher),
    def("wire.request_bytes", "bytes", Lower),
    def("wire.response_bytes", "bytes", Lower),
    def("wire.bytes_per_payload_byte", "ratio", Lower),
    def("trace.invert_s", "s", Lower),
    def("trace.untraced_invert_s", "s", Lower),
    def("trace.overhead_ratio", "ratio", Lower),
    def("host.reference_ms", "ms", Lower),
];

/// Whether `s` is a valid metric or workload name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `s` is a valid unit: 1–16 characters from `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Metric values collected by one run, keyed by name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `name = value`; the name must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is not in the catalogue"
        );
        self.0.insert(name, value);
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Renders the result line for `defs`. Errors name every catalogue
    /// metric that is missing or not a finite number.
    pub fn result_line(
        &self,
        defs: &[MetricDef],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut bad = Vec::new();
        let mut body = Vec::new();
        for d in defs {
            match self.get(d.name) {
                // `{}` prints a finite f64 as a valid JSON number with every
                // digit of its shortest round-trip form.
                Some(v) if v.is_finite() => body.push(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name, v, d.unit
                )),
                other => bad.push(format!("{}={other:?}", d.name)),
            }
        }
        if !bad.is_empty() {
            return Err(format!("metrics missing or not finite: {}", bad.join(", ")));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        ))
    }
}
