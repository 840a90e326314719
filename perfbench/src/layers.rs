//! The per-layer metric set of the traced run, named after the repository's
//! modules.  Every traced run reports all of them; a layer a workload bypasses
//! reads 0.  Times are mean self time per call in microseconds unless the name
//! says otherwise.

use std::collections::BTreeMap;

use crate::trace::Tracer;
use crate::util::quantile;

pub const PER_LAYER: [(&str, &str); 41] = [
    ("deploy.parse_us", "us"),
    ("deploy.us_per_sensor", "us"),
    ("wrappers.poll_us", "us"),
    ("wrappers.elements", "count"),
    ("wrappers.bytes", "bytes"),
    ("pipeline.us_per_element_p50", "us"),
    ("pipeline.us_per_element_p99", "us"),
    ("pipeline.outputs", "count"),
    ("storage.insert_us.memory_small", "us"),
    ("storage.insert_us.memory_large", "us"),
    ("storage.insert_us.durable_small", "us"),
    ("storage.insert_us.durable_large", "us"),
    ("storage.commit_us", "us"),
    ("storage.maintain_us", "us"),
    ("storage.fsyncs", "count"),
    ("storage.write_amp", "ratio"),
    ("storage.scan_open_us", "us"),
    ("storage.pages_read", "count"),
    ("storage.pages_skipped", "count"),
    ("storage.rows_examined_per_row_returned", "ratio"),
    ("sql.parse_us", "us"),
    ("sql.plan_us", "us"),
    ("sql.exec_us_per_row", "us"),
    ("sql.collect_us", "us"),
    ("query.eval_us_per_arrival", "us"),
    ("query.eval_us_per_client", "us"),
    ("query.seed_ms", "ms"),
    ("query.nonempty_ratio", "ratio"),
    ("notify.us_per_element", "us"),
    ("notify.delivered", "count"),
    ("notify.client_results_us", "us"),
    ("network.encode_us", "us"),
    ("network.decode_us", "us"),
    ("network.frames", "count"),
    ("network.bytes", "bytes"),
    ("mesh.coordinator_step_us", "us"),
    ("mesh.host_step_us", "us"),
    ("mesh.gossip_bytes", "bytes"),
    ("mesh.ticks_per_query", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Per-layer values under construction.
#[derive(Debug, Default)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.0.insert(name, value);
    }

    /// Mean self time of the spans called `span`, as metric `name`.
    pub fn mean_self(&mut self, name: &'static str, tracer: &Tracer, span: &str) {
        let count = tracer.count(span);
        if count > 0 {
            self.set(name, tracer.self_us_total(span) / count as f64);
        }
    }

    /// Coverage: the share of the `root` spans' time that their layer spans
    /// account for.  Overhead: traced over untraced busy time per operation.
    pub fn coverage(
        &mut self,
        tracer: &Tracer,
        root: &str,
        untraced_per_op_s: f64,
        traced_per_op_s: f64,
    ) {
        let (total, own) = tracer
            .spans()
            .iter()
            .filter(|s| s.name == root)
            .fold((0u64, 0u64), |(t, o), s| {
                (t + s.duration_ns(), o + s.self_ns())
            });
        if total > 0 {
            self.set("trace.coverage", 1.0 - own as f64 / total as f64);
        }
        if untraced_per_op_s > 0.0 {
            self.set("trace.overhead_ratio", traced_per_op_s / untraced_per_op_s);
        }
    }

    /// p50/p99 of one span's self-time distribution.
    pub fn self_quantiles(
        &mut self,
        tracer: &Tracer,
        span: &str,
        p50: &'static str,
        p99: &'static str,
    ) {
        if let Some(values) = tracer.self_us_by_name().get(span) {
            self.set(p50, quantile(values, 0.5));
            self.set(p99, quantile(values, 0.99));
        }
    }
}
