//! The per-layer ledger of the traced pass. Every workload prints every
//! metric; a layer a workload bypasses reads exactly zero.

use crate::report::{component_key, Report};
use puma::sim::{EnergyComponent, RunStats};

/// Per-layer values of one traced run. Times are host seconds; counts
/// are per request unless named otherwise.
#[derive(Default)]
pub struct Layers {
    pub nn_build_s: f64,
    pub compile_s: f64,
    pub shard_s: f64,
    pub static_instructions: f64,
    pub mvm_instructions: f64,
    pub spill_accesses: f64,
    pub sim_build_s: f64,
    pub replica_bytes: f64,
    pub lower_s: f64,
    pub run_s: f64,
    pub instructions: f64,
    pub queue_events: f64,
    pub blocked_cycles: f64,
    pub noc_words: f64,
    pub reset_s: f64,
    pub write_s: f64,
    pub read_s: f64,
    pub xbar_program_s: f64,
    pub xbar_mvm_s: f64,
    pub mvm_activations: f64,
    pub pipeline_serve_s: f64,
    pub internode_words: f64,
    pub pipeline_max_concurrent: f64,
    /// Per stage of a two-node pipeline: occupied and blocked cycles per
    /// request.
    pub stages: [(f64, f64); 2],
    pub runtime_serve_s: f64,
    pub runtime_overhead_s: f64,
    pub queue_wait_p50_cycles: f64,
    pub runtime_max_concurrent: f64,
    pub shed: f64,
    pub scale_events: f64,
    pub peak_replicas: f64,
    /// Per request, in `EnergyComponent::ALL` order.
    pub energy_nj: [f64; 9],
    pub busy_cycles: [f64; 9],
    pub setup_traced_s: f64,
    pub setup_unattributed_s: f64,
    pub request_unattributed_s: f64,
    pub trace_overhead_frac: f64,
}

impl Layers {
    /// Per-request energy ledger from the aggregate of `completed`
    /// requests.
    pub fn set_energy(&mut self, aggregate: &RunStats, completed: usize) {
        let n = completed.max(1) as f64;
        for c in EnergyComponent::ALL {
            self.energy_nj[c.index()] = aggregate.energy.component_nj(c) / n;
            self.busy_cycles[c.index()] = aggregate.energy.component_busy(c) as f64 / n;
        }
    }

    /// Every per-layer metric, by name, in a fixed order.
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        let mut m: Vec<(String, f64, &'static str)> = vec![
            ("nn.build_s".into(), self.nn_build_s, "s"),
            ("compiler.compile_s".into(), self.compile_s, "s"),
            ("compiler.shard_s".into(), self.shard_s, "s"),
            ("compiler.static_instructions".into(), self.static_instructions, "count"),
            ("compiler.mvm_instructions".into(), self.mvm_instructions, "count"),
            ("compiler.spill_accesses".into(), self.spill_accesses, "count"),
            ("sim.build_s".into(), self.sim_build_s, "s"),
            ("sim.replica_bytes".into(), self.replica_bytes, "bytes"),
            ("sim.lower_s".into(), self.lower_s, "s"),
            ("sim.run_s".into(), self.run_s, "s"),
            ("sim.minstr_per_s".into(), self.minstr_per_s(), "Minstr/s"),
            ("sim.instructions".into(), self.instructions, "count"),
            ("sim.queue_events".into(), self.queue_events, "count"),
            ("sim.queue_events_per_instr".into(), self.queue_events_per_instr(), "ratio"),
            ("sim.blocked_cycles".into(), self.blocked_cycles, "cycles"),
            ("sim.noc_words".into(), self.noc_words, "words"),
            ("sim.reset_s".into(), self.reset_s, "s"),
            ("sim.write_s".into(), self.write_s, "s"),
            ("sim.read_s".into(), self.read_s, "s"),
            ("xbar.program_s".into(), self.xbar_program_s, "s"),
            ("xbar.mvm_s".into(), self.xbar_mvm_s, "s"),
            ("xbar.mvm_activations".into(), self.mvm_activations, "count"),
            ("pipeline.serve_s".into(), self.pipeline_serve_s, "s"),
            ("pipeline.internode_words".into(), self.internode_words, "words"),
            ("pipeline.max_concurrent".into(), self.pipeline_max_concurrent, "count"),
        ];
        for (i, (occupied, blocked)) in self.stages.iter().enumerate() {
            m.push((format!("pipeline.stage{i}.occupied_cycles"), *occupied, "cycles"));
            m.push((format!("pipeline.stage{i}.blocked_cycles"), *blocked, "cycles"));
        }
        m.extend([
            ("runtime.serve_s".into(), self.runtime_serve_s, "s"),
            ("runtime.overhead_s".into(), self.runtime_overhead_s, "s"),
            ("runtime.queue_wait_p50_cycles".into(), self.queue_wait_p50_cycles, "cycles"),
            ("runtime.max_concurrent".into(), self.runtime_max_concurrent, "count"),
            ("runtime.shed".into(), self.shed, "count"),
            ("runtime.scale_events".into(), self.scale_events, "count"),
            ("runtime.peak_replicas".into(), self.peak_replicas, "count"),
        ]);
        for c in EnergyComponent::ALL {
            m.push((format!("energy.{}_nj", component_key(c)), self.energy_nj[c.index()], "nJ"));
        }
        for c in EnergyComponent::ALL {
            m.push((
                format!("energy.{}_busy_cycles", component_key(c)),
                self.busy_cycles[c.index()],
                "cycles",
            ));
        }
        m.extend([
            ("setup.traced_s".into(), self.setup_traced_s, "s"),
            ("setup.unattributed_s".into(), self.setup_unattributed_s, "s"),
            ("request.unattributed_s".into(), self.request_unattributed_s, "s"),
            ("trace.overhead_frac".into(), self.trace_overhead_frac, "fraction"),
        ]);
        m
    }

    fn minstr_per_s(&self) -> f64 {
        if self.run_s > 0.0 {
            self.instructions / self.run_s / 1e6
        } else {
            0.0
        }
    }

    fn queue_events_per_instr(&self) -> f64 {
        if self.instructions > 0.0 {
            self.queue_events / self.instructions
        } else {
            0.0
        }
    }

    pub fn emit(&self, report: &mut Report) {
        for (name, value, unit) in self.metrics() {
            report.layer(name, value, unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Layers;

    /// The printed per-layer metrics are exactly the `per_layer` list of
    /// the repository's `BENCHMARK.json`, with the same units.
    #[test]
    fn metrics_match_the_benchmark_definition() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let section = &text[text.find("\"per_layer\"").expect("per_layer section")..];
        let mut declared = Vec::new();
        for line in section.lines().filter(|l| l.contains("\"name\"")) {
            let field = |key: &str| {
                let start = line.find(key).expect("key present") + key.len();
                let rest = &line[start..];
                let open = rest.find('"').expect("value opens") + 1;
                let close = rest[open..].find('"').expect("value closes") + open;
                rest[open..close].to_string()
            };
            declared.push((field("\"name\":"), field("\"unit\":")));
        }
        let printed: Vec<(String, String)> =
            Layers::default().metrics().into_iter().map(|(n, _, u)| (n, u.to_string())).collect();
        assert_eq!(printed, declared);
    }
}
