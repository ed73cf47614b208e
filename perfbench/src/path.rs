//! The per-request public path — `reset` → `write_input` → `run` →
//! `read_output` — driven directly on a simulator, so the traced pass can
//! time each call from outside. It does what the runtime does for one
//! request, through the same public calls.

use crate::trace::Tracer;
use puma::compiler::CompiledModel;
use puma::core::config::NodeConfig;
use puma::core::Result;
use puma::isa::MachineImage;
use puma::sim::{ClusterSim, NodeSim, RunStats, SimEngine, SimMode};
use puma::xbar::NoiseModel;
use std::collections::HashMap;
use std::time::Instant;

/// Named logical input vectors of one request.
pub type Inputs = Vec<(String, Vec<f32>)>;
/// Named logical output vectors of one request.
pub type Outputs = HashMap<String, Vec<f32>>;

/// A single node, or a cluster for a sharded model.
pub enum Sim {
    Node(Box<NodeSim>),
    Cluster(Box<ClusterSim>),
}

impl Sim {
    /// Builds the simulator the runtime would build for these images.
    pub fn build(cfg: NodeConfig, images: &[MachineImage], mode: SimMode) -> Result<Sim> {
        let noise = NoiseModel::noiseless();
        Ok(match images {
            [single] => Sim::Node(Box::new(NodeSim::new(cfg, single, mode, &noise)?)),
            many => Sim::Cluster(Box::new(ClusterSim::new(cfg, many, mode, &noise)?)),
        })
    }

    pub fn set_engine(&mut self, engine: SimEngine) {
        match self {
            Sim::Node(s) => s.set_engine(engine),
            Sim::Cluster(s) => s.set_engine(engine),
        }
    }

    pub fn state_bytes(&self) -> usize {
        match self {
            Sim::Node(s) => s.state_bytes(),
            Sim::Cluster(s) => s.state_bytes(),
        }
    }

    fn reset(&mut self) {
        match self {
            Sim::Node(s) => s.reset(),
            Sim::Cluster(s) => s.reset(),
        }
    }

    fn write(&mut self, name: &str, values: &[f32]) -> Result<()> {
        match self {
            Sim::Node(s) => s.write_input(name, values),
            Sim::Cluster(s) => s.write_input(name, values),
        }
    }

    fn read(&self, name: &str) -> Result<Vec<f32>> {
        match self {
            Sim::Node(s) => s.read_output(name),
            Sim::Cluster(s) => s.read_output(name),
        }
    }

    fn run(&mut self, resident: Option<&str>) -> Result<RunStats> {
        Ok(match (self, resident) {
            (Sim::Node(s), Some(name)) => s.run_resident(name)?.clone(),
            (Sim::Node(s), None) => s.run()?.clone(),
            (Sim::Cluster(s), Some(name)) => s.run_resident(name)?.clone(),
            (Sim::Cluster(s), None) => s.run()?.clone(),
        })
    }

    fn queue_events(&self) -> u64 {
        match self {
            Sim::Node(s) => s.queue_events(),
            Sim::Cluster(s) => s.queue_events(),
        }
    }
}

/// One request's calls, as the replay drives them.
pub trait RequestPath {
    /// Selects the model later calls address (tenant paths only).
    fn select(&mut self, _stream: usize) {}
    fn reset(&mut self);
    fn write(&mut self, inputs: &Inputs) -> Result<()>;
    fn run(&mut self) -> Result<RunStats>;
    fn read(&self) -> Result<Outputs>;
    /// Event-queue pops of the last run.
    fn queue_events(&self) -> u64;
}

/// Graph-compiled models on one simulator. A tenant model is addressed
/// through its `"{tenant}:"`-prefixed fabric bindings and runs only its
/// own tiles, as the tenant server runs it.
pub struct GraphPath<'a> {
    pub sim: Sim,
    models: Vec<(&'a CompiledModel, Option<&'a str>)>,
    current: usize,
}

impl<'a> GraphPath<'a> {
    /// One model owning the whole simulator.
    pub fn single(sim: Sim, compiled: &'a CompiledModel) -> Self {
        GraphPath { sim, models: vec![(compiled, None)], current: 0 }
    }

    /// Resident tenants of one fabric, selected by stream index.
    pub fn tenants(sim: Sim, tenants: Vec<(&'a CompiledModel, &'a str)>) -> Self {
        let models = tenants.into_iter().map(|(c, name)| (c, Some(name))).collect();
        GraphPath { sim, models, current: 0 }
    }

    fn compiled(&self) -> &'a CompiledModel {
        self.models[self.current].0
    }

    fn binding(&self, name: &str) -> String {
        match self.models[self.current].1 {
            Some(t) => format!("{t}:{name}"),
            None => name.to_string(),
        }
    }
}

impl RequestPath for GraphPath<'_> {
    fn select(&mut self, stream: usize) {
        self.current = stream;
    }

    fn reset(&mut self) {
        self.sim.reset();
    }

    fn write(&mut self, inputs: &Inputs) -> Result<()> {
        let compiled = self.compiled();
        for (binding, values) in &compiled.const_data {
            let name = self.binding(&binding.name);
            self.sim.write(&name, values)?;
        }
        for io in &compiled.inputs {
            let data =
                inputs.iter().find(|(n, _)| *n == io.name).map(|(_, v)| v).ok_or_else(|| {
                    puma::core::PumaError::Execution {
                        what: format!("missing input {:?}", io.name),
                    }
                })?;
            let mut offset = 0;
            for (chunk, &w) in io.chunks.iter().zip(&io.chunk_widths) {
                let name = self.binding(chunk);
                self.sim.write(&name, &data[offset..offset + w])?;
                offset += w;
            }
        }
        Ok(())
    }

    fn run(&mut self) -> Result<RunStats> {
        self.sim.run(self.models[self.current].1)
    }

    fn read(&self) -> Result<Outputs> {
        let mut out = HashMap::new();
        for io in &self.compiled().outputs {
            let mut data = Vec::with_capacity(io.width);
            for chunk in &io.chunks {
                data.extend(self.sim.read(&self.binding(chunk))?);
            }
            out.insert(io.name.clone(), data);
        }
        Ok(out)
    }

    fn queue_events(&self) -> u64 {
        self.sim.queue_events()
    }
}

/// The looped CNN image on one node (its single input and output).
pub struct CnnPath<'a> {
    pub sim: NodeSim,
    pub input: &'a str,
    pub output: &'a str,
}

impl RequestPath for CnnPath<'_> {
    fn reset(&mut self) {
        self.sim.reset();
    }

    fn write(&mut self, inputs: &Inputs) -> Result<()> {
        self.sim.write_input(self.input, &inputs[0].1)
    }

    fn run(&mut self) -> Result<RunStats> {
        Ok(self.sim.run()?.clone())
    }

    fn read(&self) -> Result<Outputs> {
        Ok(HashMap::from([(self.output.to_string(), self.sim.read_output(self.output)?)]))
    }

    fn queue_events(&self) -> u64 {
        self.sim.queue_events()
    }
}

/// One request's results on the replay path.
pub struct Replayed {
    pub stream: usize,
    pub request: usize,
    pub stats: RunStats,
    pub outputs: Outputs,
    pub queue_events: u64,
    /// Host seconds for the whole request (all four calls).
    pub seconds: f64,
}

/// Runs one request through the four calls, untimed per call.
pub fn run_one(
    path: &mut dyn RequestPath,
    stream: usize,
    request: usize,
    inputs: &Inputs,
) -> Result<Replayed> {
    path.select(stream);
    let t = Instant::now();
    path.reset();
    path.write(inputs)?;
    let stats = path.run()?;
    let outputs = path.read()?;
    let seconds = t.elapsed().as_secs_f64();
    Ok(Replayed { stream, request, stats, outputs, queue_events: path.queue_events(), seconds })
}

/// Runs one request with a span around each call, under a `request`
/// span carrying the request id.
pub fn run_one_traced(
    path: &mut dyn RequestPath,
    stream: usize,
    request: usize,
    inputs: &Inputs,
    tracer: &mut Tracer,
) -> Result<Replayed> {
    path.select(stream);
    let root = tracer.enter("request", Some(request));
    tracer.span("sim.reset", Some(request), || path.reset());
    tracer.span("sim.write", Some(request), || path.write(inputs))?;
    let stats = tracer.span("sim.run", Some(request), || path.run())?;
    let outputs = tracer.span("sim.read", Some(request), || path.read())?;
    tracer.exit(root);
    let seconds = tracer.get(root).seconds();
    Ok(Replayed { stream, request, stats, outputs, queue_events: path.queue_events(), seconds })
}
