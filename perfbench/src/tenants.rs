//! `mlp-tenants`: MLPL4 and LSTM-26-120-61 with materialized weights, in
//! functional mode, co-resident on one tenant-server fabric with room for
//! one more replica of each. Each model is fed its own Poisson stream.

use crate::layers::Layers;
use crate::path::{run_one, run_one_traced, GraphPath, Inputs, Sim};
use crate::report::{median, Report};
use crate::rng::Rng;
use crate::serving::{
    fail, replay_requests, Res, ServeRun, Served, ServedWorkload, Service, Stream, StreamInfo,
};
use crate::trace::Tracer;
use crate::Ctx;
use puma::compiler::graph::Model;
use puma::compiler::{compile, compose_fabric, CompiledModel, CompilerOptions, Resident};
use puma::core::config::NodeConfig;
use puma::nn::{zoo, WeightFactory};
use puma::runtime::{
    BatchRequest, Deployment, Disposition, FabricSpec, ModelCatalog, ScalePolicy, TenantServer,
    TenantStream,
};
use puma::sim::{NodeSim, ResidentModel, RunStats, SimEngine, SimMode};
use puma::xbar::NoiseModel;
use std::collections::HashMap;
use std::time::Instant;

const MODELS: [&str; 2] = ["MLPL4", "LSTM-26-120-61"];
/// Requests each model's queue may hold before it grows a replica.
const SCALE_UP_DEPTH: usize = 2;
/// Most replicas per model; the fabric has room for exactly this many.
const MAX_REPLICAS: usize = 2;
/// Completed requests per model checked against the f32 reference.
const CHECKED: usize = 8;
/// Largest accepted |simulated − f32 reference| of any output element,
/// per model: the tolerances the repository's differential suites give
/// the Q4.12 datapath — `0.02 × layers + 0.01` for an MLP, 0.15 for the
/// zoo LSTM.
const TOLERANCE: [f32; 2] = [0.02 * 4.0 + 0.01, 0.15];

#[derive(Default)]
pub struct Tenants {
    /// The models of the last set-up, for the f32 reference.
    models: Vec<Model>,
    /// Where the last set-up placed each model, and the fabric's node
    /// configuration, for the traced set-up to rebuild the same fabric.
    placement: Vec<Deployment>,
    fabric_cfg: NodeConfig,
}

fn build_models(seed: u64) -> Res<Vec<Model>> {
    MODELS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mut weights = WeightFactory::materialized(seed.wrapping_add(i as u64));
            zoo::build_graph_model(&zoo::spec(name), &mut weights, None)
                .map_err(fail("building a tenant model"))?
                .ok_or_else(|| format!("{name} is not graph-compilable"))
        })
        .collect()
}

/// Room for `MAX_REPLICAS` of every model.
fn fabric(compiled: &[&CompiledModel]) -> FabricSpec {
    let tiles: usize = compiled.iter().map(|c| c.stats.tiles_used.max(1)).sum();
    FabricSpec::new(1, tiles * MAX_REPLICAS)
}

impl Service for TenantServer {
    type Prepared = Vec<TenantStream>;

    fn prepare(&self, streams: &[Stream]) -> Vec<TenantStream> {
        streams.iter().map(|s| TenantStream::new(&s.model, s.requests.clone(), s.pattern)).collect()
    }

    fn serve(&self, prepared: &Vec<TenantStream>) -> Res<ServeRun> {
        let out = TenantServer::serve(self, prepared).map_err(fail("tenant serve"))?;
        let mut stats = RunStats::default();
        let mut windows = Vec::new();
        let mut peak = 0;
        let mut streams = Vec::new();
        for m in out.models {
            stats.merge(&m.stats);
            peak = peak.max(m.peak_replicas);
            for r in &m.results {
                if let Disposition::Completed { start, finish, .. } = r.disposition {
                    windows.push((start, finish));
                }
            }
            streams.push(m.results.into_iter().map(Served::from_runtime).collect());
        }
        Ok(ServeRun {
            streams,
            stats,
            timed_out: 0,
            max_concurrent: max_concurrent(&windows),
            stages: Vec::new(),
            scale_events: out.scale_events.len(),
            peak_replicas: peak,
            host_threads: out.host_threads,
        })
    }
}

/// Most `[start, finish)` windows open at once (a window closing at a
/// cycle frees its slot before one opening at that cycle).
fn max_concurrent(windows: &[(u64, u64)]) -> usize {
    let mut edges: Vec<(u64, i32)> = windows.iter().flat_map(|&(s, f)| [(s, 1), (f, -1)]).collect();
    edges.sort_unstable();
    let (mut open, mut most) = (0i32, 0i32);
    for (_, delta) in edges {
        open += delta;
        most = most.max(open);
    }
    most as usize
}

impl ServedWorkload for Tenants {
    type Svc = TenantServer;

    fn requests_per_stream(&self) -> usize {
        200
    }

    fn setup_reps(&self) -> usize {
        5
    }

    fn setup(&mut self, ctx: &Ctx) -> Res<(TenantServer, Vec<StreamInfo>)> {
        let cfg = NodeConfig::default();
        let models = build_models(ctx.seed)?;
        let mut catalog = ModelCatalog::new();
        for (name, model) in MODELS.iter().zip(&models) {
            catalog
                .register_model(name, model, &cfg, &CompilerOptions::default())
                .map_err(fail("compiling"))?;
        }
        let compiled: Vec<&CompiledModel> =
            MODELS.iter().map(|n| catalog.get(n).expect("registered above").as_ref()).collect();
        let spec = fabric(&compiled);
        let mut server =
            TenantServer::new(catalog, spec, &cfg, SimMode::Functional, &NoiseModel::noiseless())
                .map_err(fail("building the tenant server"))?
                .with_host_threads(ctx.host_threads)
                .with_policy(ScalePolicy::new(SCALE_UP_DEPTH, MAX_REPLICAS));
        for name in MODELS {
            server.deploy(name).map_err(fail("placing a tenant"))?;
        }
        // One warm-up request per model, served alone on its own tiles: it
        // programs the crossbars and gives each model's isolated latency.
        let mut rng = Rng::new(ctx.seed, 1);
        let warm: Vec<TenantStream> = (0..MODELS.len())
            .map(|i| {
                let requests = self.requests(&server, i, 1, &mut rng);
                TenantStream::new(MODELS[i], requests, puma::core::timing::TrafficPattern::Batch)
            })
            .collect();
        let out = TenantServer::serve(&server, &warm).map_err(fail("warm-up requests"))?;
        let mut info = Vec::new();
        for (name, m) in MODELS.iter().zip(&out.models) {
            let isolated = m.results[0].latency().ok_or("a warm-up request did not complete")?;
            info.push(StreamInfo { model: name.to_string(), workers: 1, isolated });
        }
        self.models = models;
        self.placement = server.deployments().to_vec();
        self.fabric_cfg = *server.config();
        Ok((server, info))
    }

    fn requests(
        &self,
        svc: &TenantServer,
        stream: usize,
        n: usize,
        rng: &mut Rng,
    ) -> Vec<BatchRequest> {
        let compiled = svc.catalog().get(MODELS[stream]).expect("registered");
        (0..n)
            .map(|_| {
                BatchRequest::new(
                    compiled
                        .inputs
                        .iter()
                        .map(|io| (io.name.clone(), rng.values(io.width)))
                        .collect(),
                )
            })
            .collect()
    }

    fn check_outputs(
        &self,
        run: &ServeRun,
        streams: &[Stream],
        ctx: &Ctx,
        report: &mut Report,
    ) -> Res<u64> {
        let mut rng = Rng::new(ctx.seed, 3);
        let mut mismatched = 0;
        let mut worst = [0.0f32; 2];
        let mut checked = 0;
        for (i, (model, stream)) in self.models.iter().zip(streams).enumerate() {
            for r in rng.sample(stream.requests.len(), CHECKED) {
                let Some((_, outputs)) = run.completed_at(i, r) else { continue };
                let inputs: HashMap<String, Vec<f32>> =
                    stream.requests[r].inputs.iter().cloned().collect();
                let want = model.evaluate_reference(&inputs).map_err(fail("f32 reference"))?;
                let err = max_error(outputs, &want);
                worst[i] = worst[i].max(err);
                checked += 1;
                if err > TOLERANCE[i] {
                    mismatched += 1;
                }
            }
        }
        report.check(mismatched == 0, || {
            format!("{mismatched} of {checked} checked outputs differ from the f32 reference beyond tolerance")
        });
        for (i, name) in MODELS.iter().enumerate() {
            report.note(format!(
                "output check {name}: worst |error| {} against the f32 reference (tolerance {})",
                worst[i], TOLERANCE[i]
            ));
        }
        Ok(mismatched)
    }

    fn reference_engine(&self, svc: TenantServer) -> TenantServer {
        svc.with_engine(SimEngine::Reference)
    }

    fn traced(
        &mut self,
        ctx: &Ctx,
        replay: &[(usize, usize, &Inputs)],
        first: &ServeRun,
        tracer: &mut Tracer,
        layers: &mut Layers,
        report: &mut Report,
    ) -> Res<f64> {
        let cfg = NodeConfig::default();
        let root = tracer.enter("setup", None);
        let models = tracer.span("nn.build", None, || build_models(ctx.seed))?;
        let compiled = tracer
            .span("compiler.compile", None, || {
                models
                    .iter()
                    .map(|m| compile(m, &cfg, &CompilerOptions::default()))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(fail("compiling"))?;
        tracer
            .span("compiler.shard", None, || {
                compiled.iter().map(CompiledModel::shard).collect::<Result<Vec<_>, _>>()
            })
            .map_err(fail("sharding"))?;
        // The placement the server chose, relocated and composed as the
        // server composes its fabric.
        let deployments = &self.placement;
        let residents: Vec<Resident<'_>> = deployments
            .iter()
            .map(|d| {
                let i = MODELS.iter().position(|m| *m == d.model).expect("a catalog model");
                Resident { name: &d.model, image: &compiled[i].image, base: d.base }
            })
            .collect();
        let image = tracer
            .span("compiler.relocate", None, || compose_fabric(&residents))
            .map_err(fail("composing"))?;
        let fabric_cfg = self.fabric_cfg;
        let resident_models: Vec<ResidentModel> = deployments
            .iter()
            .map(|d| ResidentModel { name: d.model.clone(), base: d.base, tiles: d.tiles })
            .collect();
        // The server builds its fabric simulators on its worker threads;
        // so does this, so both allocate alike.
        let build = |mode: SimMode| -> Res<NodeSim> {
            std::thread::scope(|s| {
                s.spawn(|| {
                    let mut sim = NodeSim::new(fabric_cfg, &image, mode, &NoiseModel::noiseless())
                        .map_err(fail("fabric"))?;
                    sim.set_residents(resident_models.clone()).map_err(fail("residents"))?;
                    Ok(sim)
                })
                .join()
                .map_err(|_| "the fabric build panicked".to_string())?
            })
        };
        let mut sim = tracer.span("sim.build", None, || build(SimMode::Functional))?;
        tracer.span("sim.lower", None, || sim.set_engine(SimEngine::default()));
        let tenants: Vec<(&CompiledModel, &str)> = compiled.iter().zip(MODELS).collect();
        let mut path = GraphPath::tenants(Sim::Node(Box::new(sim)), tenants.clone());
        let warm = tracer.enter("warmup", None);
        for i in 0..MODELS.len() {
            let &(_, r, inputs) =
                replay.iter().find(|p| p.0 == i).ok_or("no request to warm up")?;
            run_one(&mut path, i, r, inputs).map_err(fail("warm-up"))?;
        }
        tracer.exit(warm);
        tracer.exit(root);

        layers.nn_build_s = tracer.total("nn.build");
        layers.compile_s = tracer.total("compiler.compile");
        layers.shard_s = tracer.total("compiler.shard");
        layers.sim_build_s = tracer.total("sim.build");
        layers.lower_s = tracer.total("sim.lower");
        layers.static_instructions =
            compiled.iter().map(|c| c.stats.static_instructions as f64).sum();
        layers.mvm_instructions = compiled.iter().map(|c| c.stats.mvm_instructions as f64).sum();
        layers.spill_accesses = compiled.iter().map(|c| c.stats.spill_accesses as f64).sum();
        layers.replica_bytes = path.sim.state_bytes() as f64;

        let (replayed, untraced_p50) = replay_requests(&mut path, replay, tracer, layers, report)?;
        let differing = replayed
            .iter()
            .filter(|r| first.completed_at(r.stream, r.request).map(|(s, _)| s) != Some(&r.stats))
            .count();
        report.check(differing == 0, || {
            format!("{differing} replayed requests cost differently from their served run")
        });

        // The crossbar layer's share, estimated as functional minus timing
        // on the same fabric image: building (programming) and running.
        let t = Instant::now();
        let timing = build(SimMode::Timing)?;
        let timing_build_s = t.elapsed().as_secs_f64();
        let mut timing_path = GraphPath::tenants(Sim::Node(Box::new(timing)), tenants);
        timing_path.sim.set_engine(SimEngine::default());
        let mut scratch = Tracer::new();
        for &(s, r, inputs) in replay {
            run_one_traced(&mut timing_path, s, r, inputs, &mut scratch)
                .map_err(fail("timing replay"))?;
        }
        let timing_run_s = median(&scratch.durations("sim.run"));
        layers.xbar_program_s = layers.sim_build_s - timing_build_s;
        layers.xbar_mvm_s = layers.run_s - timing_run_s;
        report.note(format!(
            "xbar estimate: build functional {:.6} s vs timing {timing_build_s:.6} s; \
             run functional p50 {:.6} s vs timing {timing_run_s:.6} s",
            layers.sim_build_s, layers.run_s
        ));
        Ok(untraced_p50)
    }
}

/// Largest element-wise |simulated − reference| over every output.
fn max_error(got: &HashMap<String, Vec<f32>>, want: &HashMap<String, Vec<f32>>) -> f32 {
    let mut worst = 0.0f32;
    for (name, w) in want {
        match got.get(name) {
            Some(g) if g.len() == w.len() => {
                for (a, b) in g.iter().zip(w) {
                    worst = worst.max((a - b).abs());
                }
            }
            _ => return f32::INFINITY,
        }
    }
    worst
}
