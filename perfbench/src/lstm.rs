//! `lstm-serve` and `lstm-pipeline`: NMTL3 (two steps, shape-only
//! weights, timing mode) behind the serving stack — replicated on one
//! node with two simulated workers, or sharded across two nodes and
//! served as a pipeline.

use crate::layers::Layers;
use crate::path::{run_one, GraphPath, Inputs, Sim};
use crate::report::Report;
use crate::rng::Rng;
use crate::serving::{
    fail, replay_requests, Outcome, Res, ServeRun, Served, ServedWorkload, Service, Stream,
    StreamInfo,
};
use crate::trace::Tracer;
use crate::Ctx;
use puma::compiler::graph::Model;
use puma::compiler::{compile, fit_config, CompilerOptions, Partitioning};
use puma::core::config::NodeConfig;
use puma::nn::{zoo, WeightFactory};
use puma::runtime::{BatchRequest, ServeRequest, ServeRunner};
use puma::sim::{SimEngine, SimMode};
use puma::xbar::NoiseModel;
use std::time::Instant;

const MODEL: &str = "NMTL3";
const STEPS: usize = 2;
/// Simulated workers of the replicated pool.
const WORKERS: usize = 2;

pub struct Lstm {
    pipeline: bool,
}

impl Lstm {
    pub fn serve() -> Self {
        Lstm { pipeline: false }
    }

    pub fn pipeline() -> Self {
        Lstm { pipeline: true }
    }

    fn options(&self) -> CompilerOptions {
        let partitioning = if self.pipeline {
            Partitioning::Sharded { nodes: 2 }
        } else {
            Partitioning::Heuristic
        };
        CompilerOptions { partitioning, ..CompilerOptions::timing_only() }
    }

    fn workers(&self) -> usize {
        if self.pipeline {
            1
        } else {
            WORKERS
        }
    }
}

fn build_model(seed: u64) -> Res<Model> {
    zoo::build_graph_model(&zoo::spec(MODEL), &mut WeightFactory::shape_only(seed), Some(STEPS))
        .map_err(fail("building NMTL3"))?
        .ok_or_else(|| "NMTL3 is not graph-compilable".to_string())
}

impl Service for ServeRunner {
    type Prepared = Vec<ServeRequest>;

    fn prepare(&self, streams: &[Stream]) -> Vec<ServeRequest> {
        let [stream] = streams else { panic!("a serve runner takes one stream") };
        let arrivals = stream.pattern.arrivals(stream.requests.len());
        arrivals
            .into_iter()
            .zip(&stream.requests)
            .map(|(arrival, r)| ServeRequest::new(arrival, r.inputs.clone()))
            .collect()
    }

    fn serve(&self, prepared: &Vec<ServeRequest>) -> Res<ServeRun> {
        let out = ServeRunner::serve(self, prepared).map_err(fail("serve"))?;
        Ok(ServeRun {
            streams: vec![out.results.into_iter().map(Served::from_runtime).collect()],
            stats: out.stats,
            timed_out: out.timed_out,
            max_concurrent: out.max_concurrent,
            stages: out.stages.unwrap_or_default(),
            scale_events: 0,
            peak_replicas: out.workers,
            host_threads: out.host_threads,
        })
    }
}

impl ServedWorkload for Lstm {
    type Svc = ServeRunner;

    fn requests_per_stream(&self) -> usize {
        if self.pipeline {
            120
        } else {
            200
        }
    }

    fn setup_reps(&self) -> usize {
        5
    }

    fn setup(&mut self, ctx: &Ctx) -> Res<(ServeRunner, Vec<StreamInfo>)> {
        let model = build_model(ctx.seed)?;
        let runner = ServeRunner::new(
            &model,
            &NodeConfig::default(),
            &self.options(),
            SimMode::Timing,
            &NoiseModel::noiseless(),
        )
        .map_err(fail("building the serve runner"))?
        .with_workers(self.workers())
        .with_host_threads(ctx.host_threads)
        .with_pipeline(self.pipeline);
        // One warm-up request, served alone: its latency is the isolated
        // latency the ladder is calibrated from.
        let warm = self.requests(&runner, 0, 1, &mut Rng::new(ctx.seed, 1));
        let out = runner
            .serve(&[ServeRequest::new(0, warm[0].inputs.clone())])
            .map_err(fail("warm-up request"))?;
        let isolated = out.results[0].latency().ok_or("the warm-up request did not complete")?;
        let info = StreamInfo { model: MODEL.to_string(), workers: self.workers(), isolated };
        Ok((runner, vec![info]))
    }

    fn requests(
        &self,
        svc: &ServeRunner,
        _stream: usize,
        n: usize,
        rng: &mut Rng,
    ) -> Vec<BatchRequest> {
        (0..n)
            .map(|_| {
                BatchRequest::new(
                    svc.compiled()
                        .inputs
                        .iter()
                        .map(|io| (io.name.clone(), rng.values(io.width)))
                        .collect(),
                )
            })
            .collect()
    }

    /// Timing mode carries no output values: the outputs checked are the
    /// `RunStats`, bit for bit against the reference engine (the engine
    /// cross-check of the shared flow). Replicated, every completed
    /// request must also cost exactly what the first one cost: only the
    /// input values differ, and timing mode ignores them. Pipelined, a
    /// request's cost depends on how it overlapped its neighbours, so
    /// there is no such invariant.
    fn check_outputs(
        &self,
        run: &ServeRun,
        _: &[Stream],
        _: &Ctx,
        report: &mut Report,
    ) -> Res<u64> {
        if self.pipeline {
            return Ok(0);
        }
        let mut costs = run.streams[0].iter().filter_map(|s| match &s.outcome {
            Outcome::Completed { stats, .. } => Some(stats),
            _ => None,
        });
        let Some(first) = costs.next() else { return Ok(0) };
        let differing = costs.filter(|s| *s != first).count() as u64;
        report.check(differing == 0, || {
            format!("{differing} timing-mode requests cost differently from the first")
        });
        Ok(differing)
    }

    fn reference_engine(&self, svc: ServeRunner) -> ServeRunner {
        svc.with_engine(SimEngine::Reference)
    }

    fn pipelined(&self) -> bool {
        self.pipeline
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
        let options = self.options();
        let root = tracer.enter("setup", None);
        let model = tracer.span("nn.build", None, || build_model(ctx.seed))?;
        let compiled = tracer
            .span("compiler.compile", None, || compile(&model, &cfg, &options))
            .map_err(fail("compiling NMTL3"))?;
        let images =
            tracer.span("compiler.shard", None, || compiled.shard()).map_err(fail("sharding"))?;
        let fitted = fit_config(&cfg, &compiled);
        let mut sim = tracer
            .span("sim.build", None, || Sim::build(fitted, &images, SimMode::Timing))
            .map_err(fail("building the simulator"))?;
        tracer.span("sim.lower", None, || sim.set_engine(SimEngine::default()));
        let mut path = GraphPath::single(sim, &compiled);
        let warm = tracer.enter("warmup", None);
        run_one(&mut path, 0, 0, replay[0].2).map_err(fail("warm-up"))?;
        tracer.exit(warm);
        tracer.exit(root);

        layers.nn_build_s = tracer.total("nn.build");
        layers.compile_s = tracer.total("compiler.compile");
        layers.shard_s = tracer.total("compiler.shard");
        layers.sim_build_s = tracer.total("sim.build");
        layers.lower_s = tracer.total("sim.lower");
        layers.static_instructions = compiled.stats.static_instructions as f64;
        layers.mvm_instructions = compiled.stats.mvm_instructions as f64;
        layers.spill_accesses = compiled.stats.spill_accesses as f64;
        // The runtime forks its worker replicas from a simulator built
        // exactly like this one.
        layers.replica_bytes = path.sim.state_bytes() as f64;

        let (replayed, untraced_p50) = replay_requests(&mut path, replay, tracer, layers, report)?;
        // Replicated serving runs each request on a replica built the same
        // way, so the replay must cost exactly what serving cost.
        if !self.pipeline {
            let differing = replayed
                .iter()
                .filter(|r| first.completed_at(0, r.request).map(|(s, _)| s) != Some(&r.stats))
                .count();
            report.check(differing == 0, || {
                format!("{differing} replayed requests cost differently from their served run")
            });
        } else {
            word_conservation(ctx, &model, first, report)?;
        }
        Ok(untraced_p50)
    }
}

/// NoC words plus interconnect words of the two-node shard must equal
/// the NoC words of the same model on one node: sharding moves words
/// between the two networks and never adds or drops any.
fn word_conservation(ctx: &Ctx, model: &Model, first: &ServeRun, report: &mut Report) -> Res<()> {
    let t = Instant::now();
    let cfg = NodeConfig::default();
    let single = compile(model, &cfg, &CompilerOptions::timing_only())
        .map_err(fail("single-node compile"))?;
    let images = single.shard().map_err(fail("single-node shard"))?;
    let sim = Sim::build(fit_config(&cfg, &single), &images, SimMode::Timing)
        .map_err(fail("single-node sim"))?;
    let mut path = GraphPath::single(sim, &single);
    let inputs = single
        .inputs
        .iter()
        .map(|io| (io.name.clone(), Rng::new(ctx.seed, 9).values(io.width)))
        .collect();
    let solo = run_one(&mut path, 0, 0, &inputs).map_err(fail("single-node run"))?;
    let (stats, _) =
        first.completed_at(0, 0).ok_or("the first pipelined request did not complete")?;
    let sharded = stats.network_words + stats.internode_words;
    report.check(sharded == solo.stats.network_words, || {
        format!(
            "word conservation: NoC {} + interconnect {} != single-node NoC {}",
            stats.network_words, stats.internode_words, solo.stats.network_words
        )
    });
    report.note(format!(
        "word conservation: NoC {} + interconnect {} = {} words per request; single-node NoC {} ({:.3} s to check)",
        stats.network_words,
        stats.internode_words,
        sharded,
        solo.stats.network_words,
        t.elapsed().as_secs_f64()
    ));
    Ok(())
}
