//! `cnn-loop`: CNN-24x24-k5 from the looped layer generator, in timing
//! mode, run directly on one `NodeSim` by a single closed-loop client —
//! the next request starts when the previous one finishes, on the
//! simulated clock as on the host.

use crate::host::{rate_at_nominal, time_at_nominal, Probe};
use crate::layers::Layers;
use crate::path::{run_one, CnnPath, Inputs, Replayed};
use crate::report::{median, nearest_rank, peak_rss_mib, tail_percentile, Digest, Report};
use crate::rng::Rng;
use crate::serving::{
    conserved, fail, finish_setup_ledger, host_note, per_request_energy_nj, replay_requests,
    write_spans, Res,
};
use crate::trace::Tracer;
use crate::Ctx;
use puma::core::config::NodeConfig;
use puma::nn::cnn::{build_cnn, CompiledCnn};
use puma::nn::spec::{Activation, LayerSpec, WorkloadClass, WorkloadSpec};
use puma::sim::{NodeSim, RunStats, SimEngine, SimMode};
use puma::xbar::NoiseModel;
use std::time::Instant;

/// Distinct requests; the client cycles through them.
const REQUESTS: usize = 1000;
/// Requests per host-rate sample of the timed phase.
const CHUNK: usize = 500;
const SETUP_REPS: usize = 21;
/// Sampled requests checked on the reference engine and, in functional
/// mode, against the f32 reference.
const CHECKED: usize = 12;
const REPLAYED: usize = 16;
/// Largest accepted |simulated − f32 reference| of a logit.
const TOLERANCE: f32 = 0.05;

/// A LeNet-class convolution small enough for one default tile: its code
/// is loop-heavy (scalar cursors, branches, indexed addressing).
fn spec() -> WorkloadSpec {
    WorkloadSpec {
        name: "CNN-24x24-k5".to_string(),
        class: WorkloadClass::Cnn,
        layers: vec![
            LayerSpec::Conv { input: 1, output: 2, kernel: 5, stride: 1, height: 24, width: 24 },
            LayerSpec::Pool { channels: 2, window: 2, height: 20, width: 20 },
            LayerSpec::Fc { input: 2 * 10 * 10, output: 10, act: Activation::None },
        ],
        seq_len: 1,
    }
}

fn build(seed: u64) -> Res<CompiledCnn> {
    build_cnn(&spec(), &NodeConfig::default(), true, seed).map_err(fail("building the CNN"))
}

fn simulator(cnn: &CompiledCnn, mode: SimMode, engine: SimEngine) -> Res<NodeSim> {
    let mut sim = NodeSim::new(NodeConfig::default(), &cnn.image, mode, &NoiseModel::noiseless())
        .map_err(fail("building the simulator"))?;
    sim.set_engine(engine);
    Ok(sim)
}

fn setup(ctx: &Ctx, warm: &Inputs) -> Res<(CompiledCnn, NodeSim)> {
    let cnn = build(ctx.seed)?;
    let sim = simulator(&cnn, SimMode::Timing, SimEngine::default())?;
    let mut path = CnnPath { sim, input: &cnn.input_name, output: &cnn.output_name };
    run_one(&mut path, 0, 0, warm).map_err(fail("warm-up request"))?;
    let sim = path.sim;
    Ok((cnn, sim))
}

fn digest(r: &Replayed) -> Digest {
    let mut d = Digest::default();
    d.stats(&r.stats);
    d.outputs(&r.outputs);
    d
}

pub fn run(ctx: &Ctx, probe: &mut Probe) -> Res<Report> {
    let mut report = Report::default();
    let (c, h, w) = build(ctx.seed)?.input_shape;
    let mut rng = Rng::new(ctx.seed, 100);
    let requests: Vec<Inputs> =
        (0..REQUESTS).map(|_| vec![("input".to_string(), rng.values(c * h * w))]).collect();

    // Set-up: generate the network, build and lower the simulator, serve
    // one warm-up request. The first set-up serves the run; the others
    // are timed after it.
    let mut setup_s = Vec::new();
    let t = Instant::now();
    let (cnn, sim) = setup(ctx, &requests[0])?;
    let elapsed = t.elapsed().as_secs_f64();
    setup_s.push((elapsed, probe.time(1)));
    let mut path = CnnPath { sim, input: &cnn.input_name, output: &cnn.output_name };

    // Timed phase: the closed loop cycles through the requests; the first
    // pass gives the simulated metrics, every later pass must repeat it.
    let mut first: Vec<Replayed> = Vec::with_capacity(REQUESTS);
    let mut first_digests = Vec::with_capacity(REQUESTS);
    let mut diverged = 0usize;
    let mut rates = Vec::new();
    let mut served = 0usize;
    let started = Instant::now();
    while served < 2 * REQUESTS || started.elapsed().as_secs_f64() < ctx.seconds {
        let t = Instant::now();
        for _ in 0..CHUNK {
            let i = served % REQUESTS;
            let r = run_one(&mut path, 0, i, &requests[i]).map_err(fail("request"))?;
            if served < REQUESTS {
                first_digests.push(digest(&r));
                first.push(r);
            } else if digest(&r) != first_digests[i] {
                diverged += 1;
            }
            served += 1;
        }
        let rate = CHUNK as f64 / t.elapsed().as_secs_f64();
        rates.push((rate, probe.time(1)));
    }
    let rss = peak_rss_mib(probe.bytes())?;

    // Simulated metrics of the closed loop: one client, so a request's
    // latency is its own cycles and the loop's rate is one over their mean.
    let mut aggregate = RunStats::default();
    for r in &first {
        aggregate.merge(&r.stats);
    }
    let mut cycles: Vec<u64> = first.iter().map(|r| r.stats.cycles).collect();
    cycles.sort_unstable();
    let energy_nj = per_request_energy_nj(&aggregate, REQUESTS);
    let tail_p = tail_percentile(REQUESTS);
    report.e2e("req_per_s", rate_at_nominal(&rates), "req/s");
    report.e2e("peak_rss_mib", rss, "MiB");
    report.e2e("sim_latency_cycles", aggregate.cycles as f64 / REQUESTS as f64, "cycles");
    report.e2e("sim_energy_uj", energy_nj.iter().sum::<f64>() / 1000.0, "uJ");
    report.e2e("sim_p50_cycles", nearest_rank(&cycles, 50.0) as f64, "cycles");
    report.e2e("sim_tail_cycles", nearest_rank(&cycles, tail_p) as f64, "cycles");
    report.e2e("sim_max_rate", REQUESTS as f64 * 1e6 / aggregate.cycles as f64, "req/Mcycle");
    report.note(format!(
        "closed loop, one client: sim_tail_cycles is p{tail_p} of {REQUESTS} requests; \
         sim_max_rate is the rate the client reaches"
    ));
    report.note(format!(
        "timed phase: {served} requests in {:.3} s ({} passes), 1 host thread",
        started.elapsed().as_secs_f64(),
        served / REQUESTS
    ));
    report.note(host_note("req_per_s", "req/s", &rates));

    // Checks: repetition, energy conservation, the reference engine, and
    // functional outputs against the f32 reference.
    report.check(diverged == 0, || {
        format!("{diverged} repeated requests diverged from their first pass")
    });
    let bad =
        usize::from(!conserved(&aggregate)) + first.iter().filter(|r| !conserved(&r.stats)).count();
    report.check(bad == 0, || format!("{bad} energy ledgers do not sum to their total"));
    let sample = Rng::new(ctx.seed, 3).sample(REQUESTS, CHECKED);
    let mut mismatched = 0u64;
    let reference_sim = simulator(&cnn, SimMode::Timing, SimEngine::Reference)?;
    let mut reference =
        CnnPath { sim: reference_sim, input: &cnn.input_name, output: &cnn.output_name };
    for &i in &sample {
        let r = run_one(&mut reference, 0, i, &requests[i]).map_err(fail("reference engine"))?;
        mismatched += u64::from(digest(&r) != first_digests[i]);
    }
    report.check(mismatched == 0, || {
        format!(
            "{mismatched} of {CHECKED} requests differ between the default and reference engines"
        )
    });
    let mut functional = CnnPath {
        sim: simulator(&cnn, SimMode::Functional, SimEngine::default())?,
        input: &cnn.input_name,
        output: &cnn.output_name,
    };
    let mut functional_reference = CnnPath {
        sim: simulator(&cnn, SimMode::Functional, SimEngine::Reference)?,
        input: &cnn.input_name,
        output: &cnn.output_name,
    };
    let mut worst = 0.0f32;
    let mut wrong = 0u64;
    for &i in &sample {
        let got = run_one(&mut functional, 0, i, &requests[i]).map_err(fail("functional run"))?;
        let again = run_one(&mut functional_reference, 0, i, &requests[i])
            .map_err(fail("functional run"))?;
        let want = cnn.reference.forward(&requests[i][0].1);
        let logits = &got.outputs[&cnn.output_name];
        let err = if logits.len() == want.len() {
            logits.iter().zip(&want).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max)
        } else {
            f32::INFINITY
        };
        worst = worst.max(err);
        wrong += u64::from(err > TOLERANCE || digest(&got) != digest(&again));
    }
    report.check(wrong == 0, || {
        format!("{wrong} of {CHECKED} functional outputs fail the f32 reference or the reference engine")
    });
    report.note(format!(
        "output check: {CHECKED} requests bit-identical on both engines; functional logits against \
         the f32 reference, worst |error| {worst} (tolerance {TOLERANCE})"
    ));
    report.attempted = REQUESTS as u64;
    report.failed = mismatched + wrong;
    report.note(format!(
        "error_rate = {} / {} = {}",
        report.failed,
        report.attempted,
        report.failed as f64 / report.attempted as f64
    ));

    let mut traced_pass = None;
    if ctx.trace {
        let mut tracer = Tracer::new();
        let mut layers = Layers::default();
        let root = tracer.enter("setup", None);
        let traced_cnn = tracer.span("nn.build", None, || build(ctx.seed))?;
        let sim = tracer.span("sim.build", None, || {
            NodeSim::new(
                NodeConfig::default(),
                &traced_cnn.image,
                SimMode::Timing,
                &NoiseModel::noiseless(),
            )
        });
        let mut sim = sim.map_err(fail("building the simulator"))?;
        tracer.span("sim.lower", None, || sim.set_engine(SimEngine::default()));
        let mut traced_path =
            CnnPath { sim, input: &traced_cnn.input_name, output: &traced_cnn.output_name };
        let warm = tracer.enter("warmup", None);
        run_one(&mut traced_path, 0, 0, &requests[0]).map_err(fail("warm-up"))?;
        tracer.exit(warm);
        tracer.exit(root);
        layers.nn_build_s = tracer.total("nn.build");
        layers.sim_build_s = tracer.total("sim.build");
        layers.lower_s = tracer.total("sim.lower");
        layers.replica_bytes = traced_path.sim.state_bytes() as f64;
        layers.set_energy(&aggregate, REQUESTS);

        let picked = Rng::new(ctx.seed, 7).sample(REQUESTS, REPLAYED);
        let subset: Vec<(usize, usize, &Inputs)> =
            picked.iter().map(|&i| (0, i, &requests[i])).collect();
        let (replayed, _) =
            replay_requests(&mut traced_path, &subset, &mut tracer, &mut layers, &mut report)?;
        let differing = replayed.iter().filter(|r| digest(r) != first_digests[r.request]).count();
        report.check(differing == 0, || {
            format!("{differing} replayed requests differ from their closed-loop run")
        });
        traced_pass = Some((tracer, layers));
    }
    drop(path);

    // The remaining set-ups, each dropped before the next.
    for _ in 1..SETUP_REPS {
        let t = Instant::now();
        let built = setup(ctx, &requests[0])?;
        let elapsed = t.elapsed().as_secs_f64();
        drop(built);
        setup_s.push((elapsed, probe.time(1)));
    }
    report.e2e("setup_s", time_at_nominal(&setup_s), "s");
    report.note(host_note("setup_s", "s", &setup_s));
    if let Some((tracer, mut layers)) = traced_pass {
        let raw_setup: Vec<f64> = setup_s.iter().map(|s| s.0).collect();
        finish_setup_ledger(&tracer, median(&raw_setup), &mut layers, &mut report);
        write_spans(ctx, &tracer, &mut report);
        layers.emit(&mut report);
    }
    Ok(report)
}
