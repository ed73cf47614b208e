//! The flow shared by the served workloads (`lstm-serve`,
//! `lstm-pipeline`, `mlp-tenants`): set up several times, calibrate each
//! stream's isolated latency, climb the offered-load ladder, time the
//! reference rung, check outputs, energy conservation and determinism,
//! and — traced — replay a seeded subset of the requests layer by layer.

use crate::host::{rate_at_nominal, time_at_nominal, Probe};
use crate::layers::Layers;
use crate::path::{run_one, run_one_traced, Inputs, Outputs, Replayed, RequestPath};
use crate::report::{median, nearest_rank, peak_rss_mib, tail_percentile, Digest, Report};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::Ctx;
use puma::core::timing::TrafficPattern;
use puma::runtime::{BatchRequest, Disposition, ServedRequest};
use puma::sim::{EnergyComponent, RunStats, StageStats};
use std::time::Instant;

/// Offered load of each ladder rung, as a multiple of the pool capacity.
const RUNGS: [f64; 3] = [0.5, 0.8, 1.1];
/// The reference rung: the timed phase, served with an unbounded queue.
const REFERENCE: usize = 1;
/// The latency limit, as a multiple of a stream's isolated latency.
const LIMIT_FACTOR: u64 = 3;
/// Requests per stream served on both engines by the engine cross-check.
const ENGINE_CHECK_REQUESTS: usize = 12;
/// Requests replayed on the per-request path by the traced pass.
const REPLAYED_REQUESTS: usize = 16;
/// Timed-phase repetitions at least, so two same-seed serves always
/// compare.
const MIN_REPS: usize = 2;
/// Seed of the first stream's Poisson arrivals. The arrival process is
/// part of the workload's definition, like its rate ladder: across-seed
/// spread of queueing percentiles over a few hundred Poisson arrivals
/// (an IQR of 20–45 % of the median at 0.8 load) is wider than any bound
/// a regression gate can use, so arrivals do not vary with `--seed`.
const ARRIVAL_SEED: u64 = 2019;

pub type Res<T> = Result<T, String>;

/// Maps any displayable error into the benchmark's error string.
pub fn fail<E: std::fmt::Display>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

/// One stream's requests at one rung.
pub struct Stream {
    pub model: String,
    pub requests: Vec<BatchRequest>,
    pub pattern: TrafficPattern,
}

/// A stream as set up: its model, its simulated workers (the pool
/// capacity multiplier) and its calibrated isolated latency.
pub struct StreamInfo {
    pub model: String,
    pub workers: usize,
    pub isolated: u64,
}

// Nearly every outcome is `Completed`, so boxing its statistics would
// only add an allocation per request.
#[allow(clippy::large_enum_variant)]
pub enum Outcome {
    Completed { start: u64, finish: u64, stats: RunStats, outputs: Outputs },
    Shed,
    Failed(String),
}

pub struct Served {
    pub arrival: u64,
    pub outcome: Outcome,
}

impl Served {
    pub fn from_runtime(r: ServedRequest) -> Served {
        let outcome = match r.disposition {
            Disposition::Completed { result, start, finish } => {
                Outcome::Completed { start, finish, stats: result.stats, outputs: result.outputs }
            }
            Disposition::Shed => Outcome::Shed,
            Disposition::Failed(e) => Outcome::Failed(e.to_string()),
        };
        Served { arrival: r.arrival, outcome }
    }

    pub fn latency(&self) -> Option<u64> {
        match self.outcome {
            Outcome::Completed { finish, .. } => Some(finish - self.arrival),
            _ => None,
        }
    }

    fn digest(&self) -> Digest {
        let mut d = Digest::default();
        d.u64(self.arrival);
        match &self.outcome {
            Outcome::Completed { start, finish, stats, outputs } => {
                d.u64(*start);
                d.u64(*finish);
                d.stats(stats);
                d.outputs(outputs);
            }
            Outcome::Shed => d.str("shed"),
            Outcome::Failed(e) => d.str(e),
        }
        d
    }
}

/// One serve, normalized across `ServeRunner` and `TenantServer`.
pub struct ServeRun {
    /// Per stream, per request in submission order.
    pub streams: Vec<Vec<Served>>,
    /// Aggregate statistics over every completed request.
    pub stats: RunStats,
    pub timed_out: usize,
    pub max_concurrent: usize,
    pub stages: Vec<StageStats>,
    pub scale_events: usize,
    pub peak_replicas: usize,
    pub host_threads: usize,
}

impl ServeRun {
    fn all(&self) -> impl Iterator<Item = &Served> {
        self.streams.iter().flatten()
    }

    pub fn attempted(&self) -> usize {
        self.all().count()
    }

    pub fn completed(&self) -> usize {
        self.all().filter(|s| matches!(s.outcome, Outcome::Completed { .. })).count()
    }

    pub fn shed(&self) -> usize {
        self.all().filter(|s| matches!(s.outcome, Outcome::Shed)).count()
    }

    pub fn failed(&self) -> usize {
        self.all().filter(|s| matches!(s.outcome, Outcome::Failed(_))).count()
    }

    /// Sorted latencies of the completed requests of one stream, or of
    /// every stream.
    pub fn latencies(&self, stream: Option<usize>) -> Vec<u64> {
        let mut v: Vec<u64> = match stream {
            Some(i) => self.streams[i].iter().filter_map(Served::latency).collect(),
            None => self.all().filter_map(Served::latency).collect(),
        };
        v.sort_unstable();
        v
    }

    /// Per-request digests, in stream then submission order.
    pub fn request_digests(&self) -> Vec<Digest> {
        self.all().map(Served::digest).collect()
    }

    /// Digest of every deterministic field of the serve.
    pub fn digest(&self) -> Digest {
        let mut d = Digest::default();
        for r in self.request_digests() {
            d.u64(r.0);
        }
        d.stats(&self.stats);
        for v in [self.timed_out, self.max_concurrent, self.scale_events, self.peak_replicas] {
            d.u64(v as u64);
        }
        for s in &self.stages {
            for v in [s.requests, s.occupied_cycles, s.blocked_cycles, s.last_retire] {
                d.u64(v);
            }
        }
        d
    }

    /// The served result of request `index` of stream `stream`.
    pub fn completed_at(&self, stream: usize, index: usize) -> Option<(&RunStats, &Outputs)> {
        match &self.streams[stream][index].outcome {
            Outcome::Completed { stats, outputs, .. } => Some((stats, outputs)),
            _ => None,
        }
    }
}

/// A serving stack the benchmark drives.
pub trait Service {
    /// The request form the stack's API takes, built outside timed
    /// regions.
    type Prepared;
    fn prepare(&self, streams: &[Stream]) -> Self::Prepared;
    fn serve(&self, prepared: &Self::Prepared) -> Res<ServeRun>;
}

/// One served workload.
pub trait ServedWorkload {
    type Svc: Service;
    /// Requests per stream at every rung.
    fn requests_per_stream(&self) -> usize;
    /// Set-ups per run; `setup_s` is their median.
    fn setup_reps(&self) -> usize;
    /// Builds the stack from the model specs to ready, one warm-up
    /// request per stream included, and calibrates each stream.
    fn setup(&mut self, ctx: &Ctx) -> Res<(Self::Svc, Vec<StreamInfo>)>;
    /// The seeded contents of `n` requests of stream `stream`.
    fn requests(
        &self,
        svc: &Self::Svc,
        stream: usize,
        n: usize,
        rng: &mut Rng,
    ) -> Vec<BatchRequest>;
    /// Checks completed outputs against the f32 reference where outputs
    /// carry values; returns how many checked requests failed.
    fn check_outputs(
        &self,
        run: &ServeRun,
        streams: &[Stream],
        ctx: &Ctx,
        report: &mut Report,
    ) -> Res<u64>;
    /// The same stack on the reference engine.
    fn reference_engine(&self, svc: Self::Svc) -> Self::Svc;
    /// Whether requests are served as a pipeline.
    fn pipelined(&self) -> bool {
        false
    }
    /// Traced set-up through each layer's public calls, then the replay
    /// of `(stream, request, inputs)` on the simulator it built.
    /// Runs after the serving stack is dropped, as the timed set-ups do.
    /// Returns the untraced median request time of the replay.
    fn traced(
        &mut self,
        ctx: &Ctx,
        replay: &[(usize, usize, &Inputs)],
        first: &ServeRun,
        tracer: &mut Tracer,
        layers: &mut Layers,
        report: &mut Report,
    ) -> Res<f64>;
}

/// Runs one served workload end to end.
pub fn run<W: ServedWorkload>(w: &mut W, ctx: &Ctx, probe: &mut Probe) -> Res<Report> {
    let mut report = Report::default();

    // The first set-up builds the stack that serves the run; the other
    // set-ups are timed after the run, so the peak RSS covers one stack.
    let mut setup_s = Vec::new();
    let t = Instant::now();
    let (svc, info) = w.setup(ctx)?;
    let elapsed = t.elapsed().as_secs_f64();
    setup_s.push((elapsed, probe.time(1)));

    let n = w.requests_per_stream();
    let contents: Vec<Vec<BatchRequest>> = (0..info.len())
        .map(|i| w.requests(&svc, i, n, &mut Rng::new(ctx.seed, 100 + i as u64)))
        .collect();
    let streams_at = |rung: f64| -> Vec<Stream> {
        info.iter()
            .zip(&contents)
            .enumerate()
            .map(|(i, (s, requests))| Stream {
                model: s.model.clone(),
                requests: requests.clone(),
                pattern: TrafficPattern::Poisson {
                    mean_interarrival: s.isolated as f64 / (s.workers as f64 * rung),
                    seed: ARRIVAL_SEED + i as u64,
                },
            })
            .collect()
    };

    // Timed phase: the reference rung, served again and again.
    let reference = streams_at(RUNGS[REFERENCE]);
    let prepared = svc.prepare(&reference);
    let mut rates = Vec::new();
    let mut first: Option<(ServeRun, Digest)> = None;
    let mut diverged = 0usize;
    let started = Instant::now();
    while rates.len() < MIN_REPS || started.elapsed().as_secs_f64() < ctx.seconds {
        let t = Instant::now();
        let run = svc.serve(&prepared)?;
        let wall = t.elapsed().as_secs_f64();
        rates.push((run.completed() as f64 / wall, probe.time(run.host_threads)));
        let d = run.digest();
        match &first {
            None => first = Some((run, d)),
            Some((_, d0)) if *d0 != d => diverged += 1,
            Some(_) => {}
        }
    }
    let timed_s = started.elapsed().as_secs_f64();
    let (first, first_digest) = first.expect("at least one serve");
    let mut rung_runs: Vec<Option<ServeRun>> = Vec::new();
    for (k, &rung) in RUNGS.iter().enumerate() {
        rung_runs.push(if k == REFERENCE {
            None
        } else {
            Some(svc.serve(&svc.prepare(&streams_at(rung)))?)
        });
    }
    let rss = peak_rss_mib(probe.bytes())?;

    // The ladder.
    let capacity: f64 = info.iter().map(|s| s.workers as f64 * 1e6 / s.isolated as f64).sum();
    let mut max_rate = 0.0;
    for (k, &rung) in RUNGS.iter().enumerate() {
        let run = rung_runs[k].as_ref().unwrap_or(&first);
        let mut pass = run.shed() == 0 && run.failed() == 0 && run.timed_out == 0;
        let mut tails = Vec::new();
        for (i, s) in info.iter().enumerate() {
            let lat = run.latencies(Some(i));
            let tail =
                if lat.len() > 10 { nearest_rank(&lat, tail_percentile(n)) } else { u64::MAX };
            pass &= tail <= LIMIT_FACTOR * s.isolated;
            tails.push(format!("{}: tail {} (limit {})", s.model, tail, LIMIT_FACTOR * s.isolated));
        }
        if pass {
            max_rate = rung * capacity;
        }
        report.note(format!(
            "ladder rung {rung} x capacity = {:.4} req/Mcycle: completed {} shed {} failed {} — {} — {}",
            rung * capacity,
            run.completed(),
            run.shed(),
            run.failed(),
            tails.join(", "),
            if pass { "within limit" } else { "over limit" }
        ));
    }

    // Output checks, conservation and determinism.
    let mismatched = w.check_outputs(&first, &reference, ctx, &mut report)?;
    check_energy(&first, &mut report);
    report.check(diverged == 0, || {
        format!("{diverged} of {} same-seed serves diverged from the first", rates.len() - 1)
    });
    report.attempted = first.attempted() as u64;
    report.failed = (first.shed() + first.failed() + first.timed_out) as u64 + mismatched;

    let completed = first.completed();
    let energy_nj = per_request_energy_nj(&first.stats, completed);
    let all = first.latencies(None);
    let tail_p = tail_percentile(first.attempted());
    report.e2e("req_per_s", rate_at_nominal(&rates), "req/s");
    report.e2e("peak_rss_mib", rss, "MiB");
    report.e2e("sim_latency_cycles", first.stats.cycles as f64 / completed.max(1) as f64, "cycles");
    report.e2e("sim_energy_uj", energy_nj.iter().sum::<f64>() / 1000.0, "uJ");
    report.e2e("sim_p50_cycles", nearest_rank(&all, 50.0) as f64, "cycles");
    report.e2e("sim_tail_cycles", nearest_rank(&all, tail_p) as f64, "cycles");
    report.e2e("sim_max_rate", max_rate, "req/Mcycle");
    report.note(format!(
        "sim_tail_cycles is p{tail_p} of {} requests at the reference rate",
        first.attempted()
    ));
    for (i, s) in info.iter().enumerate() {
        let lat = first.latencies(Some(i));
        report.note(format!(
            "stream {}: {} workers, isolated latency {} cycles, p50 {} p{} {} cycles",
            s.model,
            s.workers,
            s.isolated,
            nearest_rank(&lat, 50.0),
            tail_percentile(n),
            nearest_rank(&lat, tail_percentile(n)),
        ));
    }
    report.note(format!(
        "timed phase: {} serves of {} requests in {timed_s:.3} s, {} host threads",
        rates.len(),
        first.attempted(),
        first.host_threads
    ));
    report.note(host_note("req_per_s", "req/s", &rates));

    // Traced serve of the reference stream: the runtime layer, from
    // outside.
    let mut traced_pass = None;
    if ctx.trace {
        let mut tracer = Tracer::new();
        let mut layers = Layers::default();
        let name = if w.pipelined() { "pipeline.serve" } else { "runtime.serve" };
        let span = tracer.enter(name, None);
        let traced = svc.serve(&prepared)?;
        tracer.exit(span);
        report.check(traced.digest() == first_digest, || {
            "the traced serve diverged from the untraced one".to_string()
        });
        layers.runtime_serve_s = tracer.get(span).seconds();
        if w.pipelined() {
            layers.pipeline_serve_s = layers.runtime_serve_s;
            layers.pipeline_max_concurrent = first.max_concurrent as f64;
            layers.internode_words = first.stats.internode_words as f64 / completed.max(1) as f64;
            for (slot, s) in layers.stages.iter_mut().zip(&first.stages) {
                let r = s.requests.max(1) as f64;
                *slot = (s.occupied_cycles as f64 / r, s.blocked_cycles as f64 / r);
            }
        }
        let mut waits: Vec<u64> = first
            .streams
            .iter()
            .flatten()
            .filter_map(|s| match s.outcome {
                Outcome::Completed { start, .. } => Some(start - s.arrival),
                _ => None,
            })
            .collect();
        waits.sort_unstable();
        layers.queue_wait_p50_cycles = nearest_rank(&waits, 50.0) as f64;
        layers.runtime_max_concurrent = first.max_concurrent as f64;
        layers.shed = first.shed() as f64;
        layers.scale_events = first.scale_events as f64;
        layers.peak_replicas = first.peak_replicas as f64;
        layers.set_energy(&first.stats, completed);
        traced_pass = Some((tracer, layers));
    }

    // Engine cross-check on a prefix of the reference stream: the default
    // engine and the reference engine must agree bit for bit.
    let prefix: Vec<Stream> = reference
        .iter()
        .map(|s| Stream {
            model: s.model.clone(),
            requests: s.requests[..ENGINE_CHECK_REQUESTS.min(n)].to_vec(),
            pattern: s.pattern,
        })
        .collect();
    let default_run = svc.serve(&svc.prepare(&prefix))?;
    let svc = w.reference_engine(svc);
    let reference_run = svc.serve(&svc.prepare(&prefix))?;
    let (a, b) = (default_run.request_digests(), reference_run.request_digests());
    let differing = a.iter().zip(&b).filter(|(x, y)| x != y).count() as u64;
    report.check(differing == 0 && default_run.digest() == reference_run.digest(), || {
        format!(
            "{differing} of {} requests differ between the default and reference engines",
            a.len()
        )
    });
    report.failed += differing;
    report.note(format!(
        "engine cross-check: {} requests bit-identical on the default and reference engines",
        a.len() as u64 - differing
    ));
    report.note(format!(
        "error_rate = {} / {} = {}",
        report.failed,
        report.attempted,
        report.failed as f64 / report.attempted.max(1) as f64
    ));
    drop(svc);

    // The remaining set-ups, each dropped before the next.
    for _ in 1..w.setup_reps() {
        let t = Instant::now();
        let built = w.setup(ctx)?;
        let elapsed = t.elapsed().as_secs_f64();
        drop(built);
        setup_s.push((elapsed, probe.time(1)));
    }
    report.e2e("setup_s", time_at_nominal(&setup_s), "s");
    report.note(host_note("setup_s", "s", &setup_s));

    // Traced set-up layer by layer, and the replay on what it built.
    if let Some((mut tracer, mut layers)) = traced_pass {
        let mut rng = Rng::new(ctx.seed, 7);
        let per_stream = REPLAYED_REQUESTS / info.len();
        let replay: Vec<(usize, usize, &Inputs)> = (0..info.len())
            .flat_map(|i| rng.sample(n, per_stream).into_iter().map(move |r| (i, r)))
            .map(|(i, r)| (i, r, &reference[i].requests[r].inputs))
            .collect();
        let per_request = w.traced(ctx, &replay, &first, &mut tracer, &mut layers, &mut report)?;
        // Serve time the untraced replayed request time does not explain.
        let threads = first.host_threads.max(1) as f64;
        layers.runtime_overhead_s =
            layers.runtime_serve_s - first.attempted() as f64 * per_request / threads;
        report.note(format!(
            "runtime ledger: serve {:.6} s for {} requests on {} host threads; \
             untraced replayed request p50 {per_request:.6} s; overhead {:.6} s",
            layers.runtime_serve_s,
            first.attempted(),
            first.host_threads,
            layers.runtime_overhead_s
        ));
        let raw_setup: Vec<f64> = setup_s.iter().map(|s| s.0).collect();
        finish_setup_ledger(&tracer, median(&raw_setup), &mut layers, &mut report);
        write_spans(ctx, &tracer, &mut report);
        layers.emit(&mut report);
    }
    Ok(report)
}

/// The raw samples behind a host-time metric, with their probe times.
pub fn host_note(name: &str, unit: &str, samples: &[(f64, f64)]) -> String {
    let raw: Vec<f64> = samples.iter().map(|s| s.0).collect();
    let probes: Vec<f64> = samples.iter().map(|s| s.1).collect();
    format!(
        "{name}: raw median {} {unit} over {} samples; probe median {} s (nominal {} s); raw samples {raw:?}",
        median(&raw),
        raw.len(),
        median(&probes),
        crate::host::NOMINAL_PROBE_S
    )
}

/// Per-request energy of each component, in `EnergyComponent::ALL` order.
pub fn per_request_energy_nj(aggregate: &RunStats, completed: usize) -> Vec<f64> {
    EnergyComponent::ALL
        .iter()
        .map(|&c| aggregate.energy.component_nj(c) / completed.max(1) as f64)
        .collect()
}

/// Energy conservation: the nine components sum exactly (bit for bit) to
/// the total, in the aggregate and in every completed request.
fn check_energy(run: &ServeRun, report: &mut Report) {
    let mut bad = usize::from(!conserved(&run.stats));
    for s in run.streams.iter().flatten() {
        if let Outcome::Completed { stats, .. } = &s.outcome {
            bad += usize::from(!conserved(stats));
        }
    }
    report.check(bad == 0, || format!("{bad} energy ledgers do not sum to their total"));
}

pub fn conserved(stats: &RunStats) -> bool {
    let sum: f64 = EnergyComponent::ALL.iter().map(|&c| stats.energy.component_nj(c)).sum();
    sum.to_bits() == stats.energy.total_nj().to_bits()
}

/// Replays `requests` on the per-request path, untraced and then traced,
/// and fills the simulator layers, the request ledger and the tracing
/// overhead. Requests are `(stream, request, inputs)`. Returns the traced
/// replays and the untraced median request time.
pub fn replay_requests(
    path: &mut dyn RequestPath,
    requests: &[(usize, usize, &Inputs)],
    tracer: &mut Tracer,
    layers: &mut Layers,
    report: &mut Report,
) -> Res<(Vec<Replayed>, f64)> {
    // Each request runs untraced and then traced, back to back, so slow
    // drifts of the host's speed hit both passes alike.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for &(stream, id, inputs) in requests {
        untraced.push(run_one(path, stream, id, inputs).map_err(fail("untraced replay"))?);
        traced
            .push(run_one_traced(path, stream, id, inputs, tracer).map_err(fail("traced replay"))?);
    }
    let mut same = 0;
    for (u, t) in untraced.iter().zip(&traced) {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.stats(&u.stats);
        a.outputs(&u.outputs);
        b.stats(&t.stats);
        b.outputs(&t.outputs);
        same += usize::from(a == b);
    }
    report.check(same == traced.len(), || {
        format!(
            "{} replayed requests differ between the untraced and traced passes",
            traced.len() - same
        )
    });
    let p50 = |name: &str| median(&tracer.durations(name));
    layers.reset_s = p50("sim.reset");
    layers.write_s = p50("sim.write");
    layers.run_s = p50("sim.run");
    layers.read_s = p50("sim.read");
    let per = |f: &dyn Fn(&Replayed) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    layers.instructions = per(&|r| r.stats.total_instructions() as f64);
    layers.queue_events = per(&|r| r.queue_events as f64);
    layers.blocked_cycles = per(&|r| r.stats.blocked_cycles as f64);
    layers.noc_words = per(&|r| r.stats.network_words as f64);
    layers.mvm_activations = per(&|r| r.stats.mvmu_activations as f64);

    // Request ledger: the four calls against each request's own span.
    let roots: f64 = tracer.durations("request").iter().sum();
    let calls: f64 =
        ["sim.reset", "sim.write", "sim.run", "sim.read"].iter().map(|n| tracer.total(n)).sum();
    layers.request_unattributed_s = (roots - calls) / traced.len().max(1) as f64;
    let untraced_p50 = median(&untraced.iter().map(|r| r.seconds).collect::<Vec<_>>());
    let traced_p50 = median(&traced.iter().map(|r| r.seconds).collect::<Vec<_>>());
    layers.trace_overhead_frac = traced_p50 / untraced_p50 - 1.0;
    report.note(format!(
        "request ledger: {} replayed requests, spans {calls:.6} s of {roots:.6} s \
         (request.unattributed_s {:.3e} s per request)",
        traced.len(),
        layers.request_unattributed_s
    ));
    report.note(format!(
        "tracing overhead: traced request p50 {traced_p50:.6} s vs untraced {untraced_p50:.6} s ({:+.2} %)",
        layers.trace_overhead_frac * 100.0
    ));
    Ok((traced, untraced_p50))
}

/// Closes the set-up ledger: the traced set-up's layer spans against the
/// untraced median `setup_s`.
pub fn finish_setup_ledger(
    tracer: &Tracer,
    setup_s: f64,
    layers: &mut Layers,
    report: &mut Report,
) {
    let root = tracer.find("setup").expect("the traced pass recorded a set-up span");
    let children = tracer.children_seconds(root);
    layers.setup_traced_s = tracer.get(root).seconds();
    layers.setup_unattributed_s = setup_s - children;
    report.note(format!(
        "setup ledger: layer spans {children:.6} s of traced set-up {:.6} s (self {:.6} s); \
         untraced setup_s {setup_s:.6} s; setup.unattributed_s {:.6} s",
        layers.setup_traced_s,
        tracer.self_seconds(root),
        layers.setup_unattributed_s
    ));
}

/// Writes the spans next to the build output, once the run has measured.
pub fn write_spans(ctx: &Ctx, tracer: &Tracer, report: &mut Report) {
    let path = std::path::Path::new(".perfbench_out")
        .join(format!("spans-{}-seed{}.json", ctx.workload, ctx.seed));
    match tracer.write_json(&path, &ctx.metadata()) {
        Ok(()) => report.note(format!("spans written to {}", path.display())),
        Err(e) => report.check(false, || format!("cannot write spans to {}: {e}", path.display())),
    }
}
