//! Host-side glue: compile a model graph, load it into the simulator,
//! write inputs, run, and read back outputs by logical name.
//!
//! Four entry points, from one-shot to sustained traffic:
//!
//! - [`ModelRunner`] — one simulator instance, one inference at a time;
//! - [`ServeRunner`] — the serving stack: a standing pool of simulated
//!   workers fed by an arrival-time-ordered submission queue with bounded
//!   depth (overload is **shed**, not buffered without limit) and an
//!   optional per-request deadline, reporting per-request latency in
//!   deterministic simulated cycles and p50/p95/p99 percentiles. Sharded
//!   models can serve **pipelined**: different requests simultaneously
//!   resident on different nodes ([`puma_sim::PipelineSim`]).
//! - [`BatchRunner`] — a thin wrapper over the serving stack for one-shot
//!   batches: `run_batch` ≡ serve with every arrival at cycle 0 and an
//!   unbounded queue (Fig. 11's batching scenario).
//! - [`TenantServer`] — multi-tenant serving: several catalog models
//!   ([`ModelCatalog`]) placed first-fit onto one fabric's tile capacity
//!   ([`FabricSpec`]), concurrently resident on disjoint tile ranges,
//!   each serving its own request stream with per-model queues, shed,
//!   latency percentiles, and queue-depth-driven replica autoscaling
//!   ([`ScalePolicy`]).
//!
//! All entry points serve models compiled with
//! [`puma_compiler::Partitioning::Sharded`] transparently: the compiled
//! image is split into per-node programs and each worker drives a
//! [`ClusterSim`] instead of a [`NodeSim`] (§3.1 node scale-out).
//!
//! # One schedule kernel
//!
//! Replicated and multi-tenant serving share one private virtual-time
//! schedule over per-stream loads, each starting with a number of
//! primary replicas: a [`ServeRunner`] serve is one stream on its fixed
//! workers with its deadline, a [`TenantServer`] serve is one stream per
//! model, each on one primary, with scaling, retry, and failover. Events
//! are totally ordered — time, then departures, the tile death, fault
//! retries, and fresh arrivals, then stream, then request — and
//! deadlines are checked lazily, when a replica picks a request up: one
//! whose deadline already passed times out without consuming the
//! replica, one that would overrun is aborted at its deadline with the
//! replica busy until then. Both share one pooled executor too; only
//! pipelined serving, which co-simulates its stages, schedules itself.
//!
//! Every simulator a runner serves on — pooled worker, pipeline, fabric
//! replica — is a `fork_replica` of one lowered prototype, so
//! construction, crossbar programming and the micro-op build are paid
//! once and `Arc`-shared; a fork allocates only fresh state arenas.
//!
//! # Determinism
//!
//! Outputs, per-request statistics, latencies, and shed decisions are all
//! functions of the request schedule alone — *never* of the host thread
//! count. Host threads only parallelize the simulation work; the serving
//! timeline is computed on the simulated clock, so percentiles are
//! bit-reproducible and CI-gateable.

use puma_compiler::{
    compile, compose_fabric, fit_config, CompiledModel, CompilerOptions, Resident,
};
use puma_core::config::NodeConfig;
use puma_core::error::{PumaError, Result};
use puma_core::timing::TrafficPattern;
use puma_isa::MachineImage;
use puma_sim::{
    ClusterSim, NodeSim, PipelineRequest, PipelineSim, ResidentModel, RunStats, SimEngine, SimMode,
    StageStats,
};
use puma_xbar::NoiseModel;
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Flattened per-binding host writes for one request (constants + input
/// chunks), as consumed by [`PipelineRequest::writes`].
type RequestWrites = Vec<(String, Vec<f32>)>;

/// One simulator instance: a single node, or a cluster of nodes executing
/// a sharded model. Presents the uniform write/run/read surface the
/// runners drive.
#[derive(Debug)]
enum SimBackend {
    Node(Box<NodeSim>),
    Cluster(Box<ClusterSim>),
}

impl SimBackend {
    fn reset(&mut self) {
        match self {
            SimBackend::Node(s) => s.reset(),
            SimBackend::Cluster(s) => s.reset(),
        }
    }

    fn set_engine(&mut self, engine: SimEngine) {
        match self {
            SimBackend::Node(s) => s.set_engine(engine),
            SimBackend::Cluster(s) => s.set_engine(engine),
        }
    }

    fn write_input(&mut self, name: &str, values: &[f32]) -> Result<()> {
        match self {
            SimBackend::Node(s) => s.write_input(name, values),
            SimBackend::Cluster(s) => s.write_input(name, values),
        }
    }

    fn read_output(&self, name: &str) -> Result<Vec<f32>> {
        match self {
            SimBackend::Node(s) => s.read_output(name),
            SimBackend::Cluster(s) => s.read_output(name),
        }
    }

    fn run(&mut self) -> Result<&RunStats> {
        match self {
            SimBackend::Node(s) => s.run(),
            SimBackend::Cluster(s) => s.run(),
        }
    }

    /// Runs only the named resident model's tiles to completion (the
    /// multi-tenant request path); every other resident stays idle, so
    /// the run's statistics are attributed to `name` alone.
    fn run_resident(&mut self, name: &str) -> Result<&RunStats> {
        match self {
            SimBackend::Node(s) => s.run_resident(name),
            SimBackend::Cluster(s) => s.run_resident(name),
        }
    }

    /// Registers the resident models of node `node` (tile allocations by
    /// name), enabling [`SimBackend::run_resident`] and model-tagged
    /// fault/deadlock diagnostics.
    fn set_residents(&mut self, node: usize, residents: Vec<ResidentModel>) -> Result<()> {
        match self {
            SimBackend::Node(s) => {
                debug_assert_eq!(node, 0, "single-node backends have one node");
                s.set_residents(residents)
            }
            SimBackend::Cluster(s) => s.set_residents(node, residents),
        }
    }

    fn stats(&self) -> &RunStats {
        match self {
            SimBackend::Node(s) => s.stats(),
            SimBackend::Cluster(s) => s.stats(),
        }
    }

    /// Forks a fresh worker replica: programs, programmed crossbars, and
    /// pre-decoded images are `Arc`-shared with the original; only the
    /// state arenas and accumulators are allocated anew. This replaces
    /// re-running construction (and crossbar programming) per worker.
    fn fork_replica(&self) -> SimBackend {
        match self {
            SimBackend::Node(s) => SimBackend::Node(Box::new(s.fork_replica())),
            SimBackend::Cluster(s) => SimBackend::Cluster(Box::new(s.fork_replica())),
        }
    }

    /// Approximate bytes of per-replica mutable state (the marginal
    /// footprint of one more pool worker; shared artifacts excluded).
    fn state_bytes(&self) -> usize {
        match self {
            SimBackend::Node(s) => s.state_bytes(),
            SimBackend::Cluster(s) => s.state_bytes(),
        }
    }
}

/// Builds the simulator matching the compiled model's partitioning: a
/// plain [`NodeSim`] for single-node models, a [`ClusterSim`] over the
/// pre-sharded `images` otherwise.
fn build_backend(
    cfg: &NodeConfig,
    images: &[MachineImage],
    mode: SimMode,
    noise: &NoiseModel,
) -> Result<SimBackend> {
    match images {
        [single] => Ok(SimBackend::Node(Box::new(NodeSim::new(*cfg, single, mode, noise)?))),
        many => Ok(SimBackend::Cluster(Box::new(ClusterSim::new(*cfg, many, mode, noise)?))),
    }
}

/// Validates a request's inputs against the compiled I/O layout (every
/// logical input present, at its declared width) and streams each
/// per-binding chunk to `emit` — the single copy of the host-side input
/// contract shared by direct execution, input validation, and pipeline
/// write preparation.
fn for_each_input_chunk<S: AsRef<str>>(
    compiled: &CompiledModel,
    inputs: &[(S, Vec<f32>)],
    emit: &mut dyn FnMut(&str, &[f32]) -> Result<()>,
) -> Result<()> {
    for io in &compiled.inputs {
        let (_, data) = inputs
            .iter()
            .find(|(n, _)| n.as_ref() == io.name)
            .ok_or_else(|| PumaError::Execution { what: format!("missing input {:?}", io.name) })?;
        if data.len() != io.width {
            return Err(PumaError::ShapeMismatch { expected: io.width, actual: data.len() });
        }
        let mut offset = 0;
        for (chunk, &w) in io.chunks.iter().zip(io.chunk_widths.iter()) {
            emit(chunk, &data[offset..offset + w])?;
            offset += w;
        }
    }
    Ok(())
}

/// Writes one request's inputs (constants + named inputs, chunked per the
/// compiler's layout), runs the simulator to completion, and reads back
/// every logical output. With a `resident` model name (the multi-tenant
/// path), every binding goes through that tenant's `"{model}:"` prefix
/// and only its tiles run.
fn run_request<S: AsRef<str>>(
    sim: &mut SimBackend,
    compiled: &CompiledModel,
    inputs: &[(S, Vec<f32>)],
    resident: Option<&str>,
) -> Result<HashMap<String, Vec<f32>>> {
    for (binding, values) in &compiled.const_data {
        sim.write_input(&tenant_binding(resident, &binding.name), values)?;
    }
    for_each_input_chunk(compiled, inputs, &mut |chunk, data| {
        sim.write_input(&tenant_binding(resident, chunk), data)
    })?;
    match resident {
        Some(model) => sim.run_resident(model)?,
        None => sim.run()?,
    };
    let mut out = HashMap::new();
    for io in &compiled.outputs {
        let mut data = Vec::with_capacity(io.width);
        for chunk in &io.chunks {
            data.extend(sim.read_output(&tenant_binding(resident, chunk))?);
        }
        out.insert(io.name.clone(), data);
    }
    Ok(out)
}

/// A binding's name on the simulator: prefixed by its tenant on a
/// multi-tenant fabric, as compiled otherwise.
fn tenant_binding<'a>(resident: Option<&str>, name: &'a str) -> Cow<'a, str> {
    resident.map_or(Cow::Borrowed(name), |model| Cow::Owned(format!("{model}:{name}")))
}

/// Runs every job's simulation across the host-thread pool
/// (work-stealing over a shared cursor), returning per-job results in
/// job order plus the host threads used. Each thread checks one
/// simulator out of `pool` — `build`ing one on first use — and runs each
/// of its jobs with `run` on the freshly reset simulator; a result
/// carries the job's outputs and that run's statistics. The simulator
/// returns to the pool when the jobs drain. This is the execution core
/// of batch, replicated, and multi-tenant serving.
///
/// The spawned thread count is capped at `host_threads` and at the
/// host's available parallelism: each thread owns a full simulator
/// replica whose working set is tens of megabytes, so oversubscribing
/// physical cores does not just time-slice — every context switch
/// refaults a replica's working set through the cache, and measured
/// batch throughput *fell* with extra threads on small hosts (the
/// work-stealing itself is wait-free: one `fetch_add` per job).
/// Results never depend on the thread count either way.
fn execute_all<J: Sync>(
    pool: &Mutex<Vec<SimBackend>>,
    host_threads: usize,
    jobs: &[J],
    build: impl Fn() -> Result<SimBackend> + Sync,
    run: impl Fn(&mut SimBackend, &J) -> Result<HashMap<String, Vec<f32>>> + Sync,
) -> (Vec<Result<RequestResult>>, usize) {
    let serve = |sim: &mut SimBackend, job: &J| {
        sim.reset();
        let outputs = run(sim, job)?;
        Ok(RequestResult { outputs, stats: sim.stats().clone() })
    };
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = host_threads.min(jobs.len()).min(parallelism).max(1);
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<RequestResult>>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut sim: Option<SimBackend> = pool.lock().expect("sim pool poisoned").pop();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    let result = match &mut sim {
                        Some(s) => serve(s, &jobs[i]),
                        None => build().and_then(|mut s| {
                            let r = serve(&mut s, &jobs[i]);
                            sim = Some(s);
                            r
                        }),
                    };
                    *slots[i].lock().expect("request slot poisoned") = Some(result);
                }
                if let Some(s) = sim {
                    pool.lock().expect("sim pool poisoned").push(s);
                }
            });
        }
    });
    let results = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("request slot poisoned")
                .expect("every job index is claimed exactly once")
        })
        .collect();
    (results, threads)
}

/// A compiled model bound to a simulator instance.
#[derive(Debug)]
pub struct ModelRunner {
    compiled: CompiledModel,
    sim: SimBackend,
    ran: bool,
}

impl ModelRunner {
    /// Compiles and instantiates a model for bit-accurate functional
    /// simulation with noiseless crossbars.
    ///
    /// # Errors
    ///
    /// Propagates compilation and simulator-construction failures.
    pub fn functional(model: &puma_compiler::graph::Model, cfg: &NodeConfig) -> Result<Self> {
        Self::new(
            model,
            cfg,
            &CompilerOptions::default(),
            SimMode::Functional,
            &NoiseModel::noiseless(),
        )
    }

    /// Full-control constructor.
    ///
    /// # Errors
    ///
    /// Propagates compilation and simulator-construction failures.
    pub fn new(
        model: &puma_compiler::graph::Model,
        cfg: &NodeConfig,
        options: &CompilerOptions,
        mode: SimMode,
        noise: &NoiseModel,
    ) -> Result<Self> {
        let compiled = compile(model, cfg, options)?;
        let cfg = fit_config(cfg, &compiled);
        let images = compiled.shard()?;
        let sim = build_backend(&cfg, &images, mode, noise)?;
        Ok(ModelRunner { compiled, sim, ran: false })
    }

    /// The compiled artifact (image, stats, I/O metadata).
    pub fn compiled(&self) -> &CompiledModel {
        &self.compiled
    }

    /// Runs one inference: writes the named inputs, executes to completion,
    /// and returns all outputs by name. Can be called repeatedly (the
    /// machine state is reset between runs; crossbar weights persist).
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] for missing/misshaped inputs and
    /// propagates simulator faults (including deadlock detection).
    pub fn run(&mut self, inputs: &[(&str, Vec<f32>)]) -> Result<HashMap<String, Vec<f32>>> {
        if self.ran {
            self.sim.reset();
        }
        self.ran = true;
        run_request(&mut self.sim, &self.compiled, inputs, None)
    }

    /// Statistics of the last run.
    pub fn stats(&self) -> &RunStats {
        self.sim.stats()
    }
}

/// One inference request for [`BatchRunner::run_batch`]: named input
/// vectors using the model's logical input names.
#[derive(Debug, Clone, Default)]
pub struct BatchRequest {
    /// Named input vectors, one entry per model input.
    pub inputs: Vec<(String, Vec<f32>)>,
}

impl BatchRequest {
    /// Convenience constructor from `(name, values)` pairs.
    pub fn new(inputs: Vec<(String, Vec<f32>)>) -> Self {
        BatchRequest { inputs }
    }
}

/// One inference request for [`ServeRunner::serve`]: named inputs plus
/// the simulated cycle at which the request arrives at the submission
/// queue.
#[derive(Debug, Clone, Default)]
pub struct ServeRequest {
    /// Arrival time on the simulated clock, in cycles.
    pub arrival: u64,
    /// Named input vectors, one entry per model input.
    pub inputs: Vec<(String, Vec<f32>)>,
}

impl ServeRequest {
    /// Convenience constructor.
    pub fn new(arrival: u64, inputs: Vec<(String, Vec<f32>)>) -> Self {
        ServeRequest { arrival, inputs }
    }
}

/// Outcome of one request inside a batch or serve.
#[derive(Debug, Clone)]
pub struct RequestResult {
    /// Model outputs by logical name.
    pub outputs: HashMap<String, Vec<f32>>,
    /// Simulator statistics for this request alone.
    pub stats: RunStats,
}

/// The typed failure of one served request.
///
/// Watchdog and fault-injection outcomes are first-class variants so
/// callers can tell graceful degradation apart from programming errors:
/// a request that overran its deadline, stalled on an injected tile
/// death, or deadlocked names the virtual cycle (and the blocked
/// node/tile/agents via the simulator's blocked summary) instead of
/// hiding behind a generic simulator error.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RequestError {
    /// The request overran its virtual-time deadline and was aborted by
    /// the serving watchdog ([`ServeRunner::with_deadline`]).
    Deadline {
        /// Virtual cycle the watchdog fired (arrival + deadline).
        cycle: u64,
        /// The overrunning request and any stalled agents.
        what: String,
    },
    /// An injected tile death ([`puma_core::config::FaultPlan`]) stopped
    /// the request's forward progress.
    FaultedTile {
        /// Node the dead tile belongs to.
        node: usize,
        /// Tile that died.
        tile: usize,
        /// Virtual cycle of the death.
        cycle: u64,
        /// The blocked agents, or the exhausted retry budget.
        what: String,
    },
    /// The request deadlocked (every agent blocked, no fault injected).
    Deadlock {
        /// Cycle forward progress stopped.
        cycle: u64,
        /// The blocked agents.
        what: String,
    },
    /// Any other simulator or validation fault.
    Sim(PumaError),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Deadline { cycle, what } => {
                write!(f, "deadline exceeded at cycle {cycle}: {what}")
            }
            RequestError::FaultedTile { node, tile, cycle, what } => {
                write!(f, "faulted tile: node{node}/tile{tile} died at cycle {cycle}: {what}")
            }
            RequestError::Deadlock { cycle, what } => {
                write!(f, "deadlock at cycle {cycle}: {what}")
            }
            RequestError::Sim(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<PumaError> for RequestError {
    /// Lifts the simulator's typed fault variants into their first-class
    /// request-level forms; everything else is carried as [`Sim`].
    ///
    /// [`Sim`]: RequestError::Sim
    fn from(e: PumaError) -> Self {
        match e {
            PumaError::DeadlineExceeded { cycle, what } => RequestError::Deadline { cycle, what },
            PumaError::FaultedTile { node, tile, cycle, what } => {
                RequestError::FaultedTile { node, tile, cycle, what }
            }
            PumaError::Deadlock { cycle, what } => RequestError::Deadlock { cycle, what },
            other => RequestError::Sim(other),
        }
    }
}

impl From<RequestError> for PumaError {
    /// The inverse lossless mapping, for APIs (like
    /// [`BatchOutcome::results`]) that report per-request faults as
    /// [`PumaError`].
    fn from(e: RequestError) -> Self {
        match e {
            RequestError::Deadline { cycle, what } => PumaError::DeadlineExceeded { cycle, what },
            RequestError::FaultedTile { node, tile, cycle, what } => {
                PumaError::FaultedTile { node, tile, cycle, what }
            }
            RequestError::Deadlock { cycle, what } => PumaError::Deadlock { cycle, what },
            RequestError::Sim(e) => e,
        }
    }
}

/// What happened to one served request.
#[derive(Debug)]
pub enum Disposition {
    /// The request executed to completion.
    Completed {
        /// Outputs and per-request statistics.
        result: RequestResult,
        /// Cycle service began (`start − arrival` is the queueing delay).
        start: u64,
        /// Cycle service finished (`finish − arrival` is the latency).
        finish: u64,
    },
    /// The bounded submission queue was full at arrival: the request was
    /// rejected without executing (the backpressure/shed policy).
    Shed,
    /// The request faulted (bad inputs, simulator fault, deadline abort,
    /// tile death); other requests are unaffected.
    Failed(RequestError),
}

/// Per-request record of a [`ServeRunner::serve`] call.
#[derive(Debug)]
pub struct ServedRequest {
    /// The request's arrival cycle (as submitted).
    pub arrival: u64,
    /// What happened to it.
    pub disposition: Disposition,
}

impl ServedRequest {
    /// Latency in simulated cycles (`finish − arrival`), if completed.
    pub fn latency(&self) -> Option<u64> {
        match self.disposition {
            Disposition::Completed { finish, .. } => Some(finish - self.arrival),
            _ => None,
        }
    }
}

/// Deterministic latency percentiles over the completed requests of one
/// serve, in simulated cycles (nearest-rank method), plus count/mean/max.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencySummary {
    /// Completed requests the summary covers.
    pub count: usize,
    /// Median latency.
    pub p50: u64,
    /// 95th-percentile latency.
    pub p95: u64,
    /// 99th-percentile latency.
    pub p99: u64,
    /// Worst latency.
    pub max: u64,
    /// Mean latency.
    pub mean: f64,
}

impl LatencySummary {
    /// Builds the summary from raw per-request latencies.
    pub fn from_latencies(mut latencies: Vec<u64>) -> Self {
        if latencies.is_empty() {
            return LatencySummary::default();
        }
        latencies.sort_unstable();
        let count = latencies.len();
        let nearest_rank = |p: f64| {
            let rank = ((p / 100.0) * count as f64).ceil() as usize;
            latencies[rank.clamp(1, count) - 1]
        };
        LatencySummary {
            count,
            p50: nearest_rank(50.0),
            p95: nearest_rank(95.0),
            p99: nearest_rank(99.0),
            max: latencies[count - 1],
            // Sum in u128: a long saturating serve (latencies near the
            // cycle cap × millions of requests) overflows a u64 sum and
            // silently wraps the mean.
            mean: latencies.iter().map(|&l| u128::from(l)).sum::<u128>() as f64 / count as f64,
        }
    }
}

/// Results of a [`ServeRunner::serve`] call.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Per-request records, in submission order (independent of which
    /// simulated worker served each request).
    pub results: Vec<ServedRequest>,
    /// Aggregate statistics over the completed requests, merged in
    /// submission order — deterministic for any worker or host-thread
    /// count. `cycles` is serial-equivalent simulated latency (see
    /// [`RunStats::merge`]).
    pub stats: RunStats,
    /// Latency percentiles over the completed requests, in cycles.
    pub latency: LatencySummary,
    /// Requests rejected by the bounded-queue shed policy.
    pub shed: usize,
    /// Requests aborted by the virtual-time deadline watchdog
    /// ([`ServeRunner::with_deadline`]).
    pub timed_out: usize,
    /// Simulated workers in the standing pool (1 pipeline in pipelined
    /// mode).
    pub workers: usize,
    /// Host threads actually used for the simulation work.
    pub host_threads: usize,
    /// Cycle the last completed request finished (0 if none completed).
    pub makespan_cycles: u64,
    /// Maximum number of requests simultaneously in service, counting a
    /// request the deadline watchdog aborted mid-service over the span
    /// it held its worker.
    pub max_concurrent: usize,
    /// Per-stage occupancy when serving pipelined (`None` otherwise).
    pub stages: Option<Vec<StageStats>>,
    /// Host wall-clock time spent serving.
    pub wall_seconds: f64,
}

impl ServeOutcome {
    /// Number of requests that completed successfully.
    pub fn completed(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r.disposition, Disposition::Completed { .. }))
            .count()
    }

    /// Deterministic simulated throughput: completed requests per million
    /// simulated cycles (0.0 when nothing completed).
    pub fn requests_per_megacycle(&self) -> f64 {
        if self.makespan_cycles > 0 {
            self.completed() as f64 * 1e6 / self.makespan_cycles as f64
        } else {
            0.0
        }
    }
}

/// Results of a [`BatchRunner::run_batch`] call.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-request results, in request order (independent of which worker
    /// served each request).
    pub results: Vec<Result<RequestResult>>,
    /// Aggregate statistics over the successful requests, merged in
    /// request order — deterministic for any thread count. `cycles` is
    /// serial-equivalent simulated latency (see [`RunStats::merge`]).
    pub stats: RunStats,
    /// Worker threads actually used.
    pub threads: usize,
    /// Host wall-clock time spent simulating the batch.
    pub wall_seconds: f64,
}

impl BatchOutcome {
    /// Number of requests that completed successfully.
    pub fn ok_count(&self) -> usize {
        self.results.iter().filter(|r| r.is_ok()).count()
    }

    /// Host-side throughput: completed requests per wall-clock second.
    /// Returns 0.0 for a zero wall time (a degenerate measurement must
    /// not leak `inf`/NaN into bench JSON).
    pub fn requests_per_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.ok_count() as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Simulation speed: simulated instructions per wall-clock second.
    /// Returns 0.0 for a zero wall time (see
    /// [`BatchOutcome::requests_per_second`]).
    pub fn instructions_per_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.stats.total_instructions() as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

/// The async serving stack: a compiled model bound to a standing pool of
/// simulated workers fed by an arrival-time-ordered submission queue.
///
/// # Queue model
///
/// Requests arrive at simulated cycles ([`ServeRequest::arrival`], or a
/// [`TrafficPattern`] via [`ServeRunner::serve_pattern`]) and wait FIFO
/// for a free worker. The queue is bounded
/// ([`ServeRunner::with_queue_depth`]): a request that arrives while
/// `depth` requests already wait is **shed** — rejected immediately and
/// counted, never buffered — which is the backpressure policy of a
/// latency-bound serving system. At equal timestamps departures precede
/// arrivals, so a freshly freed worker is visible to a same-cycle
/// arrival.
///
/// Each simulated worker is one full replica of the node (or cluster, for
/// sharded models): crossbars are programmed once per worker and persist
/// across the requests it serves (§3.2.5). Per-request latency is
/// `finish − arrival` on the simulated clock — queueing delay plus
/// service time — and the reported p50/p95/p99 are deterministic for any
/// worker count, host-thread count, and execution engine.
///
/// # Pipeline sharding
///
/// For a model compiled with [`puma_compiler::Partitioning::Sharded`],
/// [`ServeRunner::with_pipeline`] replaces the replicated worker pool
/// with a single [`PipelineSim`]: the model's nodes become pipeline
/// stages, and different requests are simultaneously resident on
/// different nodes (node 0 starts request r+1 while node 1 still runs r).
/// Outputs remain bit-identical to sequential execution; the queue bound
/// applies at the entry stage; [`ServeOutcome::stages`] reports per-stage
/// occupancy.
///
/// # Examples
///
/// ```
/// use puma::compiler::graph::Model;
/// use puma::runtime::{BatchRequest, ServeRunner};
/// use puma_core::config::NodeConfig;
/// use puma_core::tensor::Matrix;
/// use puma_core::timing::TrafficPattern;
///
/// # fn main() -> puma_core::Result<()> {
/// let mut m = Model::new("served");
/// let x = m.input("x", 16);
/// let a = m.constant_matrix("A", Matrix::from_fn(16, 16, |r, c| ((r + c) % 3) as f32 * 0.1));
/// let ax = m.mvm(a, x)?;
/// let y = m.tanh(ax);
/// m.output("y", y);
///
/// let runner = ServeRunner::functional(&m, &NodeConfig::default())?
///     .with_workers(2)
///     .with_queue_depth(Some(8));
/// let requests: Vec<BatchRequest> = (0..6)
///     .map(|i| BatchRequest::new(vec![("x".to_string(), vec![0.05 * i as f32; 16])]))
///     .collect();
/// let outcome =
///     runner.serve_pattern(&requests, &TrafficPattern::Uniform { interval: 10_000 })?;
/// assert_eq!(outcome.completed(), 6);
/// assert!(outcome.latency.p50 > 0 && outcome.latency.p99 >= outcome.latency.p50);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ServeRunner {
    compiled: CompiledModel,
    /// Simulated nodes per request (1 unless the model is sharded).
    nodes: usize,
    engine: SimEngine,
    /// Host threads used to parallelize simulation work.
    host_threads: usize,
    /// Simulated workers in the standing pool.
    workers: usize,
    /// Submission-queue bound (`None` = unbounded, `Some(0)` = admit only
    /// when a worker is idle).
    queue_depth: Option<usize>,
    /// Serve sharded models as a pipeline instead of replicating them.
    pipeline: bool,
    /// Per-request virtual-time deadline watchdog (`None` = disarmed): a
    /// request unfinished `deadline` cycles after its arrival is aborted
    /// at exactly `arrival + deadline` and reported as a typed failure.
    deadline: Option<u64>,
    /// Idle simulators, checked out by host threads for the duration of a
    /// serve call and returned afterwards — every one a fork of
    /// `prototype`, so a worker's arenas are allocated once across the
    /// runner's lifetime, not once per call.
    pool: Mutex<Vec<SimBackend>>,
    /// The cached pipeline instance (made on first pipelined serve from
    /// a pooled replica, or a fresh fork when the pool is empty).
    pipeline_sim: Mutex<Option<PipelineSim>>,
    /// The immutable replica prototype, lowered for the default engine:
    /// every pool worker and the pipeline are forked from it, so growing
    /// the pool costs one arena allocation, not a rebuild.
    prototype: SimBackend,
}

impl ServeRunner {
    /// Compiles a model for bit-accurate serving with noiseless crossbars.
    ///
    /// # Errors
    ///
    /// Propagates compilation and validation failures.
    pub fn functional(model: &puma_compiler::graph::Model, cfg: &NodeConfig) -> Result<Self> {
        Self::new(
            model,
            cfg,
            &CompilerOptions::default(),
            SimMode::Functional,
            &NoiseModel::noiseless(),
        )
    }

    /// Full-control constructor.
    ///
    /// # Errors
    ///
    /// Propagates compilation failures; simulator construction is also
    /// validated once up front so per-worker construction cannot fail.
    pub fn new(
        model: &puma_compiler::graph::Model,
        cfg: &NodeConfig,
        options: &CompilerOptions,
        mode: SimMode,
        noise: &NoiseModel,
    ) -> Result<Self> {
        let compiled = compile(model, cfg, options)?;
        let cfg = fit_config(cfg, &compiled);
        let images = compiled.shard()?;
        // Construction is the only fallible step (functional mode also
        // programs the crossbars). The prototype lowers for the default
        // engine once, so every fork shares that one compiled build.
        let mut prototype = build_backend(&cfg, &images, mode, noise)?;
        prototype.set_engine(SimEngine::default());
        Ok(ServeRunner {
            compiled,
            nodes: images.len(),
            engine: SimEngine::default(),
            host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            workers: 1,
            queue_depth: None,
            pipeline: false,
            deadline: None,
            pool: Mutex::new(vec![prototype.fork_replica()]),
            pipeline_sim: Mutex::new(None),
            prototype,
        })
    }

    /// Sets the simulated worker-pool size. Clamped to at least 1: a
    /// zero-worker pool would leave every queued request waiting forever.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the host-thread count used to parallelize simulation work
    /// (clamped to at least 1; it never affects results). This is an
    /// upper bound: execution additionally caps at the host's available
    /// parallelism, because simulator replicas are memory-heavy and
    /// oversubscribed cores thrash the cache instead of scaling (see
    /// `execute_all`).
    #[must_use]
    pub fn with_host_threads(mut self, threads: usize) -> Self {
        self.host_threads = threads.max(1);
        self
    }

    /// Bounds the submission queue: `None` = unbounded, `Some(d)` = at
    /// most `d` requests waiting (a request arriving beyond that is shed;
    /// `Some(0)` admits only when a worker is idle).
    #[must_use]
    pub fn with_queue_depth(mut self, depth: Option<usize>) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Serves sharded models as a pipeline (see the type docs). Ignored —
    /// with a single pipeline stage — for single-node models.
    #[must_use]
    pub fn with_pipeline(mut self, pipeline: bool) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Arms the per-request deadline watchdog (`None` disarms it): a
    /// request that has not finished `deadline` cycles after its arrival
    /// is aborted at exactly `arrival + deadline` on the virtual clock —
    /// whether still queued or in service — and reported as a typed
    /// [`RequestError::Deadline`] (or [`RequestError::FaultedTile`] when
    /// an injected tile death caused the stall) instead of stalling the
    /// serve. A request finishing exactly at its deadline completes.
    /// Abort decisions are pure functions of the virtual-time schedule,
    /// so they replay bit-exactly across engines, worker counts, and
    /// host threads.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Option<u64>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Selects the simulator execution engine (default [`SimEngine::Compiled`]).
    #[must_use]
    pub fn with_engine(mut self, engine: SimEngine) -> Self {
        self.engine = engine;
        for sim in self.pool.get_mut().expect("sim pool poisoned") {
            sim.set_engine(engine);
        }
        if let Some(p) = self.pipeline_sim.get_mut().expect("pipeline sim poisoned").as_mut() {
            p.set_engine(engine);
        }
        self
    }

    /// The compiled artifact shared by all workers.
    pub fn compiled(&self) -> &CompiledModel {
        &self.compiled
    }

    /// Simulated worker-pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Configured host-thread count.
    pub fn host_threads(&self) -> usize {
        self.host_threads
    }

    /// Number of simulated nodes each request runs on (1 unless the model
    /// was compiled with [`puma_compiler::Partitioning::Sharded`]).
    pub fn nodes_per_request(&self) -> usize {
        self.nodes
    }

    /// Approximate bytes of per-replica mutable state — what one more
    /// pool worker costs in memory. Programs, programmed crossbars, and
    /// compiled micro-op images are `Arc`-shared across replicas and
    /// excluded; this is the number that bounds how many workers fit on
    /// a serving host.
    pub fn replica_bytes(&self) -> usize {
        self.prototype.state_bytes()
    }

    fn build_sim(&self) -> SimBackend {
        let mut sim = self.prototype.fork_replica();
        sim.set_engine(self.engine);
        sim
    }

    /// Serves requests arriving per `pattern` (request `i` arrives at the
    /// pattern's `i`-th arrival time).
    ///
    /// # Errors
    ///
    /// See [`ServeRunner::serve`].
    pub fn serve_pattern(
        &self,
        requests: &[BatchRequest],
        pattern: &TrafficPattern,
    ) -> Result<ServeOutcome> {
        let arrivals = pattern.arrivals(requests.len());
        let inputs: Vec<&[(String, Vec<f32>)]> =
            requests.iter().map(|r| r.inputs.as_slice()).collect();
        self.serve_inner(&arrivals, &inputs)
    }

    /// Serves a stream of requests through the standing worker pool and
    /// returns per-request outcomes, aggregate statistics, and the
    /// deterministic latency summary.
    ///
    /// Individual request faults are reported in the per-request
    /// [`Disposition`] without failing the serve. A request with
    /// malformed inputs (missing name, wrong width) is rejected at
    /// submission — it never occupies a queue slot, in either the
    /// replicated or the pipelined mode.
    ///
    /// # Errors
    ///
    /// Rejects a submission whose arrival times are not non-decreasing
    /// (the queue would otherwise silently reorder it), and propagates
    /// pool-level failures (pipeline construction, pipeline deadlock
    /// with no watchdog armed — which stalls every in-flight request,
    /// not just one).
    pub fn serve(&self, requests: &[ServeRequest]) -> Result<ServeOutcome> {
        let arrivals: Vec<u64> = requests.iter().map(|r| r.arrival).collect();
        let inputs: Vec<&[(String, Vec<f32>)]> =
            requests.iter().map(|r| r.inputs.as_slice()).collect();
        self.serve_inner(&arrivals, &inputs)
    }

    /// The serving core, over borrowed per-request inputs so the public
    /// wrappers ([`ServeRunner::serve`], [`ServeRunner::serve_pattern`],
    /// [`BatchRunner::run_batch`]) never copy input data.
    fn serve_inner(
        &self,
        arrivals: &[u64],
        inputs: &[&[(String, Vec<f32>)]],
    ) -> Result<ServeOutcome> {
        let started = Instant::now();
        // A non-monotone submission is rejected, not silently reordered:
        // arrival order is the FIFO queue order (and, with a watchdog
        // armed, the deadline order), so reordering would change shed
        // and abort decisions behind the caller's back.
        if let Some(i) = (1..arrivals.len()).find(|&i| arrivals[i] < arrivals[i - 1]) {
            return Err(PumaError::InvalidConfig {
                what: format!(
                    "request arrivals must be non-decreasing in submission order: \
                     request {i} arrives at cycle {} before request {} at cycle {}",
                    arrivals[i],
                    i - 1,
                    arrivals[i - 1]
                ),
            });
        }
        let mut outcome = if self.pipeline && self.nodes > 1 {
            self.serve_pipelined(arrivals, inputs)?
        } else {
            self.serve_replicated(arrivals, inputs)
        };
        (outcome.stats, outcome.latency, outcome.makespan_cycles) = summarize(&outcome.results);
        outcome.wall_seconds = started.elapsed().as_secs_f64();
        Ok(outcome)
    }

    /// Replicated-worker serving: simulate every request (host-parallel,
    /// speculative — a later-shed request may still be simulated), then
    /// schedule them as one stream on `workers` fixed replicas. Requests
    /// with malformed inputs are rejected at submission and excluded from
    /// the schedule (matching the pipelined path), so they never displace
    /// a valid request from the bounded queue.
    fn serve_replicated(&self, arrivals: &[u64], inputs: &[&[(String, Vec<f32>)]]) -> ServeOutcome {
        let (exec, host_threads) = execute_all(
            &self.pool,
            self.host_threads,
            inputs,
            || Ok(self.build_sim()),
            |sim, inputs| run_request(sim, &self.compiled, inputs, None),
        );
        let load = Load {
            arrivals: arrivals.to_vec(),
            durations: exec.iter().map(service_cycles).collect(),
            schedulable: (0..inputs.len())
                .filter(|&i| self.validate_inputs(inputs[i]).is_ok())
                .collect(),
            replicas: self.workers,
            tiles: 0,
            node: 0,
            base: 0,
        };
        let schedule = schedule_streams(
            &[load],
            self.queue_depth,
            self.deadline,
            &ScalePolicy::default(),
            &RetryPolicy::default(),
            None,
            &mut TilePlanner::new(0, 0),
        );
        let slots = &schedule.slots[0];
        let results = exec
            .into_iter()
            .zip(slots)
            .enumerate()
            .map(|(i, (exec, &slot))| ServedRequest {
                arrival: arrivals[i],
                disposition: dispose(slot, exec, |aborted| {
                    let (Slot::TimedOut { at, .. }, Some(d)) = (aborted, self.deadline) else {
                        unreachable!("replicated serving aborts only on its deadline")
                    };
                    RequestError::Deadline {
                        cycle: at,
                        what: format!("request {i} overran its {d}-cycle serving deadline"),
                    }
                }),
            })
            .collect();
        ServeOutcome {
            results,
            stats: RunStats::new(),
            latency: LatencySummary::default(),
            shed: schedule.shed[0],
            timed_out: slots.iter().filter(|s| matches!(s, Some(Slot::TimedOut { .. }))).count(),
            workers: self.workers,
            host_threads,
            makespan_cycles: 0,
            max_concurrent: max_overlap(slots),
            stages: None,
            wall_seconds: 0.0,
        }
    }

    /// Pipelined serving over a sharded model (see the type docs).
    fn serve_pipelined(
        &self,
        arrivals: &[u64],
        inputs: &[&[(String, Vec<f32>)]],
    ) -> Result<ServeOutcome> {
        // Reject malformed requests before they enter the queue, and
        // build the per-request write list (input chunks) the pipeline
        // performs when a node starts the request's segment. The model
        // constants are identical for every request, so they are
        // flattened once and passed as the pipeline's common writes.
        let mut prepared: Vec<Result<RequestWrites>> =
            inputs.iter().map(|i| self.prepare_writes(i)).collect();
        // Arrivals are non-decreasing, so submission order is queue order.
        let queue: Vec<usize> = (0..inputs.len()).filter(|&i| prepared[i].is_ok()).collect();
        let pipeline_requests: Vec<PipelineRequest> = queue
            .iter()
            .map(|&i| PipelineRequest {
                arrival: arrivals[i],
                writes: std::mem::take(prepared[i].as_mut().expect("filtered to ok")),
            })
            .collect();
        let const_writes: RequestWrites = self
            .compiled
            .const_data
            .iter()
            .map(|(binding, values)| (binding.name.clone(), values.clone()))
            .collect();
        let mut sim = self.checkout_pipeline();
        let report = sim.serve_with_deadline(
            &const_writes,
            &pipeline_requests,
            self.queue_depth,
            self.deadline,
        );
        *self.pipeline_sim.lock().expect("pipeline sim poisoned") = Some(sim);
        let report = report?;
        let mut dispositions: Vec<Option<Disposition>> =
            (0..arrivals.len()).map(|_| None).collect();
        let mut shed = 0usize;
        let mut timed_out = 0usize;
        for (pos, &i) in queue.iter().enumerate() {
            let r = &report.results[pos];
            dispositions[i] = Some(if let Some(err) = &r.error {
                // The watchdog aborted this request mid-pipeline; the
                // typed fault (deadline or tile death) is per-request.
                timed_out += 1;
                Disposition::Failed(err.clone().into())
            } else if r.admitted {
                let outputs = self.assemble_outputs(&r.outputs);
                Disposition::Completed {
                    result: RequestResult { outputs, stats: r.stats.clone() },
                    start: r.start,
                    finish: r.finish,
                }
            } else {
                shed += 1;
                Disposition::Shed
            });
        }
        let results = dispositions
            .into_iter()
            .enumerate()
            .map(|(i, d)| ServedRequest {
                arrival: arrivals[i],
                disposition: d.unwrap_or_else(|| {
                    Disposition::Failed(
                        std::mem::replace(&mut prepared[i], Ok(Vec::new())).unwrap_err().into(),
                    )
                }),
            })
            .collect();
        Ok(ServeOutcome {
            results,
            stats: RunStats::new(),
            latency: LatencySummary::default(),
            shed,
            timed_out,
            workers: 1,
            host_threads: 1,
            makespan_cycles: 0,
            max_concurrent: report.max_concurrent,
            stages: Some(report.stages),
            wall_seconds: 0.0,
        })
    }

    /// Takes the cached pipeline instance or makes one from a pooled
    /// replica (a fresh fork when the pool is empty): no rebuild, and the
    /// pipeline shares the pool's programs, crossbars and compiled images.
    fn checkout_pipeline(&self) -> PipelineSim {
        if let Some(sim) = self.pipeline_sim.lock().expect("pipeline sim poisoned").take() {
            return sim;
        }
        let replica = self.pool.lock().expect("sim pool poisoned").pop();
        match replica.unwrap_or_else(|| self.build_sim()) {
            SimBackend::Cluster(cluster) => PipelineSim::from(*cluster),
            SimBackend::Node(_) => unreachable!("only sharded models serve as a pipeline"),
        }
    }

    /// Validates one request's inputs against the compiled I/O layout
    /// (every logical input present, at its declared width) — the same
    /// contract [`run_request`] enforces, via the same code.
    fn validate_inputs(&self, inputs: &[(String, Vec<f32>)]) -> Result<()> {
        for_each_input_chunk(&self.compiled, inputs, &mut |_, _| Ok(()))
    }

    /// Validates one request's inputs against the compiled I/O layout and
    /// flattens them into per-binding chunk writes (constants are shared
    /// across requests and passed to the pipeline separately).
    fn prepare_writes(&self, inputs: &[(String, Vec<f32>)]) -> Result<RequestWrites> {
        let mut writes = RequestWrites::new();
        for_each_input_chunk(&self.compiled, inputs, &mut |chunk, data| {
            writes.push((chunk.to_string(), data.to_vec()));
            Ok(())
        })?;
        Ok(writes)
    }

    /// Reassembles logical outputs from per-binding chunk reads.
    fn assemble_outputs(&self, chunks: &HashMap<String, Vec<f32>>) -> HashMap<String, Vec<f32>> {
        let mut out = HashMap::new();
        for io in &self.compiled.outputs {
            let mut data = Vec::with_capacity(io.width);
            for chunk in &io.chunks {
                data.extend(chunks.get(chunk).map_or(&[][..], Vec::as_slice));
            }
            out.insert(io.name.clone(), data);
        }
        out
    }
}

/// Batched inference over worker threads — a thin wrapper over
/// [`ServeRunner`]: a batch is a serve in which every request arrives at
/// cycle 0 and the queue is unbounded, so nothing is ever shed and the
/// outputs are identical to sequential execution for any thread count.
///
/// # Examples
///
/// ```
/// use puma::compiler::graph::Model;
/// use puma::runtime::{BatchRequest, BatchRunner};
/// use puma_core::config::NodeConfig;
/// use puma_core::tensor::Matrix;
///
/// # fn main() -> puma_core::Result<()> {
/// let mut m = Model::new("batched");
/// let x = m.input("x", 16);
/// let a = m.constant_matrix("A", Matrix::from_fn(16, 16, |r, c| ((r + c) % 3) as f32 * 0.1));
/// let ax = m.mvm(a, x)?;
/// let y = m.tanh(ax);
/// m.output("y", y);
///
/// let runner = BatchRunner::functional(&m, &NodeConfig::default())?.with_threads(2);
/// let requests: Vec<BatchRequest> = (0..8)
///     .map(|i| BatchRequest::new(vec![("x".to_string(), vec![0.05 * i as f32; 16])]))
///     .collect();
/// let outcome = runner.run_batch(&requests)?;
/// assert_eq!(outcome.ok_count(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BatchRunner {
    inner: ServeRunner,
}

impl BatchRunner {
    /// Compiles a model for bit-accurate batched functional simulation
    /// with noiseless crossbars, defaulting to all available cores.
    ///
    /// # Errors
    ///
    /// Propagates compilation and validation failures.
    pub fn functional(model: &puma_compiler::graph::Model, cfg: &NodeConfig) -> Result<Self> {
        Ok(BatchRunner { inner: ServeRunner::functional(model, cfg)? })
    }

    /// Full-control constructor.
    ///
    /// # Errors
    ///
    /// Propagates compilation failures; simulator construction is also
    /// validated once up front so per-worker construction cannot fail.
    pub fn new(
        model: &puma_compiler::graph::Model,
        cfg: &NodeConfig,
        options: &CompilerOptions,
        mode: SimMode,
        noise: &NoiseModel,
    ) -> Result<Self> {
        Ok(BatchRunner { inner: ServeRunner::new(model, cfg, options, mode, noise)? })
    }

    /// Sets the worker-thread count. **Clamped to at least 1**: a
    /// zero-thread pool would never pick work off the shared queue and
    /// the batch would stall forever. Like
    /// [`ServeRunner::with_host_threads`], this is an upper bound — runs
    /// use at most the host's available parallelism.
    #[must_use]
    pub fn with_threads(self, threads: usize) -> Self {
        BatchRunner { inner: self.inner.with_host_threads(threads) }
    }

    /// Selects the simulator execution engine (default [`SimEngine::Compiled`]).
    #[must_use]
    pub fn with_engine(self, engine: SimEngine) -> Self {
        BatchRunner { inner: self.inner.with_engine(engine) }
    }

    /// The compiled artifact shared by all workers.
    pub fn compiled(&self) -> &CompiledModel {
        self.inner.compiled()
    }

    /// Configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.inner.host_threads()
    }

    /// Number of simulated nodes each request runs on (1 unless the model
    /// was compiled with [`puma_compiler::Partitioning::Sharded`]).
    pub fn nodes_per_request(&self) -> usize {
        self.inner.nodes_per_request()
    }

    /// The underlying serving stack (e.g. to serve the same compiled
    /// model under a traffic pattern without recompiling).
    pub fn serving(&self) -> &ServeRunner {
        &self.inner
    }

    /// Serves a batch of requests across the worker pool and returns
    /// per-request outputs plus aggregate statistics — equivalent to
    /// [`ServeRunner::serve`] with every arrival at cycle 0 and an
    /// unbounded queue.
    ///
    /// Individual request faults (bad inputs, deadlock) are reported in
    /// [`BatchOutcome::results`] without failing the batch.
    ///
    /// # Errors
    ///
    /// Currently infallible beyond the per-request results; the `Result`
    /// wrapper reserves room for pool-level failures.
    pub fn run_batch(&self, requests: &[BatchRequest]) -> Result<BatchOutcome> {
        let outcome = self.inner.serve_pattern(requests, &TrafficPattern::Batch)?;
        let results = outcome
            .results
            .into_iter()
            .map(|served| match served.disposition {
                Disposition::Completed { result, .. } => Ok(result),
                Disposition::Failed(err) => Err(err.into()),
                // A batch serve uses an unbounded queue, so nothing
                // should ever shed; degrade to a reported per-request
                // fault instead of aborting the process if a queue
                // policy change breaks that invariant.
                Disposition::Shed => Err(PumaError::Execution {
                    what: "internal: a request was shed from the unbounded batch queue".into(),
                }),
            })
            .collect();
        Ok(BatchOutcome {
            results,
            stats: outcome.stats,
            threads: outcome.host_threads,
            wall_seconds: outcome.wall_seconds,
        })
    }
}

// ---------------------------------------------------------------------------
// Multi-tenant serving: catalog → placement → routing.
// ---------------------------------------------------------------------------

/// Machine capacity, independent of any model: how many nodes the
/// serving fabric has and how many tiles each node offers. Models are
/// *placed onto* this capacity ([`TenantServer::deploy`]); nothing about
/// the fabric is derived from any particular model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricSpec {
    /// Simulated nodes in the fabric.
    pub nodes: usize,
    /// Tile capacity of each node.
    pub tiles_per_node: usize,
}

impl FabricSpec {
    /// Convenience constructor (both dimensions clamped to at least 1).
    pub fn new(nodes: usize, tiles_per_node: usize) -> Self {
        FabricSpec { nodes: nodes.max(1), tiles_per_node: tiles_per_node.max(1) }
    }

    /// Total tile capacity across the fabric.
    pub fn total_tiles(&self) -> usize {
        self.nodes * self.tiles_per_node
    }
}

/// Registry of compiled models available for deployment onto a serving
/// fabric. Registration is compilation-time work; placement
/// ([`TenantServer::deploy`]) is a separate, later decision — the same
/// catalog can back fabrics of different shapes.
#[derive(Debug, Default)]
pub struct ModelCatalog {
    entries: Vec<(String, Arc<CompiledModel>)>,
}

impl ModelCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        ModelCatalog::default()
    }

    /// Registers a compiled model under `name`.
    ///
    /// # Errors
    ///
    /// Rejects duplicate names, names containing `':'` (reserved as the
    /// tenant prefix separator in fabric I/O binding names), and models
    /// compiled with [`puma_compiler::Partitioning::Sharded`] — a
    /// sharded image pins tiles to specific nodes and cannot be
    /// relocated onto a shared fabric.
    pub fn register(&mut self, name: &str, compiled: CompiledModel) -> Result<()> {
        if name.is_empty() || name.contains(':') {
            return Err(PumaError::InvalidConfig {
                what: format!(
                    "invalid catalog model name {name:?}: must be non-empty and ':'-free"
                ),
            });
        }
        if self.get(name).is_some() {
            return Err(PumaError::InvalidConfig {
                what: format!("model '{name}' is already in the catalog"),
            });
        }
        if compiled.node_count() != 1 {
            return Err(PumaError::InvalidConfig {
                what: format!(
                    "model '{name}' is sharded across {} nodes and cannot be relocated; \
                     serve it on a dedicated cluster instead",
                    compiled.node_count()
                ),
            });
        }
        self.entries.push((name.to_string(), Arc::new(compiled)));
        Ok(())
    }

    /// Compiles `model` with `options` and registers it under `name`.
    ///
    /// # Errors
    ///
    /// Propagates compilation failures and [`ModelCatalog::register`]
    /// rejections.
    pub fn register_model(
        &mut self,
        name: &str,
        model: &puma_compiler::graph::Model,
        cfg: &NodeConfig,
        options: &CompilerOptions,
    ) -> Result<()> {
        self.register(name, compile(model, cfg, options)?)
    }

    /// Looks a model up by name.
    pub fn get(&self, name: &str) -> Option<&Arc<CompiledModel>> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }

    /// Registered model names, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _)| n.as_str())
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Queue-depth-driven replica autoscaling policy for one serve.
///
/// Scaling decisions are made on the simulated clock from observed
/// per-model queue depth alone, so replays are bit-exact: a model grows
/// a replica when `scale_up_depth` requests wait in its queue (if tile
/// capacity allows), and an added replica is released as soon as it
/// idles with an empty queue. The initially deployed replica is never
/// released, and a replica serving a request is never a release
/// candidate — scale-down cannot evict in-flight work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalePolicy {
    /// Waiting-queue depth at which a model tries to grow a replica.
    pub scale_up_depth: usize,
    /// Hard cap on simultaneously live replicas per model.
    pub max_replicas: usize,
}

impl Default for ScalePolicy {
    /// No autoscaling: one replica per model, regardless of queue depth.
    fn default() -> Self {
        ScalePolicy { scale_up_depth: usize::MAX, max_replicas: 1 }
    }
}

impl ScalePolicy {
    /// Convenience constructor (both knobs clamped to at least 1).
    pub fn new(scale_up_depth: usize, max_replicas: usize) -> Self {
        ScalePolicy { scale_up_depth: scale_up_depth.max(1), max_replicas: max_replicas.max(1) }
    }
}

/// A model's placement on the fabric: the tile range `[base, base +
/// tiles)` of node `node` holds its relocated image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deployment {
    /// Catalog name of the deployed model.
    pub model: String,
    /// Node the model resides on.
    pub node: usize,
    /// First tile of the allocation.
    pub base: usize,
    /// Tiles allocated.
    pub tiles: usize,
}

/// Direction of one autoscaling or fault-recovery step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDirection {
    /// A replica was added.
    Up,
    /// A replica was released.
    Down,
    /// An injected tile death hit a replica's allocation: the replica
    /// left service and its tiles were quarantined (kept allocated so
    /// nothing is ever re-placed onto the dead tile).
    Quarantine,
    /// A quarantined replica was re-placed onto free tiles (first-fit +
    /// image relocation — bit-identical service, new placement).
    Failover,
}

/// Bounded-retry policy for tenant requests aborted by an injected tile
/// death ([`puma_core::config::FaultPlan::tile_death`]).
///
/// A victim request re-enters its model's queue after a deterministic
/// virtual-time exponential backoff: the retry after attempt `n`
/// (1-based) arrives `backoff_cycles · 2^(n−1)` cycles after the abort.
/// Retries bypass the bounded-queue shed policy — the request was
/// already admitted once. All decisions are pure functions of the
/// virtual clock, so faulty serves replay bit-exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total service attempts per request, including the first (≥ 1).
    pub max_attempts: usize,
    /// Base backoff in cycles, doubled on every further retry.
    pub backoff_cycles: u64,
}

impl Default for RetryPolicy {
    /// One attempt, no retries.
    fn default() -> Self {
        RetryPolicy { max_attempts: 1, backoff_cycles: 0 }
    }
}

impl RetryPolicy {
    /// Convenience constructor (`max_attempts` clamped to at least 1).
    pub fn new(max_attempts: usize, backoff_cycles: u64) -> Self {
        RetryPolicy { max_attempts: max_attempts.max(1), backoff_cycles }
    }
}

/// One autoscaling step of a [`TenantServer::serve`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleEvent {
    /// Simulated cycle of the decision.
    pub cycle: u64,
    /// Model the step applies to.
    pub model: String,
    /// Whether a replica was added or released.
    pub direction: ScaleDirection,
    /// Live replicas of the model after the step.
    pub replicas: usize,
}

/// One model's request stream for [`TenantServer::serve`]: the requests
/// and the arrival pattern that spaces them on the simulated clock.
#[derive(Debug, Clone)]
pub struct TenantStream {
    /// Deployed model the requests target.
    pub model: String,
    /// The requests, in submission order.
    pub requests: Vec<BatchRequest>,
    /// Arrival pattern (request `i` arrives at the pattern's `i`-th
    /// arrival time).
    pub pattern: TrafficPattern,
}

impl TenantStream {
    /// Convenience constructor.
    pub fn new(model: &str, requests: Vec<BatchRequest>, pattern: TrafficPattern) -> Self {
        TenantStream { model: model.to_string(), requests, pattern }
    }
}

/// Per-model results of a [`TenantServer::serve`] call.
#[derive(Debug)]
pub struct TenantModelOutcome {
    /// Catalog name of the model.
    pub model: String,
    /// Per-request records, in submission order.
    pub results: Vec<ServedRequest>,
    /// Aggregate statistics over this model's completed requests, merged
    /// in submission order (see [`RunStats::merge`]). Because a tenant
    /// request runs only the resident's own tiles, these statistics are
    /// attributed to this model exactly — nothing from a co-resident
    /// leaks in.
    pub stats: RunStats,
    /// Latency percentiles over this model's completed requests.
    pub latency: LatencySummary,
    /// This model's requests rejected by the bounded-queue shed policy.
    pub shed: usize,
    /// Requests that completed only after at least one fault retry
    /// (counted inside `completed`, split out so graceful degradation
    /// under an injected tile death is measurable).
    pub retried: usize,
    /// Requests that failed permanently under an injected tile death:
    /// the retry budget ran out, or no live replica remained.
    pub failed: usize,
    /// Most replicas this model had live at once.
    pub peak_replicas: usize,
}

impl TenantModelOutcome {
    /// Number of requests that completed successfully.
    pub fn completed(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r.disposition, Disposition::Completed { .. }))
            .count()
    }
}

/// Results of a [`TenantServer::serve`] call.
#[derive(Debug)]
pub struct TenantOutcome {
    /// Per-model outcomes, in stream order.
    pub models: Vec<TenantModelOutcome>,
    /// Autoscaling steps, in simulated-clock order.
    pub scale_events: Vec<ScaleEvent>,
    /// Cycle the last completed request (of any model) finished.
    pub makespan_cycles: u64,
    /// Host threads actually used for the simulation work.
    pub host_threads: usize,
    /// Host wall-clock time spent serving.
    pub wall_seconds: f64,
}

impl TenantOutcome {
    /// The outcome of one model's stream, by catalog name.
    pub fn model(&self, name: &str) -> Option<&TenantModelOutcome> {
        self.models.iter().find(|m| m.model == name)
    }
}

/// First-fit tile allocator over the fabric's per-node tile ranges.
#[derive(Debug, Clone)]
struct TilePlanner {
    tiles_per_node: usize,
    /// Per node: allocated `(base, tiles)` ranges, sorted by base.
    allocs: Vec<Vec<(usize, usize)>>,
}

impl TilePlanner {
    fn new(nodes: usize, tiles_per_node: usize) -> Self {
        TilePlanner { tiles_per_node, allocs: vec![Vec::new(); nodes] }
    }

    /// Free gaps of one node, in base order (including the tail gap).
    fn gaps(&self, node: usize) -> Vec<(usize, usize)> {
        let mut gaps = Vec::new();
        let mut cursor = 0;
        for &(base, tiles) in &self.allocs[node] {
            if base > cursor {
                gaps.push((cursor, base - cursor));
            }
            cursor = base + tiles;
        }
        if cursor < self.tiles_per_node {
            gaps.push((cursor, self.tiles_per_node - cursor));
        }
        gaps
    }

    /// Allocates `tiles` contiguous tiles at the first gap that fits,
    /// scanning nodes in index order and gaps in base order.
    fn first_fit(&mut self, tiles: usize) -> Option<(usize, usize)> {
        for node in 0..self.allocs.len() {
            if let Some(&(base, _)) = self.gaps(node).iter().find(|&&(_, len)| len >= tiles) {
                let at = self.allocs[node].partition_point(|&(b, _)| b < base);
                self.allocs[node].insert(at, (base, tiles));
                return Some((node, base));
            }
        }
        None
    }

    /// Releases the allocation starting at `base` on `node`.
    fn release(&mut self, node: usize, base: usize) {
        self.allocs[node].retain(|&(b, _)| b != base);
    }

    /// The largest free contiguous range on any node (what an
    /// over-capacity error reports).
    fn largest_free(&self) -> usize {
        (0..self.allocs.len()).flat_map(|n| self.gaps(n)).map(|(_, len)| len).max().unwrap_or(0)
    }
}

/// The multi-tenant serving stack: several models resident on one
/// simulated fabric, each on its own tile allocation.
///
/// Three layers, kept deliberately separate:
///
/// 1. **Catalog** ([`ModelCatalog`]): compiled models, no placement.
/// 2. **Placement** ([`TenantServer::deploy`]): first-fit allocation of
///    each model's tile footprint onto the fabric's per-node capacity
///    ([`FabricSpec`]); admission fails — naming the model and the tile
///    shortfall — when no contiguous free range fits. Deployment
///    relocates the model's image to its allocated base
///    ([`puma_compiler::relocate_image`]) and composes all residents of
///    a node into one fabric image
///    ([`puma_compiler::compose_fabric`]); tiles never overlap by
///    construction.
/// 3. **Routing** ([`TenantServer::serve`]): per-model request streams
///    are merged into one deterministic virtual-time schedule. Each
///    request is tagged with its model, executes only that resident's
///    tiles ([`puma_sim::NodeSim::run_resident`]), and reads its
///    outputs through the tenant-prefixed fabric bindings
///    (`"{model}:{output}"` — assembled back to logical names).
///
/// # Replicas and autoscaling
///
/// A [`ScalePolicy`] lets a backlogged model grow replicas onto free
/// tiles mid-serve and release them when drained. By the relocation
/// invariant a replica computes bit-identically wherever it sits, so
/// the runtime simulates each request once on the model's materialized
/// residency and treats added replicas as placement + scheduling
/// entities: they consume real tile capacity (admission-visible) and
/// add real service slots to the virtual-time schedule, without
/// re-simulating identical work. Scale decisions are pure functions of
/// the simulated clock and queue depths — replays are bit-exact.
///
/// # Determinism
///
/// As with [`ServeRunner`]: outputs, per-model statistics, latencies,
/// shed counts, and scale events depend only on the request schedule,
/// never on host threads.
#[derive(Debug)]
pub struct TenantServer {
    catalog: ModelCatalog,
    fabric: FabricSpec,
    /// The fabric node configuration: tile capacity from the spec,
    /// shared memory widened to the largest catalog requirement.
    cfg: NodeConfig,
    mode: SimMode,
    noise: NoiseModel,
    engine: SimEngine,
    host_threads: usize,
    queue_depth: Option<usize>,
    policy: ScalePolicy,
    retry: RetryPolicy,
    deployments: Vec<Deployment>,
    planner: TilePlanner,
    /// Idle fabric simulators (every resident loaded), checked out by
    /// host threads during a serve — same pooling as [`ServeRunner`],
    /// every one a fork of `prototype`.
    pool: Mutex<Vec<SimBackend>>,
    /// The fabric replica prototype, built on first need: residents
    /// registered and programs lowered for the engine, so every pool
    /// worker forks it instead of rebuilding. Dropped with the pool when
    /// the resident set or the engine changes.
    prototype: Mutex<Option<SimBackend>>,
}

impl TenantServer {
    /// Creates a fabric for bit-accurate functional serving with
    /// noiseless crossbars.
    ///
    /// # Errors
    ///
    /// See [`TenantServer::new`].
    pub fn functional(catalog: ModelCatalog, fabric: FabricSpec, cfg: &NodeConfig) -> Result<Self> {
        Self::new(catalog, fabric, cfg, SimMode::Functional, &NoiseModel::noiseless())
    }

    /// Full-control constructor. The fabric's node configuration is
    /// `cfg` with `tiles_per_node` taken from the spec and tile shared
    /// memory widened to the largest catalog requirement (capacity
    /// widening never changes numerical behavior).
    ///
    /// # Errors
    ///
    /// Rejects a fabric whose per-node tile capacity exceeds what the
    /// simulator can address.
    pub fn new(
        catalog: ModelCatalog,
        fabric: FabricSpec,
        cfg: &NodeConfig,
        mode: SimMode,
        noise: &NoiseModel,
    ) -> Result<Self> {
        let fabric = FabricSpec::new(fabric.nodes, fabric.tiles_per_node);
        if fabric.tiles_per_node > u16::MAX as usize + 1 {
            return Err(PumaError::InvalidConfig {
                what: format!(
                    "{} tiles per node exceeds the 65536-tile send addressing range",
                    fabric.tiles_per_node
                ),
            });
        }
        let mut cfg = *cfg;
        cfg.tiles_per_node = fabric.tiles_per_node;
        for (_, compiled) in &catalog.entries {
            let needed = compiled.stats.max_shared_mem_bytes();
            if needed > cfg.tile.shared_memory_bytes {
                cfg.tile.shared_memory_bytes = needed.next_multiple_of(1024);
            }
        }
        Ok(TenantServer {
            catalog,
            fabric,
            cfg,
            mode,
            noise: noise.clone(),
            engine: SimEngine::default(),
            host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            queue_depth: None,
            policy: ScalePolicy::default(),
            retry: RetryPolicy::default(),
            deployments: Vec::new(),
            planner: TilePlanner::new(fabric.nodes, fabric.tiles_per_node),
            pool: Mutex::new(Vec::new()),
            prototype: Mutex::new(None),
        })
    }

    /// Selects the simulator execution engine (default [`SimEngine::Compiled`]).
    #[must_use]
    pub fn with_engine(mut self, engine: SimEngine) -> Self {
        self.engine = engine;
        self.pool.get_mut().expect("sim pool poisoned").clear();
        *self.prototype.get_mut().expect("fabric prototype poisoned") = None;
        self
    }

    /// Sets the host-thread cap (see [`ServeRunner::with_host_threads`]).
    #[must_use]
    pub fn with_host_threads(mut self, threads: usize) -> Self {
        self.host_threads = threads.max(1);
        self
    }

    /// Bounds each model's waiting queue (`None` = unbounded; see
    /// [`ServeRunner::with_queue_depth`]).
    #[must_use]
    pub fn with_queue_depth(mut self, depth: Option<usize>) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Sets the autoscaling policy (default: no autoscaling).
    #[must_use]
    pub fn with_policy(mut self, policy: ScalePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the fault-retry policy (default: one attempt, no retries).
    #[must_use]
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The model catalog.
    pub fn catalog(&self) -> &ModelCatalog {
        &self.catalog
    }

    /// The fabric capacity spec.
    pub fn fabric(&self) -> FabricSpec {
        self.fabric
    }

    /// The fabric's node configuration (what every resident — and any
    /// solo baseline comparing against the fabric — simulates under).
    pub fn config(&self) -> &NodeConfig {
        &self.cfg
    }

    /// Current placements, in deployment order.
    pub fn deployments(&self) -> &[Deployment] {
        &self.deployments
    }

    /// Free tiles remaining across the fabric.
    pub fn free_tiles(&self) -> usize {
        let used: usize = self.deployments.iter().map(|d| d.tiles).sum();
        self.fabric.total_tiles() - used
    }

    /// Places a catalog model onto the fabric: first-fit over each
    /// node's free tile ranges, in node order. The returned deployment
    /// records the allocation; the fabric images and the simulator pool
    /// are rebuilt lazily on the next serve.
    ///
    /// # Errors
    ///
    /// Rejects unknown and already-deployed models, and — the admission
    /// decision — returns [`PumaError::ResourceExhausted`] naming the
    /// model and the tile shortfall when no contiguous free range fits
    /// its footprint.
    pub fn deploy(&mut self, name: &str) -> Result<&Deployment> {
        let compiled = self.catalog.get(name).ok_or_else(|| PumaError::InvalidConfig {
            what: format!("model '{name}' is not in the catalog"),
        })?;
        if self.deployments.iter().any(|d| d.model == name) {
            return Err(PumaError::InvalidConfig {
                what: format!("model '{name}' is already deployed"),
            });
        }
        let tiles = compiled.stats.tiles_used.max(1);
        let Some((node, base)) = self.planner.first_fit(tiles) else {
            let free = self.planner.largest_free();
            return Err(PumaError::ResourceExhausted {
                resource: format!(
                    "contiguous fabric tiles for model '{name}' (shortfall {})",
                    tiles - free
                ),
                requested: tiles,
                available: free,
            });
        };
        self.deployments.push(Deployment { model: name.to_string(), node, base, tiles });
        // The resident set changed: the prototype and its forks are stale.
        self.pool.get_mut().expect("sim pool poisoned").clear();
        *self.prototype.get_mut().expect("fabric prototype poisoned") = None;
        Ok(self.deployments.last().expect("just pushed"))
    }

    /// The residents of one node, as the simulator registers them.
    fn residents_of(&self, node: usize) -> Vec<ResidentModel> {
        self.deployments
            .iter()
            .filter(|d| d.node == node)
            .map(|d| ResidentModel { name: d.model.clone(), base: d.base, tiles: d.tiles })
            .collect()
    }

    /// Composes each node's fabric image from its residents' relocated
    /// images.
    fn node_images(&self) -> Result<Vec<MachineImage>> {
        (0..self.fabric.nodes)
            .map(|node| {
                let residents: Vec<Resident<'_>> = self
                    .deployments
                    .iter()
                    .filter(|d| d.node == node)
                    .map(|d| Resident {
                        name: &d.model,
                        image: &self
                            .catalog
                            .get(&d.model)
                            .expect("deployed models stay cataloged")
                            .image,
                        base: d.base,
                    })
                    .collect();
                compose_fabric(&residents)
            })
            .collect()
    }

    /// Forks one fabric simulator from the prototype, building that
    /// first if needed: composed per-node images, resident
    /// registration, then engine selection — which lowers the composed
    /// (already relocated) programs once for every fork.
    fn build_fabric_sim(&self) -> Result<SimBackend> {
        let mut prototype = self.prototype.lock().expect("fabric prototype poisoned");
        if let Some(sim) = prototype.as_ref() {
            return Ok(sim.fork_replica());
        }
        let images = self.node_images()?;
        // Tile death is modeled at the schedule layer (quarantine +
        // failover + retry, see `schedule_streams`), not inside the
        // speculative fabric simulators: every request is simulated once
        // and scheduling decides which attempt lands where. Cell and
        // packet faults stay in — their site keys are resident-relative,
        // so a replica's faulty outputs are placement-invariant.
        let mut cfg = self.cfg;
        cfg.faults.tile_death = None;
        let mut sim = build_backend(&cfg, &images, self.mode, &self.noise)?;
        for node in 0..images.len() {
            sim.set_residents(node, self.residents_of(node))?;
        }
        sim.set_engine(self.engine);
        Ok(prototype.insert(sim).fork_replica())
    }

    /// Serves several models' request streams concurrently on the
    /// shared fabric.
    ///
    /// Every request is simulated (host-parallel, speculative — a
    /// later-shed request may still be simulated), then the streams are
    /// merged into one deterministic virtual-time schedule: per-model
    /// FIFO queues bounded by the queue depth (overload is shed per
    /// model), service slots per live replica, departures before
    /// same-cycle arrivals, and queue-depth-driven scale-up/down per
    /// the [`ScalePolicy`]. Replica allocations made mid-serve are
    /// transient: the fabric's persistent placements are unchanged
    /// afterwards.
    ///
    /// # Errors
    ///
    /// Rejects streams naming undeployed models and duplicate streams
    /// for one model; per-request faults are reported in the
    /// per-request [`Disposition`] without failing the serve.
    pub fn serve(&self, streams: &[TenantStream]) -> Result<TenantOutcome> {
        let started = Instant::now();
        for (i, s) in streams.iter().enumerate() {
            if !self.deployments.iter().any(|d| d.model == s.model) {
                return Err(PumaError::InvalidConfig {
                    what: format!("model '{}' is not deployed on this fabric", s.model),
                });
            }
            if streams[..i].iter().any(|t| t.model == s.model) {
                return Err(PumaError::InvalidConfig {
                    what: format!("duplicate stream for model '{}'", s.model),
                });
            }
        }
        // Speculative execution of every request of every stream: one
        // (model, inputs) job per request.
        let jobs: Vec<_> = streams
            .iter()
            .flat_map(|s| s.requests.iter().map(|r| (s.model.as_str(), r.inputs.as_slice())))
            .collect();
        let (exec, host_threads) = execute_all(
            &self.pool,
            self.host_threads,
            &jobs,
            || self.build_fabric_sim(),
            |sim, &(model, inputs)| {
                let compiled = self.catalog.get(model).expect("deployed models stay cataloged");
                run_request(sim, compiled, inputs, Some(model))
            },
        );
        // One stream per model, each starting on its one materialized
        // deployment (malformed requests are rejected at submission and
        // never occupy a queue slot).
        let mut offset = 0;
        let loads: Vec<Load> = streams
            .iter()
            .map(|s| {
                let n = s.requests.len();
                let durations = exec[offset..offset + n].iter().map(service_cycles).collect();
                offset += n;
                let placed = self
                    .deployments
                    .iter()
                    .find(|d| d.model == s.model)
                    .expect("checked deployed above");
                Load {
                    arrivals: s.pattern.arrivals(n),
                    durations,
                    schedulable: (0..n)
                        .filter(|&i| self.validate_tenant_inputs(&s.model, &s.requests[i].inputs))
                        .collect(),
                    replicas: 1,
                    tiles: placed.tiles,
                    node: placed.node,
                    base: placed.base,
                }
            })
            .collect();
        // Transient planner copy: mid-serve replica allocations must not
        // change the fabric's persistent placements.
        let mut planner = self.planner.clone();
        // An injected tile death is scheduling-visible (quarantine +
        // failover + retry); the speculative simulators never see it.
        let death =
            self.cfg.faults.tile_death.map(|d| (d.at_cycle, usize::from(d.node), d.tile as usize));
        let schedule = schedule_streams(
            &loads,
            self.queue_depth,
            None,
            &self.policy,
            &self.retry,
            death,
            &mut planner,
        );
        // Assemble per-model outcomes in stream order.
        let mut exec = exec.into_iter();
        let mut makespan = 0u64;
        let mut models = Vec::with_capacity(streams.len());
        for (si, (stream, load)) in streams.iter().zip(&loads).enumerate() {
            let slots = &schedule.slots[si];
            let attempts = &schedule.attempts[si];
            let results: Vec<ServedRequest> = exec
                .by_ref()
                .take(stream.requests.len())
                .zip(slots)
                .enumerate()
                .map(|(i, (exec, &slot))| ServedRequest {
                    arrival: load.arrivals[i],
                    // Lost to the injected tile death: aborted with the
                    // retry budget exhausted, or no live replica left.
                    disposition: dispose(slot, exec, |_| {
                        let (cycle, node, tile) = death.expect("failures require a tile death");
                        RequestError::FaultedTile {
                            node,
                            tile,
                            cycle,
                            what: format!(
                                "request {i} of model '{}' lost to the tile death \
                                 ({} of {} attempts made)",
                                stream.model, attempts[i], self.retry.max_attempts
                            ),
                        }
                    }),
                })
                .collect();
            let (stats, latency, last) = summarize(&results);
            makespan = makespan.max(last);
            let retried = results
                .iter()
                .zip(attempts)
                .filter(|(r, &a)| a > 1 && matches!(r.disposition, Disposition::Completed { .. }))
                .count();
            models.push(TenantModelOutcome {
                model: stream.model.clone(),
                results,
                stats,
                latency,
                shed: schedule.shed[si],
                retried,
                failed: slots.iter().filter(|s| **s == Some(Slot::Failed)).count(),
                peak_replicas: schedule.peak[si],
            });
        }
        let scale_events = schedule
            .events
            .iter()
            .map(|e| ScaleEvent {
                cycle: e.cycle,
                model: streams[e.stream].model.clone(),
                direction: e.kind,
                replicas: e.live,
            })
            .collect();
        Ok(TenantOutcome {
            models,
            scale_events,
            makespan_cycles: makespan,
            host_threads,
            wall_seconds: started.elapsed().as_secs_f64(),
        })
    }

    /// Whether one request's inputs satisfy the model's compiled I/O
    /// layout (same contract as [`ServeRunner`]'s validation).
    fn validate_tenant_inputs(&self, model: &str, inputs: &[(String, Vec<f32>)]) -> bool {
        let compiled = self.catalog.get(model).expect("deployed models stay cataloged");
        for_each_input_chunk(compiled, inputs, &mut |_, _| Ok(())).is_ok()
    }
}

// ---------------------------------------------------------------------------
// The virtual-time serving kernel shared by replicated and tenant serving.
// ---------------------------------------------------------------------------

/// One request's outcome in the virtual-time schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// The request was served over `start..finish`.
    Served {
        /// Cycle service began.
        start: u64,
        /// Cycle service finished.
        finish: u64,
    },
    /// The bounded queue rejected the request at arrival.
    Shed,
    /// The deadline watchdog aborted the request at `at` (its arrival
    /// plus the deadline). It held a replica over `start..at` — an empty
    /// span when the deadline passed while it was still queued.
    TimedOut {
        /// Cycle a replica picked the request up (`at` if it expired
        /// while queued).
        start: u64,
        /// Cycle the watchdog fired.
        at: u64,
    },
    /// Permanently lost to the injected tile death: the retry budget ran
    /// out, or no live replica remained to serve it.
    Failed,
}

impl Slot {
    /// The span the request held a replica, if one ever picked it up.
    fn busy_span(self) -> Option<(u64, u64)> {
        match self {
            Slot::Served { start, finish } => Some((start, finish)),
            Slot::TimedOut { start, at } => Some((start, at)),
            Slot::Shed | Slot::Failed => None,
        }
    }
}

/// Maximum number of requests simultaneously holding a replica
/// (finishes close before starts open at equal timestamps, so a
/// zero-length span counts 0).
fn max_overlap(slots: &[Option<Slot>]) -> usize {
    let mut events: Vec<(u64, i32)> = Vec::new();
    for (start, end) in slots.iter().filter_map(|s| s.and_then(Slot::busy_span)) {
        events.push((start, 1));
        events.push((end, -1));
    }
    // Sort by time, closes (−1) before opens (+1).
    events.sort_unstable_by_key(|&(t, delta)| (t, delta));
    let mut current = 0i64;
    let mut max = 0i64;
    for (_, delta) in events {
        current += i64::from(delta);
        max = max.max(current);
    }
    max.max(0) as usize
}

/// A request's service duration in the virtual-time schedule: its
/// simulated cycles. A request that validated but faulted in simulation
/// occupies its replica for zero cycles — the fault is reported per
/// request, not modelled as service time.
fn service_cycles(exec: &Result<RequestResult>) -> u64 {
    exec.as_ref().map_or(0, |ok| ok.stats.cycles)
}

/// Maps one request's schedule slot and speculative execution result to
/// its disposition. `None` marks a request rejected at submission, whose
/// execution carries the validation error; `abort` types a slot the
/// schedule aborted (a deadline timeout or a tile-death failure).
fn dispose(
    slot: Option<Slot>,
    exec: Result<RequestResult>,
    abort: impl FnOnce(Slot) -> RequestError,
) -> Disposition {
    match (slot, exec) {
        (Some(Slot::Shed), _) => Disposition::Shed,
        (Some(Slot::Served { start, finish }), Ok(result)) => {
            Disposition::Completed { result, start, finish }
        }
        (None | Some(Slot::Served { .. }), Err(e)) => Disposition::Failed(e.into()),
        (None, Ok(_)) => unreachable!("validation failed but execution succeeded"),
        (Some(aborted), _) => Disposition::Failed(abort(aborted)),
    }
}

/// Aggregates the completed requests of one serve in submission order,
/// so the merged floating-point energy totals never depend on
/// scheduling: their merged statistics, latency summary, and the cycle
/// the last one finished (0 if none completed).
fn summarize(results: &[ServedRequest]) -> (RunStats, LatencySummary, u64) {
    let mut stats = RunStats::new();
    let mut latencies = Vec::new();
    let mut makespan = 0u64;
    for served in results {
        if let Disposition::Completed { result, finish, .. } = &served.disposition {
            stats.merge(&result.stats);
            latencies.push(finish - served.arrival);
            makespan = makespan.max(*finish);
        }
    }
    (stats, LatencySummary::from_latencies(latencies), makespan)
}

/// One stream's load for [`schedule_streams`].
struct Load {
    /// Arrival cycle of each request (non-decreasing).
    arrivals: Vec<u64>,
    /// Service duration of each request, in cycles.
    durations: Vec<u64>,
    /// Indices of the schedulable requests (malformed ones are excluded
    /// and get no slot).
    schedulable: Vec<usize>,
    /// Primary replicas in service from cycle 0 (at least 1).
    replicas: usize,
    /// Tiles one replica occupies.
    tiles: usize,
    /// Node of the materialized deployment the initial replicas sit on.
    node: usize,
    /// First tile of the materialized deployment.
    base: usize,
}

/// One replica of one stream in the schedule.
#[derive(Debug, Clone, Copy)]
struct Replica {
    /// The transient tile allocation backing a scaled-up or failover
    /// replica (`None` for the initial replicas, which sit on the load's
    /// materialized deployment).
    alloc: Option<(usize, usize)>,
    /// Primary replicas — the initial ones and any failover replacement
    /// for them — are never released by scale-down.
    primary: bool,
    busy: bool,
    removed: bool,
}

/// One autoscaling or fault-recovery step, by stream index (mapped to
/// model names by the caller).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RawScaleEvent {
    cycle: u64,
    stream: usize,
    /// The replica added or removed.
    slot: usize,
    kind: ScaleDirection,
    /// Live replicas of the stream after the step.
    live: usize,
}

/// Output of [`schedule_streams`].
struct Schedule {
    /// Per stream, per request: the outcome (`None` = not schedulable).
    slots: Vec<Vec<Option<Slot>>>,
    /// Per stream, per request: the replica that served it (read by the
    /// scheduler unit tests to pin the no-eviction invariant).
    #[allow(dead_code)]
    replica_of: Vec<Vec<Option<usize>>>,
    /// Per stream: requests shed by the bounded queue.
    shed: Vec<usize>,
    /// Per stream: most replicas live at once.
    peak: Vec<usize>,
    /// Autoscaling and fault-recovery steps, in simulated-clock order.
    events: Vec<RawScaleEvent>,
    /// Per stream, per request: service attempts made (0 = never
    /// started; > 1 = completed or failed after fault retries).
    attempts: Vec<Vec<usize>>,
}

/// The schedule under construction plus the replicas, per-stream waiting
/// queues, and in-flight departures of [`schedule_streams`].
struct Kernel<'a> {
    loads: &'a [Load],
    deadline: Option<u64>,
    out: Schedule,
    replicas: Vec<Vec<Replica>>,
    waiting: Vec<VecDeque<usize>>,
    /// In-flight departures: (finish, stream, replica, request).
    departures: BinaryHeap<Reverse<(u64, usize, usize, usize)>>,
}

impl Kernel<'_> {
    /// Replica `k` of stream `s` picks request `r` up at cycle `t`. The
    /// deadline is checked here, lazily: a request whose deadline has
    /// already passed times out without consuming the replica, and one
    /// that would finish after its deadline is aborted there with the
    /// replica busy until then (finishing exactly at the deadline
    /// completes). Returns whether the replica is now busy.
    fn start(&mut self, t: u64, s: usize, r: usize, k: usize) -> bool {
        let load = &self.loads[s];
        let finish = t + load.durations[r];
        let (slot, end) = match self.deadline.map(|d| load.arrivals[r].saturating_add(d)) {
            Some(at) if finish > at && t >= at => {
                self.out.slots[s][r] = Some(Slot::TimedOut { start: at, at });
                return false;
            }
            Some(at) if finish > at => (Slot::TimedOut { start: t, at }, at),
            _ => (Slot::Served { start: t, finish }, finish),
        };
        self.out.slots[s][r] = Some(slot);
        self.out.replica_of[s][r] = Some(k);
        self.out.attempts[s][r] += 1;
        self.replicas[s][k].busy = true;
        self.departures.push(Reverse((end, s, k, r)));
        true
    }

    /// Idle replica `k` of stream `s` serves the queue head at `t`,
    /// moving past heads that time out on pickup. Returns whether the
    /// replica is now busy.
    fn serve_head(&mut self, t: u64, s: usize, k: usize) -> bool {
        while let Some(head) = self.waiting[s].pop_front() {
            if self.start(t, s, head, k) {
                return true;
            }
        }
        false
    }

    /// An idle replica of stream `s` that may serve a new request at
    /// once (none while requests wait: they go first).
    fn idle(&self, s: usize) -> Option<usize> {
        self.replicas[s]
            .iter()
            .position(|x| !x.busy && !x.removed)
            .filter(|_| self.waiting[s].is_empty())
    }

    fn live(&self, s: usize) -> usize {
        self.replicas[s].iter().filter(|x| !x.removed).count()
    }

    /// Records a scaling or recovery step of replica `k` of stream `s`.
    fn record(&mut self, cycle: u64, s: usize, k: usize, kind: ScaleDirection) {
        let live = self.live(s);
        self.out.peak[s] = self.out.peak[s].max(live);
        self.out.events.push(RawScaleEvent { cycle, stream: s, slot: k, kind, live });
    }

    /// Adds a replica on `alloc` to stream `s` at `t` (a scale-up or a
    /// failover) and lets it serve the queue head.
    fn add_replica(
        &mut self,
        t: u64,
        s: usize,
        alloc: (usize, usize),
        primary: bool,
        kind: ScaleDirection,
    ) {
        self.replicas[s].push(Replica { alloc: Some(alloc), primary, busy: false, removed: false });
        let k = self.replicas[s].len() - 1;
        self.record(t, s, k, kind);
        self.serve_head(t, s, k);
    }
}

/// The deterministic virtual-time schedule of every replicated serve:
/// per-stream FIFO queues bounded by `depth`, one service slot per live
/// replica (each stream starts with [`Load::replicas`] primaries),
/// lazy per-request `deadline`s, queue-depth-driven scale-up/down against
/// `planner`'s free tiles, and fault recovery for one injected tile death
/// `(cycle, node, tile)`. A [`ServeRunner`] is one stream with a fixed
/// replica count and a deadline; a [`TenantServer`] is one stream per
/// model, each with one primary, scaling, retry, and failover.
///
/// Event order is total and host-independent: time, then departures
/// before the tile death (a request finishing exactly at the death
/// cycle completes), the death before fault retries, and retries
/// before fresh arrivals (an arrival at the death cycle sees the
/// post-death fabric), then stream index, then request index. A freed
/// replica immediately serves its queue head. Deadlines are checked when
/// a replica picks a request up (see [`Kernel::start`]): a queued
/// request whose deadline passed never consumes a replica. Scale-up
/// fires on the arrival that makes a stream's queue reach
/// [`ScalePolicy::scale_up_depth`] (capacity permitting) and the new
/// replica immediately serves the queue head; scale-down releases a
/// scaled-up replica the moment it departs its last request with an
/// empty queue. Primaries are never released, and only the replica that
/// just went idle is ever a release candidate, so scale-down can never
/// evict in-flight work.
///
/// When the death hits a replica's allocation (the materialized
/// placement or a scaled-up replica's transient one — allocations are
/// disjoint, so at most one replica is hit), that replica is
/// **quarantined**: removed from service with its tiles kept allocated,
/// so nothing is ever re-placed onto the dead tile. Its in-flight
/// request is aborted and retried per `retry` (retries bypass the
/// bounded queue — the request was already admitted once), and a
/// replacement replica is re-placed first-fit onto free tiles
/// (**failover**). With no free capacity and no live replica left, the
/// stream's unserved requests fail.
fn schedule_streams(
    loads: &[Load],
    depth: Option<usize>,
    deadline: Option<u64>,
    policy: &ScalePolicy,
    retry: &RetryPolicy,
    death: Option<(u64, usize, usize)>,
    planner: &mut TilePlanner,
) -> Schedule {
    let primary = Replica { alloc: None, primary: true, busy: false, removed: false };
    let mut st = Kernel {
        loads,
        deadline,
        out: Schedule {
            slots: loads.iter().map(|l| vec![None; l.arrivals.len()]).collect(),
            replica_of: loads.iter().map(|l| vec![None; l.arrivals.len()]).collect(),
            shed: vec![0; loads.len()],
            peak: loads.iter().map(|l| l.replicas).collect(),
            events: Vec::new(),
            attempts: loads.iter().map(|l| vec![0; l.arrivals.len()]).collect(),
        },
        replicas: loads.iter().map(|l| vec![primary; l.replicas]).collect(),
        waiting: vec![VecDeque::new(); loads.len()],
        departures: BinaryHeap::new(),
    };
    // Merged arrivals: (cycle, stream, request), consumed in order.
    let mut arrivals: Vec<(u64, usize, usize)> = loads
        .iter()
        .enumerate()
        .flat_map(|(s, l)| l.schedulable.iter().map(move |&r| (l.arrivals[r], s, r)))
        .collect();
    arrivals.sort_unstable();
    let mut next_arrival = 0usize;
    // Fault retries: (re-arrival cycle, stream, request).
    let mut retries: BinaryHeap<Reverse<(u64, usize, usize)>> = BinaryHeap::new();
    let mut death_pending = death;

    loop {
        // The next event: minimum virtual time; at equal times
        // departures (0) precede the tile death (1), the death precedes
        // fault retries (2), and retries precede fresh arrivals (3).
        let candidates = [
            (st.departures.peek().map(|&Reverse((t, ..))| t), 0u8),
            (death_pending.map(|(t, ..)| t), 1),
            (retries.peek().map(|&Reverse((t, ..))| t), 2),
            (arrivals.get(next_arrival).map(|&(t, ..)| t), 3),
        ];
        let Some((t, event)) = candidates.iter().filter_map(|&(t, e)| Some((t?, e))).min() else {
            break;
        };
        match event {
            0 => {
                let Reverse((_, s, k, _)) = st.departures.pop().expect("candidate peeked");
                if st.replicas[s][k].removed {
                    // A quarantined replica's aborted in-flight request:
                    // the abort and its retry were handled at the death
                    // cycle, and the replica never returns to service.
                    continue;
                }
                st.replicas[s][k].busy = false;
                if !st.serve_head(t, s, k) && !st.replicas[s][k].primary {
                    // An idle scaled-up replica with an empty queue
                    // drains away; its tiles return to the free pool.
                    let (node, base) =
                        st.replicas[s][k].alloc.expect("scaled-up replicas carry an allocation");
                    planner.release(node, base);
                    st.replicas[s][k].removed = true;
                    st.record(t, s, k, ScaleDirection::Down);
                }
            }
            1 => {
                let (_, dn, dt) = death_pending.take().expect("candidate peeked");
                let replicas = &st.replicas;
                let hit = (0..loads.len())
                    .flat_map(|s| (0..replicas[s].len()).map(move |k| (s, k)))
                    .find(|&(s, k)| {
                        let x = replicas[s][k];
                        let (node, base) = x.alloc.unwrap_or((loads[s].node, loads[s].base));
                        !x.removed && node == dn && (base..base + loads[s].tiles).contains(&dt)
                    });
                let Some((s, k)) = hit else { continue };
                // Quarantine: the replica leaves service; its tiles stay
                // allocated so nothing is ever re-placed onto the dead
                // tile.
                st.replicas[s][k].removed = true;
                st.record(t, s, k, ScaleDirection::Quarantine);
                // Abort the in-flight victim; retry it after the
                // exponential backoff while the budget allows.
                let victim = st
                    .departures
                    .iter()
                    .find(|&&Reverse((_, ss, kk, _))| ss == s && kk == k)
                    .map(|&Reverse((_, _, _, r))| r);
                if let Some(r) = victim {
                    st.out.slots[s][r] = None;
                    st.out.replica_of[s][r] = None;
                    if st.out.attempts[s][r] < retry.max_attempts {
                        let exp = (st.out.attempts[s][r] as u32 - 1).min(63);
                        let delay = retry.backoff_cycles.saturating_mul(1u64 << exp);
                        retries.push(Reverse((t.saturating_add(delay), s, r)));
                    } else {
                        st.out.slots[s][r] = Some(Slot::Failed);
                    }
                }
                // Failover: re-place the replica onto free tiles,
                // first-fit like any deployment.
                if let Some(alloc) = planner.first_fit(loads[s].tiles) {
                    let primary = st.replicas[s][k].primary;
                    st.add_replica(t, s, alloc, primary, ScaleDirection::Failover);
                }
            }
            2 => {
                let Reverse((_, s, r)) = retries.pop().expect("candidate peeked");
                if let Some(k) = st.idle(s) {
                    st.start(t, s, r, k);
                } else if st.live(s) > 0 {
                    // Retries bypass the bounded queue: the request was
                    // already admitted once.
                    st.waiting[s].push_back(r);
                } else {
                    st.out.slots[s][r] = Some(Slot::Failed);
                }
            }
            _ => {
                let (_, s, r) = arrivals[next_arrival];
                next_arrival += 1;
                if let Some(k) = st.idle(s) {
                    st.start(t, s, r, k);
                } else if depth.is_none_or(|d| st.waiting[s].len() < d) {
                    st.waiting[s].push_back(r);
                    if st.waiting[s].len() >= policy.scale_up_depth
                        && st.live(s) < policy.max_replicas
                    {
                        if let Some(alloc) = planner.first_fit(loads[s].tiles) {
                            st.add_replica(t, s, alloc, false, ScaleDirection::Up);
                        }
                    }
                } else {
                    st.out.shed[s] += 1;
                    st.out.slots[s][r] = Some(Slot::Shed);
                }
            }
        }
    }
    // A stream left with no live replica (the death consumed its last
    // one and failover found no capacity) can never serve what is still
    // waiting.
    for s in 0..loads.len() {
        if st.live(s) == 0 {
            for r in std::mem::take(&mut st.waiting[s]) {
                st.out.slots[s][r] = Some(Slot::Failed);
            }
        }
    }
    st.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Schedules one stream on `workers` fixed replicas — the shape of a
    /// [`ServeRunner`] serve.
    fn fixed(
        schedulable: &[usize],
        arrivals: &[u64],
        durations: &[u64],
        workers: usize,
        depth: Option<usize>,
        deadline: Option<u64>,
    ) -> Vec<Option<Slot>> {
        let load = Load {
            arrivals: arrivals.to_vec(),
            durations: durations.to_vec(),
            schedulable: schedulable.to_vec(),
            replicas: workers,
            tiles: 0,
            node: 0,
            base: 0,
        };
        let default = (ScalePolicy::default(), RetryPolicy::default());
        let mut planner = TilePlanner::new(0, 0);
        schedule_streams(&[load], depth, deadline, &default.0, &default.1, None, &mut planner)
            .slots
            .swap_remove(0)
    }

    fn served(start: u64, finish: u64) -> Option<Slot> {
        Some(Slot::Served { start, finish })
    }

    #[test]
    fn virtual_schedule_single_worker_is_fifo() {
        // Three requests, 10-cycle service, arriving every 4 cycles.
        let arrivals = [0, 4, 8];
        let durations = [10, 10, 10];
        let schedule = fixed(&[0, 1, 2], &arrivals, &durations, 1, None, None);
        assert_eq!(schedule[0], served(0, 10));
        assert_eq!(schedule[1], served(10, 20));
        assert_eq!(schedule[2], served(20, 30));
        assert_eq!(max_overlap(&schedule), 1);
    }

    #[test]
    fn virtual_schedule_extra_workers_run_in_parallel() {
        let arrivals = [0, 0, 0];
        let durations = [10, 10, 10];
        let schedule = fixed(&[0, 1, 2], &arrivals, &durations, 3, None, None);
        assert!(schedule.iter().all(|w| *w == served(0, 10)));
        assert_eq!(max_overlap(&schedule), 3);
    }

    #[test]
    fn virtual_schedule_sheds_beyond_queue_depth() {
        // One worker busy 0..100; depth 1: request 1 queues, 2 and 3 shed.
        let arrivals = [0, 1, 2, 3];
        let durations = [100, 100, 100, 100];
        let schedule = fixed(&[0, 1, 2, 3], &arrivals, &durations, 1, Some(1), None);
        assert_eq!(schedule[0], served(0, 100));
        assert_eq!(schedule[1], served(100, 200));
        assert_eq!(schedule[2], Some(Slot::Shed));
        assert_eq!(schedule[3], Some(Slot::Shed));
    }

    #[test]
    fn virtual_schedule_departure_precedes_same_cycle_arrival() {
        // Worker frees at exactly t=10 when the second request arrives:
        // it must be admitted and start immediately.
        let arrivals = [0, 10];
        let durations = [10, 5];
        let schedule = fixed(&[0, 1], &arrivals, &durations, 1, Some(0), None);
        assert_eq!(schedule[1], served(10, 15));
    }

    #[test]
    fn depth_zero_is_a_loss_system() {
        // No waiting room: the second concurrent request is shed.
        let arrivals = [0, 5];
        let durations = [100, 100];
        let schedule = fixed(&[0, 1], &arrivals, &durations, 1, Some(0), None);
        assert_eq!(schedule[0], served(0, 100));
        assert_eq!(schedule[1], Some(Slot::Shed));
    }

    #[test]
    fn virtual_schedule_deadline_aborts_and_reclaims_worker() {
        // Request 0 would run 0..100 but its deadline is 50: the worker
        // is reclaimed at the abort cycle and serves request 1 on time.
        let arrivals = [0, 40];
        let durations = [100, 10];
        let schedule = fixed(&[0, 1], &arrivals, &durations, 1, None, Some(50));
        assert_eq!(schedule[0], Some(Slot::TimedOut { start: 0, at: 50 }));
        assert_eq!(schedule[1], served(50, 60));
    }

    #[test]
    fn virtual_schedule_queue_expiry_consumes_no_worker() {
        // One worker, deadline 60. Request 0 finishes in time; request 1
        // starts at 50 and is aborted at its deadline 60; request 2's
        // deadline passes while it is still queued, so it expires
        // without occupying the worker — which is free again for
        // request 3 the moment it arrives.
        let arrivals = [0, 0, 0, 60];
        let durations = [50, 50, 50, 20];
        let schedule = fixed(&[0, 1, 2, 3], &arrivals, &durations, 1, None, Some(60));
        assert_eq!(schedule[0], served(0, 50));
        assert_eq!(schedule[1], Some(Slot::TimedOut { start: 50, at: 60 }));
        assert_eq!(schedule[2], Some(Slot::TimedOut { start: 60, at: 60 }));
        assert_eq!(schedule[3], served(60, 80));
        // The aborted request held the worker over 50..60; the expired
        // one never held it.
        assert_eq!(max_overlap(&schedule), 1);
    }

    #[test]
    fn virtual_schedule_finishing_exactly_at_deadline_completes() {
        let arrivals = [0];
        let durations = [50];
        let schedule = fixed(&[0], &arrivals, &durations, 1, None, Some(50));
        assert_eq!(schedule[0], served(0, 50));
    }

    use puma_core::tensor::Matrix;

    /// A one-tile model: `y = tanh(A·x)` over `width` lanes, with `A`
    /// scaled by `scale` so different tenants compute different outputs.
    fn tiny_model(name: &str, width: usize, scale: f32) -> puma_compiler::graph::Model {
        let mut m = puma_compiler::graph::Model::new(name);
        let x = m.input("x", width);
        let a = m.constant_matrix(
            "A",
            Matrix::from_fn(width, width, |r, c| scale * ((r + 2 * c) % 5) as f32 * 0.01),
        );
        let ax = m.mvm(a, x).unwrap();
        let y = m.tanh(ax);
        m.output("y", y);
        m
    }

    fn catalog_with(models: &[(&str, f32)]) -> ModelCatalog {
        let cfg = NodeConfig::default();
        let mut catalog = ModelCatalog::new();
        for &(name, scale) in models {
            catalog
                .register_model(
                    name,
                    &tiny_model(name, 16, scale),
                    &cfg,
                    &CompilerOptions::default(),
                )
                .unwrap();
        }
        catalog
    }

    /// One tenant stream deployed on node 0 from tile 0, one primary.
    fn load(arrivals: Vec<u64>, durations: Vec<u64>, tiles: usize) -> Load {
        let schedulable: Vec<usize> = (0..arrivals.len()).collect();
        Load { arrivals, durations, schedulable, replicas: 1, tiles, node: 0, base: 0 }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The kernel's invariants on random loads: fixed and scaling
        /// replicas, bounded queues, deadlines, retries, and a tile death.
        #[test]
        fn kernel_invariants_hold_on_random_loads(
            streams in prop::collection::vec(
                (1usize..4, 1usize..4, prop::collection::vec((0u64..4, 0u64..60, 0u8..8), 0..12)),
                1..4,
            ),
            depth in prop::option::of(0usize..4),
            deadline in prop::option::of(0u64..150),
            scaling in prop::option::of((1usize..4, 1usize..5)),
            retry in (1usize..4, 0u64..40),
            death in prop::option::of((0u64..400, 0usize..10)),
        ) {
            let mut planner = TilePlanner::new(1, 10);
            let loads: Vec<Load> = streams
                .iter()
                .map(|(replicas, tiles, requests)| {
                    let mut t = 0;
                    let (node, base) = planner.first_fit(*tiles).expect("at most 9 of 10 tiles");
                    Load {
                        arrivals: requests.iter().map(|&(gap, ..)| { t += 10 * gap; t }).collect(),
                        durations: requests.iter().map(|&(_, d, _)| d).collect(),
                        // One request in eight is malformed and excluded.
                        schedulable: (0..requests.len()).filter(|&r| requests[r].2 != 0).collect(),
                        replicas: *replicas,
                        tiles: *tiles,
                        node,
                        base,
                    }
                })
                .collect();
            let policy = scaling.map_or_else(ScalePolicy::default, |(d, m)| ScalePolicy::new(d, m));
            let retry = RetryPolicy::new(retry.0, retry.1);
            let death = death.map(|(cycle, tile)| (cycle, 0, tile));
            let s = schedule_streams(&loads, depth, deadline, &policy, &retry, death, &mut planner);
            for (si, load) in loads.iter().enumerate() {
                let slots = &s.slots[si];
                for (r, slot) in slots.iter().enumerate() {
                    // Every schedulable request ends in exactly one of
                    // served / shed / timed out / failed; excluded ones in none.
                    prop_assert_eq!(slot.is_some(), load.schedulable.contains(&r), "request {}", r);
                    if let (Some(Slot::Served { finish, .. }), Some(d)) = (slot, deadline) {
                        prop_assert!(*finish <= load.arrivals[r] + d, "request {} late", r);
                    }
                }
                let shed = slots.iter().filter(|x| **x == Some(Slot::Shed)).count();
                prop_assert_eq!(s.shed[si], shed);
                // No cycle has more requests in service than live replicas
                // (after that cycle's scaling and recovery steps).
                let spans: Vec<(u64, u64)> =
                    slots.iter().filter_map(|x| x.and_then(Slot::busy_span)).collect();
                let steps: Vec<&RawScaleEvent> =
                    s.events.iter().filter(|e| e.stream == si).collect();
                let live_at = |t: u64| {
                    steps.iter().rev().find(|e| e.cycle <= t).map_or(load.replicas, |e| e.live)
                };
                for t in spans.iter().map(|&(a, _)| a).chain(steps.iter().map(|e| e.cycle)) {
                    let busy = spans.iter().filter(|&&(a, b)| a <= t && t < b).count();
                    let live = live_at(t);
                    prop_assert!(busy <= live, "{} in service on {} replicas at {}", busy, live, t);
                }
                // Fixed replicas without faults start requests FIFO.
                if scaling.is_none() && death.is_none() {
                    let mut starts: Vec<(u64, usize, u64)> = slots
                        .iter()
                        .enumerate()
                        .filter_map(|(r, x)| {
                            Some((load.arrivals[r], r, x.and_then(Slot::busy_span)?.0))
                        })
                        .collect();
                    starts.sort_unstable();
                    prop_assert!(starts.windows(2).all(|w| w[0].2 <= w[1].2), "{:?}", starts);
                }
            }
        }
    }

    #[test]
    fn deadline_aborted_requests_count_toward_max_concurrent() {
        // Two requests arrive together on two timing-mode workers with a
        // deadline of half their service time: both are aborted
        // mid-service, after holding both workers at once.
        let model = tiny_model("watchdog", 16, 1.0);
        let requests = vec![BatchRequest::new(vec![("x".to_string(), vec![0.5; 16])]); 2];
        let serve = |deadline| {
            let options = CompilerOptions::default();
            ServeRunner::new(
                &model,
                &NodeConfig::default(),
                &options,
                SimMode::Timing,
                &NoiseModel::noiseless(),
            )
            .unwrap()
            .with_workers(2)
            .with_deadline(deadline)
            .serve_pattern(&requests, &TrafficPattern::Batch)
            .unwrap()
        };
        let free = serve(None);
        assert_eq!((free.completed(), free.max_concurrent), (2, 2));
        let aborted = serve(Some(free.latency.max / 2));
        assert_eq!((aborted.timed_out, aborted.max_concurrent), (2, 2));
        // A zero deadline expires both on pickup: neither holds a worker.
        let expired = serve(Some(0));
        assert_eq!((expired.timed_out, expired.max_concurrent), (2, 0));
    }

    #[test]
    fn tile_planner_first_fit_fills_gaps_in_order() {
        let mut p = TilePlanner::new(2, 8);
        assert_eq!(p.first_fit(3), Some((0, 0)));
        assert_eq!(p.first_fit(4), Some((0, 3)));
        // 1 tile left on node 0: a 2-tile ask spills to node 1.
        assert_eq!(p.first_fit(2), Some((1, 0)));
        assert_eq!(p.first_fit(1), Some((0, 7)));
        // Releasing the middle allocation reopens its gap for first-fit.
        p.release(0, 3);
        assert_eq!(p.largest_free(), 6);
        assert_eq!(p.first_fit(4), Some((0, 3)));
        assert_eq!(p.first_fit(9), None);
    }

    #[test]
    fn tenant_schedule_single_stream_is_fifo() {
        let loads = [load(vec![0, 4, 8], vec![10, 10, 10], 1)];
        let mut planner = TilePlanner::new(1, 4);
        planner.first_fit(1).unwrap();
        let s = schedule_streams(
            &loads,
            None,
            None,
            &ScalePolicy::default(),
            &RetryPolicy::default(),
            None,
            &mut planner,
        );
        assert_eq!(s.slots[0], vec![served(0, 10), served(10, 20), served(20, 30)]);
        assert_eq!(s.shed[0], 0);
        assert_eq!(s.peak[0], 1);
        assert!(s.events.is_empty());
        assert_eq!(s.attempts[0], vec![1, 1, 1]);
        assert!(!s.slots[0].contains(&Some(Slot::Failed)));
    }

    #[test]
    fn tenant_schedule_sheds_beyond_queue_depth() {
        let loads = [load(vec![0, 1, 2, 3], vec![100; 4], 1)];
        let mut planner = TilePlanner::new(1, 1);
        planner.first_fit(1).unwrap();
        let s = schedule_streams(
            &loads,
            Some(1),
            None,
            &ScalePolicy::default(),
            &RetryPolicy::default(),
            None,
            &mut planner,
        );
        assert_eq!(s.slots[0][0], served(0, 100));
        assert_eq!(s.slots[0][1], served(100, 200));
        assert_eq!(s.slots[0][2], Some(Slot::Shed));
        assert_eq!(s.shed[0], 2);
    }

    #[test]
    fn tenant_schedule_scales_up_at_queue_depth() {
        // One replica busy 0..100; the second waiting request (queue
        // depth 2) triggers a replica that immediately serves the head.
        let loads = [load(vec![0, 1, 2], vec![100; 3], 2)];
        let mut planner = TilePlanner::new(1, 8);
        planner.first_fit(2).unwrap();
        let s = schedule_streams(
            &loads,
            None,
            None,
            &ScalePolicy::new(2, 2),
            &RetryPolicy::default(),
            None,
            &mut planner,
        );
        assert_eq!(s.slots[0][0], served(0, 100));
        // Request 1 queued at t=1; request 2's arrival at t=2 makes the
        // queue reach depth 2 → scale up serves request 1 (the head).
        assert_eq!(s.slots[0][1], served(2, 102));
        assert_eq!(s.peak[0], 2);
        assert_eq!(
            s.events.first(),
            Some(&RawScaleEvent {
                cycle: 2,
                stream: 0,
                slot: 1,
                kind: ScaleDirection::Up,
                live: 2
            })
        );
        // The scaled-up replica drains away once idle with an empty queue.
        let down =
            s.events.iter().find(|e| e.kind == ScaleDirection::Down).expect("replica released");
        assert_eq!(down.live, 1);
    }

    #[test]
    fn tenant_schedule_scale_up_respects_tile_capacity() {
        // No free tiles: the queue deepens but no replica is added.
        let loads = [load(vec![0, 1, 2, 3], vec![100; 4], 1)];
        let mut planner = TilePlanner::new(1, 1);
        planner.first_fit(1).unwrap();
        let s = schedule_streams(
            &loads,
            None,
            None,
            &ScalePolicy::new(1, 4),
            &RetryPolicy::default(),
            None,
            &mut planner,
        );
        assert!(s.events.is_empty());
        assert_eq!(s.peak[0], 1);
        assert_eq!(s.slots[0][3], served(300, 400));
    }

    #[test]
    fn tenant_schedule_tile_death_quarantines_and_fails_over() {
        // One stream deployed on node 0 tiles 0..2; tile 0 dies at
        // cycle 50 while request 0 is in flight. The slot is
        // quarantined (its tiles stay allocated), a failover replica is
        // re-placed onto free tiles, request 1 starts on it at the
        // death cycle, and request 0 retries after one 8-cycle backoff.
        let loads = [load(vec![0, 10], vec![100, 100], 2)];
        let mut planner = TilePlanner::new(1, 8);
        planner.first_fit(2).unwrap();
        let s = schedule_streams(
            &loads,
            None,
            None,
            &ScalePolicy::default(),
            &RetryPolicy::new(2, 8),
            Some((50, 0, 0)),
            &mut planner,
        );
        // Request 1 (queue head at the death) starts on the failover
        // replica immediately; request 0 re-arrives at 50 + 8 and runs
        // after it.
        assert_eq!(s.slots[0][1], served(50, 150));
        assert_eq!(s.slots[0][0], served(150, 250));
        assert_eq!(s.attempts[0], vec![2, 1]);
        assert!(!s.slots[0].contains(&Some(Slot::Failed)));
        let kinds: Vec<ScaleDirection> = s.events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![ScaleDirection::Quarantine, ScaleDirection::Failover]);
        assert_eq!(s.events[0].live, 0);
        assert_eq!(s.events[1].live, 1);
        // The dead deployment's tiles were never released: 2 tiles
        // quarantined + 2 for the failover replica leave 4 of 8 free.
        assert_eq!(planner.largest_free(), 4);
    }

    #[test]
    fn tenant_schedule_retries_exhaust_to_failure() {
        // No spare tiles: the death removes the only replica, failover
        // finds no capacity, and every unserved request fails. The
        // default retry policy (1 attempt) spends the victim's budget
        // immediately.
        let loads = [load(vec![0, 10, 20], vec![100; 3], 2)];
        let mut planner = TilePlanner::new(1, 2);
        planner.first_fit(2).unwrap();
        let s = schedule_streams(
            &loads,
            None,
            None,
            &ScalePolicy::default(),
            &RetryPolicy::default(),
            Some((50, 0, 1)),
            &mut planner,
        );
        assert_eq!(s.slots[0], vec![Some(Slot::Failed); 3]);
        let kinds: Vec<ScaleDirection> = s.events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![ScaleDirection::Quarantine]);
        assert_eq!(s.shed[0], 0);
    }

    #[test]
    fn tenant_schedule_scale_down_never_evicts_inflight_requests() {
        // A burst that scales up, then a long tail on one replica.
        let loads = [load(vec![0, 0, 0, 0, 200, 400], vec![100; 6], 1)];
        let mut planner = TilePlanner::new(1, 4);
        planner.first_fit(1).unwrap();
        let s = schedule_streams(
            &loads,
            None,
            None,
            &ScalePolicy::new(2, 3),
            &RetryPolicy::default(),
            None,
            &mut planner,
        );
        // Everything completes.
        assert!(s.slots[0].iter().all(|w| matches!(w, Some(Slot::Served { .. }))));
        // Slot 0 (the materialized deployment) is never released.
        assert!(s.events.iter().filter(|e| e.kind == ScaleDirection::Down).all(|e| e.slot != 0));
        // A released replica has no request in flight at the release
        // cycle: every request it served finished at or before it.
        for e in s.events.iter().filter(|e| e.kind == ScaleDirection::Down) {
            for (r, slot) in s.replica_of[e.stream].iter().enumerate() {
                if *slot == Some(e.slot) {
                    let (start, finish) = s.slots[e.stream][r].and_then(Slot::busy_span).unwrap();
                    assert!(
                        finish <= e.cycle || start > e.cycle,
                        "slot {} released at {} with request {} in flight ({}..{})",
                        e.slot,
                        e.cycle,
                        r,
                        start,
                        finish
                    );
                }
            }
        }
        // All transient allocations were returned: only the deployment
        // remains, so three more tiles are still allocatable.
        assert_eq!(planner.largest_free(), 3);
    }

    #[test]
    fn catalog_rejects_duplicates_and_bad_names() {
        let mut catalog = catalog_with(&[("m", 1.0)]);
        let cfg = NodeConfig::default();
        let again = compile(&tiny_model("m", 16, 1.0), &cfg, &CompilerOptions::default()).unwrap();
        assert!(catalog.register("m", again.clone()).is_err());
        assert!(catalog.register("a:b", again.clone()).is_err());
        assert!(catalog.register("", again).is_err());
    }

    #[test]
    fn deploy_places_disjoint_allocations_and_rejects_over_capacity() {
        let catalog = catalog_with(&[("a", 1.0), ("b", 2.0), ("c", 3.0)]);
        let mut server =
            TenantServer::functional(catalog, FabricSpec::new(1, 2), &NodeConfig::default())
                .unwrap();
        server.deploy("a").unwrap();
        server.deploy("b").unwrap();
        // Allocations never overlap.
        for (i, d) in server.deployments().iter().enumerate() {
            for e in &server.deployments()[i + 1..] {
                assert!(
                    d.node != e.node || d.base + d.tiles <= e.base || e.base + e.tiles <= d.base,
                    "overlap: {d:?} vs {e:?}"
                );
            }
        }
        // Over-capacity admission fails, naming the model and shortfall.
        let err = server.deploy("c").unwrap_err().to_string();
        assert!(err.contains("'c'") && err.contains("shortfall 1"), "{err}");
        // Re-deploying an already-resident model is rejected.
        assert!(server.deploy("a").is_err());
        // Unknown models are rejected by name.
        assert!(server.deploy("nope").unwrap_err().to_string().contains("'nope'"));
    }

    #[test]
    fn tenant_server_serves_two_residents_with_solo_identical_outputs() {
        let catalog = catalog_with(&[("left", 1.0), ("right", -2.0)]);
        let cfg = NodeConfig::default();
        let mut server = TenantServer::functional(catalog, FabricSpec::new(1, 4), &cfg).unwrap();
        server.deploy("left").unwrap();
        server.deploy("right").unwrap();
        let requests: Vec<BatchRequest> = (0..3)
            .map(|i| BatchRequest::new(vec![("x".to_string(), vec![0.1 * (i + 1) as f32; 16])]))
            .collect();
        let streams = vec![
            TenantStream::new("left", requests.clone(), TrafficPattern::Uniform { interval: 50 }),
            TenantStream::new("right", requests.clone(), TrafficPattern::Uniform { interval: 70 }),
        ];
        let outcome = server.serve(&streams).unwrap();
        assert_eq!(outcome.models.len(), 2);
        for (name, scale) in [("left", 1.0), ("right", -2.0)] {
            let model = outcome.model(name).unwrap();
            assert_eq!(model.completed(), 3);
            assert_eq!(model.shed, 0);
            assert!(model.latency.p50 > 0);
            assert!(model.stats.cycles > 0);
            // Per-tenant outputs on the shared fabric are bit-identical
            // to the model served alone.
            let mut solo = ModelRunner::functional(&tiny_model(name, 16, scale), &cfg).unwrap();
            for (i, served) in model.results.iter().enumerate() {
                let Disposition::Completed { result, .. } = &served.disposition else {
                    panic!("request {i} did not complete");
                };
                let expect = solo.run(&[("x", vec![0.1 * (i + 1) as f32; 16])]).unwrap();
                assert_eq!(result.outputs["y"], expect["y"], "{name} request {i}");
            }
        }
        // Undeployed model streams are rejected by name.
        let bad =
            server.serve(&[TenantStream::new("ghost", vec![], TrafficPattern::Batch)]).unwrap_err();
        assert!(bad.to_string().contains("'ghost'"));
    }

    #[test]
    fn deploy_after_serve_rebuilds_the_fabric() {
        // The first serve builds the fabric prototype; a later deploy
        // must drop it. The first two residents keep their outputs and
        // per-request stats, and the new one matches its solo run.
        let cfg = NodeConfig::default();
        let input = |i: usize| vec![0.1 * (i + 1) as f32; 16];
        let requests: Vec<BatchRequest> =
            (0..3).map(|i| BatchRequest::new(vec![("x".to_string(), input(i))])).collect();
        let stream = |name: &str, interval: u64| {
            TenantStream::new(name, requests.clone(), TrafficPattern::Uniform { interval })
        };
        let completed = |outcome: &TenantOutcome, name: &str| -> Vec<_> {
            let model = outcome.model(name).unwrap();
            assert_eq!(model.completed(), 3, "{name}");
            model
                .results
                .iter()
                .map(|served| match &served.disposition {
                    Disposition::Completed { result, .. } => {
                        (result.outputs.clone(), result.stats.clone())
                    }
                    other => panic!("{name}: {other:?}"),
                })
                .collect()
        };
        for engine in [SimEngine::Reference, SimEngine::Compiled] {
            for threads in [1, 3] {
                let catalog = catalog_with(&[("left", 1.0), ("right", -2.0), ("late", 0.5)]);
                let mut server = TenantServer::functional(catalog, FabricSpec::new(1, 4), &cfg)
                    .unwrap()
                    .with_engine(engine)
                    .with_host_threads(threads);
                server.deploy("left").unwrap();
                server.deploy("right").unwrap();
                let first = server.serve(&[stream("left", 50), stream("right", 70)]).unwrap();
                server.deploy("late").unwrap();
                let second = server
                    .serve(&[stream("left", 50), stream("right", 70), stream("late", 90)])
                    .unwrap();
                for name in ["left", "right"] {
                    assert_eq!(
                        completed(&first, name),
                        completed(&second, name),
                        "{engine:?} x{threads}: {name}"
                    );
                }
                let mut solo = ModelRunner::functional(&tiny_model("late", 16, 0.5), &cfg).unwrap();
                for (i, (outputs, _)) in completed(&second, "late").iter().enumerate() {
                    let expect = solo.run(&[("x", input(i))]).unwrap();
                    assert_eq!(outputs["y"], expect["y"], "{engine:?} x{threads}: request {i}");
                }
            }
        }
    }

    #[test]
    fn latency_summary_nearest_rank() {
        let s = LatencySummary::from_latencies((1..=100).collect());
        assert_eq!(s.p50, 50);
        assert_eq!(s.p95, 95);
        assert_eq!(s.p99, 99);
        assert_eq!(s.max, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert_eq!(LatencySummary::from_latencies(vec![]), LatencySummary::default());
    }

    #[test]
    fn latency_summary_mean_survives_u64_overflow() {
        // Eight latencies near the cycle cap: the u64 sum wraps (8 ×
        // 2^63 > 2^64) and a wrapped mean would come out near zero.
        let lat = u64::MAX / 2;
        let s = LatencySummary::from_latencies(vec![lat; 8]);
        let want = lat as f64;
        assert!(
            (s.mean - want).abs() <= want * 1e-12,
            "mean silently wrapped: {} vs {}",
            s.mean,
            want
        );
        assert_eq!(s.max, lat);
    }
}
