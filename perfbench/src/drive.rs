//! Closed-loop clients: each sends its next request only after the
//! previous reply is complete. With tracing on, every loopback request is
//! followed by an in-process replay of the same request, timed layer by
//! layer through the service's public entry points.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nanoxbar_engine::{
    BackendRegistry, Engine, Error, Job, JobResult, Mapper, ResultCache, SynthesisBackend,
    SynthesisContext, Technology,
};
use nanoxbar_logic::TruthTable;
use nanoxbar_service::{result_to_json, JobSpec, Json, Service};

use crate::client::Conn;
use crate::stats::WINDOWS;
use crate::trace::{nanos_since, Tracer};
use crate::workload::{Endpoint, Plan, Req};

/// Closed-loop clients per run (the box has two cores).
pub const CLIENTS: u64 = 2;

/// FNV-1a, 64-bit: the body fingerprint the correctness gate compares.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Latencies that completed in one stretch of a phase, in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct Window {
    /// Every answered request except streamed batches: send to last byte.
    pub plain: Vec<f32>,
    /// Streamed batches: send to the last chunk.
    pub stream_total: Vec<f32>,
    /// Streamed batches: send to the first complete slot.
    pub first_slot: Vec<f32>,
    /// Job slots answered.
    pub slots: u64,
}

/// What the server answered to one distinct request body, for the gate.
/// Repeats of a body (hot-cached cycles through its job set) are folded
/// in, so memory does not grow with throughput.
#[derive(Clone, Debug)]
pub struct Served {
    /// Client that first sent the body.
    pub client: u64,
    /// Its index in that client's request stream.
    pub index: u64,
    /// Fingerprint of the first (de-chunked) answer.
    pub body_hash: u64,
    /// Length of the first answer.
    pub body_len: usize,
    /// Whether the body asked for a streamed response.
    pub stream: bool,
    /// Whether the first answer arrived chunked.
    pub chunked: bool,
    /// Answers with status 200, repeats included.
    pub answers: u64,
    /// Repeats whose answer differed from the first.
    pub inconsistent: u64,
}

impl Served {
    /// Folds another answer to the same request body into this one.
    fn merge(&mut self, other: &Served) {
        if (other.body_hash, other.body_len, other.chunked)
            != (self.body_hash, self.body_len, self.chunked)
        {
            self.inconsistent += other.answers;
        }
        self.answers += other.answers;
        self.inconsistent += other.inconsistent;
        if (other.client, other.index) < (self.client, self.index) {
            (self.client, self.index) = (other.client, other.index);
        }
    }
}

/// The outcome of one closed-loop phase.
#[derive(Default)]
pub struct Phase {
    /// Latencies by completion time, in [`stats::WINDOWS`] equal stretches
    /// of the phase (the last one also holds requests that overran it).
    ///
    /// [`stats::WINDOWS`]: crate::stats::WINDOWS
    pub windows: Vec<Window>,
    /// Distinct answered request bodies.
    pub served: Vec<Served>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests not answered or answered with a status other than 200.
    pub refused: u64,
    /// Nominal phase length.
    pub duration: Duration,
    /// Wall time the phase ran.
    pub wall: Duration,
    /// Next unsent index per client.
    pub next: Vec<u64>,
    /// Spans of the traced replay (empty when untraced).
    pub spans: Vec<crate::trace::Span>,
    /// Replayed requests whose stage-by-stage body differed from the
    /// in-process `Service::handle` body.
    pub replay_mismatches: usize,
}

/// Kernel spans captured inside `Engine::run_batch` by [`TracedBackend`].
type KernelSink = Arc<Mutex<Vec<(&'static str, u64, u64)>>>;

/// A synthesis backend that times each call of the backend it wraps.
/// Registered under the same name, so cache keys, results and bodies are
/// those of the unwrapped backend.
struct TracedBackend {
    inner: Arc<dyn SynthesisBackend>,
    span: &'static str,
    epoch: Instant,
    sink: KernelSink,
}

impl SynthesisBackend for TracedBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn technology(&self) -> Technology {
        self.inner.technology()
    }

    fn synthesize(
        &self,
        f: &TruthTable,
        ctx: &SynthesisContext,
    ) -> Result<nanoxbar_engine::Realization, Error> {
        let start = nanos_since(self.epoch, Instant::now());
        let result = self.inner.synthesize(f, ctx);
        let end = nanos_since(self.epoch, Instant::now());
        self.sink
            .lock()
            .expect("kernel sink holders never panic")
            .push((self.span, start, end));
        result
    }
}

/// The per-layer span name of each synthesis strategy's kernel.
pub fn kernel_span(strategy: &str) -> &'static str {
    match strategy {
        "diode" => "crossbar.diode",
        "fet" => "crossbar.fet",
        "dual-lattice" => "lattice.dual",
        "optimal-lattice" => "sat.optimal_lattice",
        "bdd" => "bddsynth.compile",
        _ => "kernel.other",
    }
}

/// What the traced replay runs against: an identically warmed service
/// twin for `Service::handle`, and per client an engine whose backends
/// are wrapped in [`TracedBackend`].
pub struct TraceSetup {
    /// The in-process service twin.
    pub twin: Arc<Service>,
    /// One replay engine per client, each with its kernel sink.
    engines: Vec<(Engine, KernelSink)>,
    epoch: Instant,
}

impl TraceSetup {
    /// Builds the replay engines over caches of `cache_capacity`, warmed
    /// with `warm` (the hot-cached job set).
    pub fn new(twin: Arc<Service>, cache_capacity: usize, warm: &[Req], epoch: Instant) -> Self {
        let registry = BackendRegistry::with_defaults();
        let engines = (0..CLIENTS)
            .map(|_| {
                let sink: KernelSink = Arc::default();
                let mut builder =
                    Engine::builder().shared_cache(Arc::new(ResultCache::new(cache_capacity)));
                for name in registry.names() {
                    let inner = registry
                        .get(&name)
                        .expect("listed backends resolve")
                        .clone();
                    builder = builder.backend(Arc::new(TracedBackend {
                        inner,
                        span: kernel_span(&name),
                        epoch,
                        sink: sink.clone(),
                    }));
                }
                let engine = builder.build().expect("default strategies are registered");
                for req in warm {
                    let (jobs, _, _) = decode(req).expect("generated requests decode");
                    engine.run_batch(&jobs);
                }
                sink.lock()
                    .expect("kernel sink holders never panic")
                    .clear();
                (engine, sink)
            })
            .collect();
        TraceSetup {
            twin,
            engines,
            epoch,
        }
    }
}

/// Stage 1 of the replay: JSON parse and spec lowering, exactly as the
/// service does it for these bodies. Returns the jobs, which of them map
/// onto a chip, and whether the response is a batch envelope.
pub fn decode(req: &Req) -> Result<(Vec<Job>, Vec<bool>, bool), String> {
    let json = Json::parse(&req.body).map_err(|e| e.to_string())?;
    let (specs, batch) = match req.endpoint {
        Endpoint::Batch => (
            json.get("jobs")
                .and_then(Json::as_array)
                .ok_or("batch without jobs")?
                .iter()
                .map(JobSpec::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            true,
        ),
        _ => (vec![JobSpec::from_json(&json)?], false),
    };
    let jobs = specs
        .iter()
        .map(JobSpec::to_job)
        .collect::<Result<Vec<_>, _>>()?;
    Ok((
        jobs,
        specs.iter().map(|spec| spec.map.is_some()).collect(),
        batch,
    ))
}

/// The engine runs BISM mapping, MVM execution and shared-BDD
/// compilation itself, with no backend to wrap. After the request's
/// `run_batch`, the replay calls each of those kernels directly on the
/// same job and records the call as a `replay.*` span caused by that
/// `run_batch` (its interval lies after it, so it is subtracted from the
/// engine's self time by duration, not by interval). Duplicate jobs in a
/// batch run their synthesis once but map and execute per slot, and so
/// are replayed the same way.
fn replay_engine_kernels(
    tracer: &mut Tracer,
    engine: &Engine,
    jobs: &[Job],
    maps: &[bool],
    rid: u64,
    run_batch: u64,
) {
    let record = |tracer: &mut Tracer, name, work: &mut dyn FnMut()| {
        let start = tracer.now();
        work();
        let end = tracer.now();
        tracer.record(name, rid, Some(run_batch), start, end);
    };
    let mut compiled: Vec<&[TruthTable]> = Vec::new();
    for (job, &map) in jobs.iter().zip(maps) {
        if let Some(spec) = job.mvm_spec() {
            record(tracer, "replay.mvm.execute", &mut || {
                let targets = nanoxbar_mvm::program(
                    &spec.weights,
                    spec.rows,
                    spec.cols,
                    nanoxbar_mvm::ConductanceParams::default(),
                );
                std::hint::black_box(nanoxbar_mvm::execute(spec, &targets).ok());
            });
        } else if map {
            // The synthesis half of a map job already ran under a traced
            // backend; only the BISM search is replayed.
            let Ok(setup) = engine.prepare_map(job) else {
                continue;
            };
            record(tracer, "replay.reliability.map", &mut || {
                let mut mapper = Mapper::new(setup.app.clone(), setup.chip.clone(), setup.config);
                std::hint::black_box(mapper.run());
            });
        } else if let Some(outputs) = job.multi_outputs() {
            if !compiled.contains(&outputs) {
                compiled.push(outputs);
                record(tracer, "replay.bddsynth.compile", &mut || {
                    std::hint::black_box(nanoxbar_bddsynth::compile_multi(outputs).ok());
                });
            }
        }
    }
}

/// Stage 3 of the replay: the wire encoding of the engine's results.
fn encode(results: &[Result<JobResult, Error>], batch: bool) -> String {
    if batch {
        let rendered: Vec<Json> = results.iter().map(result_to_json).collect();
        Json::Object(vec![
            ("count".into(), Json::from(rendered.len())),
            ("results".into(), Json::Array(rendered)),
        ])
        .encode()
    } else {
        result_to_json(&results[0]).encode()
    }
}

/// The handle span's name for an endpoint.
pub fn handle_span(endpoint: Endpoint) -> &'static str {
    match endpoint {
        Endpoint::Synthesize => "service.server.handle_synthesize",
        Endpoint::Map => "service.server.handle_map",
        Endpoint::Mvm => "service.server.handle_mvm",
        Endpoint::Batch => "service.server.handle_batch",
    }
}

/// Replays one request in-process and records its layer spans under
/// `root`. Returns whether the stage-by-stage body matched the service's.
fn replay(
    tracer: &mut Tracer,
    setup: &TraceSetup,
    client: usize,
    rid: u64,
    root: u64,
    req: &Req,
) -> bool {
    let request = req.http();
    let start = tracer.now();
    let response = setup.twin.handle(&request);
    let end = tracer.now();
    tracer.record(handle_span(req.endpoint), rid, Some(root), start, end);

    let (engine, sink) = &setup.engines[client];
    let pipeline = tracer.reserve();
    let pipeline_start = tracer.now();
    let (jobs, maps, batch) = decode(req).expect("generated requests decode");
    let decoded = tracer.now();
    tracer.record(
        "service.api.decode",
        rid,
        Some(pipeline),
        pipeline_start,
        decoded,
    );
    let results = engine.run_batch(&jobs);
    let ran = tracer.now();
    let run_batch = tracer.record("engine.run_batch", rid, Some(pipeline), decoded, ran);
    for (name, start, end) in sink
        .lock()
        .expect("kernel sink holders never panic")
        .drain(..)
    {
        tracer.record(name, rid, Some(run_batch), start, end);
    }
    let body = encode(&results, batch);
    let encoded = tracer.now();
    tracer.record("service.wire.encode", rid, Some(pipeline), ran, encoded);
    tracer.record_as(
        pipeline,
        "service.pipeline",
        rid,
        Some(root),
        pipeline_start,
        encoded,
    );
    replay_engine_kernels(tracer, engine, &jobs, &maps, rid, run_batch);
    body.as_bytes() == response.body.as_slice()
}

/// One client's share of a phase.
struct ClientRun {
    windows: Vec<Window>,
    served: HashMap<u64, Served>,
    attempted: u64,
    refused: u64,
    next: u64,
    tracer: Tracer,
    replay_mismatches: usize,
}

/// Runs `CLIENTS` closed-loop clients against `addr` for `duration`,
/// client `c` starting at request index `start[c]`.
pub fn drive(
    addr: SocketAddr,
    plan: &Plan,
    start: &[u64],
    duration: Duration,
    tracing: Option<&TraceSetup>,
) -> Phase {
    let began = Instant::now();
    let window_ns = (duration.as_nanos() as u64 / WINDOWS as u64).max(1);
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let first = start[client as usize];
                scope.spawn(move || {
                    let epoch = tracing.map_or(began, |t| t.epoch);
                    let mut run = ClientRun {
                        windows: vec![Window::default(); WINDOWS],
                        served: HashMap::new(),
                        attempted: 0,
                        refused: 0,
                        next: first,
                        tracer: Tracer::new(epoch, client),
                        replay_mismatches: 0,
                    };
                    let mut conn = Conn::connect(addr).ok();
                    while began.elapsed() < duration {
                        let index = run.next;
                        run.next += 1;
                        run.attempted += 1;
                        let req = plan.request(client, index);
                        let rid = (client << 32) | index;
                        let root = run.tracer.reserve();
                        let root_start = run.tracer.now();
                        let reply = conn.as_mut().and_then(|c| {
                            c.request("POST", req.endpoint.path(), req.body.as_bytes())
                                .ok()
                        });
                        let loop_end = run.tracer.now();
                        match reply {
                            Some(reply) if reply.status == 200 => {
                                let done = began.elapsed().as_nanos() as u64;
                                let window = &mut run.windows
                                    [((done / window_ns) as usize).min(WINDOWS - 1)];
                                let ms = |d: Duration| (d.as_secs_f64() * 1e3) as f32;
                                if req.stream {
                                    window.stream_total.push(ms(reply.total));
                                    window.first_slot.push(ms(reply.first_slot));
                                } else {
                                    window.plain.push(ms(reply.total));
                                }
                                window.slots += req.slots as u64;
                                let answer = Served {
                                    client,
                                    index,
                                    body_hash: fnv(&reply.body),
                                    body_len: reply.body.len(),
                                    stream: req.stream,
                                    chunked: reply.chunked,
                                    answers: 1,
                                    inconsistent: 0,
                                };
                                run.served
                                    .entry(fnv(req.body.as_bytes()))
                                    .and_modify(|seen| seen.merge(&answer))
                                    .or_insert(answer);
                            }
                            Some(_) => run.refused += 1,
                            // The connection's state is unknown after an
                            // error: start a fresh one.
                            None => {
                                run.refused += 1;
                                conn = Conn::connect(addr).ok();
                            }
                        }
                        if let Some(setup) = tracing {
                            let tracer = &mut run.tracer;
                            tracer.record("net.loopback", rid, Some(root), root_start, loop_end);
                            if !replay(tracer, setup, client as usize, rid, root, &req) {
                                run.replay_mismatches += 1;
                            }
                            let root_end = tracer.now();
                            tracer.record_as(root, "request", rid, None, root_start, root_end);
                        }
                    }
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let mut phase = Phase {
        windows: vec![Window::default(); WINDOWS],
        duration,
        wall: began.elapsed(),
        ..Phase::default()
    };
    let mut served: HashMap<u64, Served> = HashMap::new();
    for run in runs {
        for (merged, window) in phase.windows.iter_mut().zip(run.windows) {
            merged.plain.extend(window.plain);
            merged.stream_total.extend(window.stream_total);
            merged.first_slot.extend(window.first_slot);
            merged.slots += window.slots;
        }
        for (key, answer) in run.served {
            served
                .entry(key)
                .and_modify(|seen| seen.merge(&answer))
                .or_insert(answer);
        }
        phase.attempted += run.attempted;
        phase.refused += run.refused;
        phase.next.push(run.next);
        phase.spans.extend(run.tracer.spans);
        phase.replay_mismatches += run.replay_mismatches;
    }
    phase.served = served.into_values().collect();
    phase.served.sort_by_key(|s| (s.client, s.index));
    phase
}
