//! Layered serving benchmark for the nanoxbar HTTP service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot-cached|cold-mix|batch-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Boots the real `Server` in-process on an ephemeral port and drives it
//! with two closed-loop keep-alive clients. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs half the time untraced and half
//! traced, and reports the per-layer metrics. Both check every body
//! against an in-process reference, print a human-readable table, and end
//! with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! Run from the repository root; state and span dumps go under
//! `.bench_state/` and `.bench_out/` there.

mod client;
mod drive;
mod gate;
mod kernels;
mod stats;
mod trace;
mod workload;

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nanoxbar_engine::CacheStats;
use nanoxbar_par::PoolStats;
use nanoxbar_service::{Server, ServerHandle, Service, ServiceConfig};

use client::Conn;
use drive::{drive, Phase, TraceSetup};
use stats::Summary;
use workload::{Endpoint, Plan, Workload};

/// Workload seed when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;

/// Most spans written to the dump (hot-cached traces ~400k per run; the
/// per-layer figures use them all).
const DUMPED_SPANS: usize = 50_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::HotCached,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "bad --seconds")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// A directory removed (with its contents) when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(path: PathBuf) -> ScratchDir {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("the checkout is writable");
        ScratchDir(path)
    }

    fn sub(&self, name: &str) -> PathBuf {
        let path = self.0.join(name);
        std::fs::create_dir_all(&path).expect("the checkout is writable");
        path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---------------------------------------------------------------- baselines

/// Nanoseconds per iteration of an empty counted loop (median of 7).
fn empty_loop_ns() -> f64 {
    const ITERS: u64 = 2_000_000;
    let runs: Vec<f64> = (0..7)
        .map(|_| {
            let start = Instant::now();
            let mut acc = 0u64;
            for i in 0..ITERS {
                acc = std::hint::black_box(acc.wrapping_add(i));
            }
            std::hint::black_box(acc);
            start.elapsed().as_nanos() as f64 / ITERS as f64
        })
        .collect();
    stats::median(&runs)
}

/// Median microseconds of a one-byte loopback TCP round trip.
fn pingpong_us() -> f64 {
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    const ROUNDS: usize = 2000;
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback binds");
    let addr = listener.local_addr().expect("bound socket has an address");
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let (mut peer, _) = listener.accept().expect("ping-pong accept");
            peer.set_nodelay(true).expect("nodelay");
            let mut byte = [0u8; 1];
            while peer.read_exact(&mut byte).is_ok() {
                if peer.write_all(&byte).is_err() {
                    break;
                }
            }
        });
        let mut stream = TcpStream::connect(addr).expect("ping-pong connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut byte = [7u8; 1];
        let mut rounds = Vec::with_capacity(ROUNDS);
        for round in 0..ROUNDS + 100 {
            let start = Instant::now();
            stream.write_all(&byte).expect("ping");
            stream.read_exact(&mut byte).expect("pong");
            if round >= 100 {
                rounds.push(start.elapsed().as_secs_f64() * 1e6);
            }
        }
        drop(stream);
        stats::median(&rounds)
    })
}

/// Peak resident memory of this process in MiB (`VmHWM`).
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ------------------------------------------------------------------ serving

/// Server configuration per workload. Cache capacities are weight
/// budgets (≈ crosspoints): hot-cached holds its whole job set, cold-mix
/// holds far less than its working set, batch-mixed uses the default.
fn config(workload: Workload, state_dir: Option<PathBuf>) -> ServiceConfig {
    let defaults = ServiceConfig::default();
    ServiceConfig {
        addr: "127.0.0.1:0".into(),
        cache_capacity: match workload {
            Workload::HotCached => 1 << 20,
            Workload::ColdMix => 4096,
            Workload::BatchMixed => defaults.cache_capacity,
        },
        state_dir,
        ..defaults
    }
}

/// Binds and starts a server, then waits for the first successful
/// `GET /healthz`. Returns the handle and the elapsed set-up time.
fn boot(config: &ServiceConfig) -> (ServerHandle, f64) {
    let started = Instant::now();
    let server = Server::bind(config.clone()).expect("the server binds and replays its state");
    let handle = server.start().expect("the server starts");
    loop {
        let answered = Conn::connect(handle.addr())
            .and_then(|mut conn| conn.request("GET", "/healthz", b""))
            .is_ok_and(|reply| reply.status == 200);
        if answered {
            return (handle, started.elapsed().as_secs_f64());
        }
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "server never answered /healthz"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Handles every hot job on an in-process service persisting to `dir`,
/// leaving one durable cache record per job there.
fn prime(dir: &Path, plan: &Plan) {
    let service = Service::new(&config(Workload::HotCached, Some(dir.to_path_buf())))
        .expect("the priming service boots");
    for req in &plan.hot {
        let response = service.handle(&req.http());
        assert_eq!(response.status, 200, "priming requests succeed");
    }
    service.shutdown_state();
}

fn copy_dir(from: &Path, to: &Path) {
    for entry in std::fs::read_dir(from).expect("state dir lists") {
        let entry = entry.expect("state dir entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("state file copies");
    }
}

/// Server-side counters, snapshotted around a phase.
#[derive(Clone, Copy, Default)]
struct Counters {
    cache: CacheStats,
    pool: PoolStats,
    wakeups: u64,
    jobs: u64,
}

fn counters(service: &Service) -> Counters {
    let metrics = service.metrics();
    Counters {
        cache: service.cache_stats().unwrap_or_default(),
        pool: nanoxbar_par::pool_stats(),
        wakeups: metrics.reactor_wakeups.load(Ordering::Relaxed),
        jobs: metrics.jobs.load(Ordering::Relaxed),
    }
}

// ------------------------------------------------------------------ metrics

/// The latency populations of a phase: `latency` covers every answered
/// request except streamed batches; `stream_total`/`first_slot` cover
/// streamed batches, or — on workloads without them, where every
/// response is one complete slot — the same requests as `latency`. Each
/// is summarised over consecutive windows of the run
/// ([`Summary::windowed`]).
struct Latencies {
    latency: Summary,
    stream_total: Summary,
    first_slot: Summary,
    slots: u64,
    /// Slots completed per second: the `1 - QUIET` quantile over the
    /// [`stats::WINDOWS`] equal stretches of the phase.
    jobs_per_s: f64,
}

fn latencies(phase: &Phase) -> Latencies {
    let windows = |pick: fn(&drive::Window) -> &Vec<f32>| -> Vec<Vec<f32>> {
        phase.windows.iter().map(|w| pick(w).clone()).collect()
    };
    let latency = Summary::windowed(&windows(|w| &w.plain));
    let (stream_total, first_slot) = if phase.windows.iter().all(|w| w.stream_total.is_empty()) {
        (latency, latency)
    } else {
        (
            Summary::windowed(&windows(|w| &w.stream_total)),
            Summary::windowed(&windows(|w| &w.first_slot)),
        )
    };
    // Window k covers [k, k+1) of duration/WINDOWS; the last one also
    // holds the requests that overran the nominal phase length.
    let window = phase.duration.as_secs_f64() / stats::WINDOWS as f64;
    let last = (phase.wall.as_secs_f64() - window * (stats::WINDOWS - 1) as f64).max(window);
    let rates: Vec<f64> = phase
        .windows
        .iter()
        .enumerate()
        .map(|(k, w)| {
            let length = if k + 1 == phase.windows.len() {
                last
            } else {
                window
            };
            w.slots as f64 / length
        })
        .collect();
    Latencies {
        latency,
        stream_total,
        first_slot,
        slots: phase.windows.iter().map(|w| w.slots).sum(),
        // Interference only ever lowers throughput: the quiet end over
        // windows, as for the latencies (`Summary::windowed`).
        jobs_per_s: stats::quantile(&rates, 1.0 - stats::QUIET),
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

fn tail_note(summary: &Summary) -> String {
    format!(
        "n={}{}",
        summary.n,
        if summary.p99_supported {
            ""
        } else {
            " (fewer than 10 samples beyond p99)"
        }
    )
}

fn end_to_end(phase: &Phase, setups: &[f64], rss_peak_mb: f64) -> Vec<Metric> {
    let l = latencies(phase);
    let mut out = vec![
        // Interference only ever adds time: the quiet end, as for the
        // latencies.
        Metric {
            note: format!("quiet end of {} boots", setups.len()),
            ..metric("setup_s", stats::quantile(setups, stats::QUIET), "s")
        },
        Metric {
            note: format!(
                "{} slots in {:.3} s; quiet end of {} windows",
                l.slots,
                phase.wall.as_secs_f64(),
                stats::WINDOWS
            ),
            ..metric("jobs_per_s", l.jobs_per_s, "1/s")
        },
    ];
    for (p50, p99, summary) in [
        ("latency_p50_ms", "latency_p99_ms", &l.latency),
        (
            "stream_total_p50_ms",
            "stream_total_p99_ms",
            &l.stream_total,
        ),
        ("first_slot_p50_ms", "first_slot_p99_ms", &l.first_slot),
    ] {
        out.push(Metric {
            note: format!("n={}", summary.n),
            ..metric(p50, summary.p50, "ms")
        });
        out.push(Metric {
            note: tail_note(summary),
            ..metric(p99, summary.p99, "ms")
        });
    }
    out.push(metric("rss_peak_mb", rss_peak_mb, "MB"));
    out
}

/// Per-request self time of each layer, from the traced phase.
struct LayerTable {
    rows: Vec<(String, f64)>,
    loopback_mean_us: f64,
}

/// Rows in request order. The first two are differences of means between
/// separately timed calls (the loopback request, then `Service::handle`
/// on the twin, then the stage-by-stage replay), so noise can push them
/// below zero; the rest are span self times.
fn layer_table(spans: &[trace::Span], selfs: &[u64], requests: usize) -> LayerTable {
    let per_request = |total_ns: f64| total_ns / 1e3 / requests.max(1) as f64;
    let mut totals: BTreeMap<&str, f64> = BTreeMap::new();
    let mut loopback = 0.0;
    let mut handle = 0.0;
    let mut pipeline = 0.0;
    for (span, &self_ns) in spans.iter().zip(selfs) {
        match span.name {
            "net.loopback" => loopback += span.duration() as f64,
            "request" => {}
            name if name.starts_with("service.server.handle_") => handle += span.duration() as f64,
            name => {
                if name == "service.pipeline" {
                    pipeline += span.duration() as f64;
                }
                *totals.entry(name).or_default() += self_ns as f64;
            }
        }
    }
    let mut rows = vec![
        (
            "service.reactor+http (loopback - handle)".to_string(),
            per_request(loopback - handle),
        ),
        (
            "service.server (handle - replay)".to_string(),
            per_request(handle - pipeline),
        ),
    ];
    let replayed: f64 = totals
        .iter()
        .filter(|(name, _)| name.starts_with("replay."))
        .map(|(_, ns)| ns)
        .sum();
    for name in ["service.pipeline", "service.api.decode", "engine.run_batch"] {
        let mut ns = totals.remove(name).unwrap_or(0.0);
        if name == "engine.run_batch" {
            ns -= replayed;
        }
        rows.push((format!("{name} (self)"), per_request(ns)));
    }
    let encode = totals.remove("service.wire.encode").unwrap_or(0.0);
    // What remains are the kernels under `engine.run_batch`.
    rows.extend(
        totals
            .into_iter()
            .map(|(name, ns)| (format!("{name} (kernel)"), per_request(ns))),
    );
    rows.push((
        "service.wire.encode (self)".to_string(),
        per_request(encode),
    ));
    LayerTable {
        rows,
        loopback_mean_us: per_request(loopback),
    }
}

fn p50_us<'a>(durations: impl Iterator<Item = &'a u64>) -> f64 {
    let values: Vec<f64> = durations.map(|&ns| ns as f64 / 1e3).collect();
    stats::median(&values)
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    untraced: &Phase,
    traced: &Phase,
    before: Counters,
    after: Counters,
    high_water: u64,
    healthz_us: f64,
    pingpong: f64,
    empty_loop: f64,
    kernels: &kernels::KernelTimes,
    replayed: u64,
    log_bytes: u64,
    fail_ratio: f64,
) -> (Vec<Metric>, LayerTable) {
    let spans = &traced.spans;
    let selfs = trace::self_times(spans);
    let requests = spans.iter().filter(|s| s.name == "request").count();
    let durations = |pred: &dyn Fn(&str) -> bool| -> Vec<u64> {
        spans
            .iter()
            .filter(|s| pred(s.name))
            .map(trace::Span::duration)
            .collect()
    };
    let self_of = |pred: &dyn Fn(&str) -> bool| -> Vec<u64> {
        spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| pred(s.name))
            .map(|(_, &t)| t)
            .collect()
    };
    let untraced_p50 = latencies(untraced).latency.p50;
    let traced_p50 = latencies(traced).latency.p50;
    // The socket layers' share: the untraced end-to-end p50 minus the
    // in-process `Service::handle` p50. The untraced side keeps the
    // replay's own CPU use out of the loopback figure.
    let handle = p50_us(durations(&|n| n.starts_with("service.server.handle_")).iter());
    let reactor_self = untraced_p50 * 1e3 - handle;
    let is_kernel = |n: &str| {
        [
            "crossbar.",
            "lattice.",
            "sat.",
            "bddsynth.",
            "kernel.",
            "replay.",
        ]
        .iter()
        .any(|p| n.starts_with(p))
    };
    let kernel_self: u64 = self_of(&is_kernel).iter().sum();
    // Engine self time nets out the directly replayed kernels of the same
    // run_batch (see `drive::replay_engine_kernels`).
    let mut replayed_under: HashMap<u64, u64> = HashMap::new();
    for span in spans.iter().filter(|s| s.name.starts_with("replay.")) {
        if let Some(parent) = span.parent {
            *replayed_under.entry(parent).or_default() += span.duration();
        }
    }
    let engine_self: Vec<u64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "engine.run_batch")
        .map(|(s, &t)| t.saturating_sub(replayed_under.get(&s.id).copied().unwrap_or(0)))
        .collect();

    let requests_a = untraced.attempted.max(1) as f64;
    let cache_hits = after.cache.hits - before.cache.hits;
    let cache_misses = after.cache.misses - before.cache.misses;
    let tasks = (after.pool.tasks_executed - before.pool.tasks_executed) as f64;
    let jobs = (after.jobs - before.jobs).max(1) as f64;

    let mut out = vec![
        metric("net.pingpong_us", pingpong, "us"),
        metric("box.empty_loop_ns", empty_loop, "ns"),
        metric("service.reactor.self_us", reactor_self, "us"),
        metric(
            "service.reactor.self_per_pingpong",
            reactor_self / pingpong,
            "ratio",
        ),
        metric("service.reactor.healthz_rtt_us", healthz_us, "us"),
        metric(
            "service.reactor.wakeups_per_req",
            (after.wakeups - before.wakeups) as f64 / requests_a,
            "count",
        ),
        metric(
            "service.reactor.write_high_water_bytes",
            high_water as f64,
            "bytes",
        ),
    ];
    for endpoint in [
        Endpoint::Synthesize,
        Endpoint::Map,
        Endpoint::Mvm,
        Endpoint::Batch,
    ] {
        let name = drive::handle_span(endpoint);
        out.push(metric(
            match endpoint {
                Endpoint::Synthesize => "service.server.handle_synthesize_us",
                Endpoint::Map => "service.server.handle_map_us",
                Endpoint::Mvm => "service.server.handle_mvm_us",
                Endpoint::Batch => "service.server.handle_batch_us",
            },
            p50_us(durations(&|n| n == name).iter()),
            "us",
        ));
    }
    out.extend([
        metric(
            "service.api.decode_us",
            p50_us(durations(&|n| n == "service.api.decode").iter()),
            "us",
        ),
        metric(
            "service.wire.encode_us",
            p50_us(durations(&|n| n == "service.wire.encode").iter()),
            "us",
        ),
        metric(
            "engine.run_batch_us",
            p50_us(durations(&|n| n == "engine.run_batch").iter()),
            "us",
        ),
        metric("engine.self_us", p50_us(engine_self.iter()), "us"),
        metric(
            "engine.cache_hit_ratio",
            if cache_hits + cache_misses == 0 {
                0.0
            } else {
                cache_hits as f64 / (cache_hits + cache_misses) as f64
            },
            "ratio",
        ),
        metric("engine.cache_misses", cache_misses as f64, "count"),
        metric(
            "engine.cache_evictions",
            (after.cache.evictions - before.cache.evictions) as f64,
            "count",
        ),
        metric("par.tasks_per_job", tasks / jobs, "count"),
        metric(
            "par.steal_ratio",
            if tasks == 0.0 {
                0.0
            } else {
                (after.pool.steals - before.pool.steals) as f64 / tasks
            },
            "ratio",
        ),
    ]);
    for (name, kernel) in [
        ("crossbar.diode_us", "crossbar.diode"),
        ("crossbar.fet_us", "crossbar.fet"),
        ("lattice.dual_us", "lattice.dual"),
        ("sat.optimal_lattice_us", "sat.optimal_lattice"),
        ("bddsynth.compile_us", "bddsynth.compile"),
        ("reliability.map_us", "reliability.map"),
        ("mvm.execute_us", "mvm.execute"),
        ("lattice.verify_us", "lattice.verify"),
    ] {
        out.push(Metric {
            note: format!(
                "{} direct calls",
                kernels.calls.get(kernel).map_or(0, Vec::len)
            ),
            ..metric(name, kernels.median_us(kernel), "us")
        });
    }
    out.extend([
        metric("mvm.gflops", kernels.mvm_gflops(), "GFLOP/s"),
        metric(
            "kernels.request_path_self_us",
            kernel_self as f64 / 1e3 / requests.max(1) as f64,
            "us",
        ),
        metric("service.persist.replay_records", replayed as f64, "count"),
        metric("service.persist.log_bytes", log_bytes as f64, "bytes"),
        metric(
            "trace.overhead_pct",
            (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
            "%",
        ),
        metric("trace.spans", spans.len() as f64, "count"),
        metric(
            "e2e.latency_p50_per_pingpong",
            untraced_p50 * 1e3 / pingpong,
            "ratio",
        ),
        metric("fail_ratio", fail_ratio, "ratio"),
    ]);
    (out, layer_table(spans, &selfs, requests))
}

// --------------------------------------------------------------------- main

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!(
            "metric {:<40} {:>14.4} {:<8} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {:e}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let workload = args.workload;
    println!(
        "perfbench workload={} seed={} seconds={} trace={} clients={} cores={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        drive::CLIENTS,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    let empty_loop = empty_loop_ns();
    let pingpong = pingpong_us();
    println!("baseline net.pingpong_us={pingpong:.2} box.empty_loop_ns={empty_loop:.4}");

    let scratch = ScratchDir::new(PathBuf::from(".bench_state").join(format!(
        "{}-{}-{}",
        workload.name(),
        args.seed,
        std::process::id()
    )));
    let plan = Plan::new(workload, args.seed);

    // Set-up: boot several times and keep the last server. Hot-cached
    // boots replay the primed log each time; cold-mix boots each get a
    // fresh state dir; batch-mixed runs without one.
    let state = match workload {
        Workload::HotCached => {
            let dir = scratch.sub("state");
            prime(&dir, &plan);
            Some(dir)
        }
        Workload::ColdMix => Some(scratch.sub("state")),
        Workload::BatchMixed => None,
    };
    // Hot-cached boots replay ~1k records (tens of ms each); the others
    // take well under a millisecond, so more of them steady the figure.
    // Half the boots run before the timed phase and half after it, so a
    // burst of interference at one moment cannot set every sample.
    let boots = if args.trace {
        1
    } else if workload == Workload::HotCached {
        12
    } else {
        40
    };
    let boot_dir = |k: usize| match (&state, workload) {
        (Some(_), Workload::ColdMix) => Some(scratch.sub(&format!("boot-{k}"))),
        (dir, _) => dir.clone(),
    };
    let mut setups = Vec::with_capacity(boots);
    let time_boots = |range: std::ops::Range<usize>, setups: &mut Vec<f64>| {
        for k in range {
            let (handle, secs) = boot(&config(workload, boot_dir(k)));
            setups.push(secs);
            handle.shutdown();
        }
    };
    time_boots(0..boots / 2, &mut setups);
    // The measured server boots like the others and is timed with them.
    let (server, secs) = boot(&config(workload, state.clone()));
    setups.push(secs);
    let service = server.service();
    let addr = server.addr();
    let replayed = {
        let r = service.recovery();
        r.cache_records_replayed + r.session_records_replayed
    };

    let seconds = Duration::from_secs_f64(args.seconds);
    let (correct, attempted, failed, metrics) = if !args.trace {
        let phase = drive(addr, &plan, &[0; drive::CLIENTS as usize], seconds, None);
        server.shutdown();
        // Read before the statistics below allocate their scratch copies.
        let rss = rss_peak_mb();
        time_boots(boots / 2 + 1..boots, &mut setups);
        let metrics = end_to_end(&phase, &setups, rss);
        print_metrics(&metrics);
        let gate = gate::check(&plan, &[&phase]);
        report_gate(workload, args.seed, &gate, 0);
        // Zero on a healthy run, so it is no bounded end-to-end metric;
        // the JSON line carries it as failed/attempted.
        println!(
            "metric {:<40} {:>14.4} {:<8} {} failed of {} attempted",
            "fail_ratio",
            gate.failed as f64 / gate.attempted.max(1) as f64,
            "ratio",
            gate.failed,
            gate.attempted
        );
        (gate.correct(), gate.attempted, gate.failed, metrics)
    } else {
        let half = seconds / 2;
        let before = counters(&service);
        let untraced = drive(addr, &plan, &[0; drive::CLIENTS as usize], half, None);
        let after = counters(&service);
        let high_water = service
            .metrics()
            .reactor_write_high_water
            .load(Ordering::Relaxed);
        let healthz_us = {
            let mut conn = Conn::connect(addr).expect("healthz connect");
            let rtts: Vec<f64> = (0..300)
                .map(|_| {
                    let reply = conn.request("GET", "/healthz", b"").expect("healthz");
                    assert_eq!(reply.status, 200);
                    reply.total.as_secs_f64() * 1e6
                })
                .collect();
            stats::median(&rtts)
        };

        // The in-process twin boots the way the server did.
        let twin_dir = state.as_ref().map(|dir| {
            let twin = scratch.sub("twin");
            if workload == Workload::HotCached {
                copy_dir(dir, &twin);
            }
            twin
        });
        let twin_config = config(workload, twin_dir);
        let twin = Arc::new(Service::new(&twin_config).expect("the twin service boots"));
        let epoch = Instant::now();
        let setup = TraceSetup::new(twin.clone(), twin_config.cache_capacity, &plan.hot, epoch);
        let traced = drive(addr, &plan, &untraced.next, half, Some(&setup));
        drop(setup);
        twin.shutdown_state();
        service.flush_state();
        let log_bytes = state
            .as_ref()
            .and_then(|dir| std::fs::metadata(dir.join("cache.log")).ok())
            .map_or(0, |m| m.len());
        server.shutdown();

        let reqs = kernel_inputs(&plan, &untraced);
        let kernels = kernels::KernelTimes::measure(reqs.into_iter(), Duration::from_secs(3));

        let gate = gate::check(&plan, &[&untraced, &traced]);
        let fail_ratio = gate.failed as f64 / gate.attempted.max(1) as f64;
        let (metrics, table) = per_layer(
            &untraced, &traced, before, after, high_water, healthz_us, pingpong, empty_loop,
            &kernels, replayed, log_bytes, fail_ratio,
        );
        print_metrics(&metrics);
        println!(
            "layers (traced phase, {} requests; self time per request, share of loopback {:.1} us):",
            traced.attempted,
            table.loopback_mean_us
        );
        for (name, us) in &table.rows {
            println!(
                "layer {:<44} {:>12.2} us {:>6.1}%",
                name,
                us,
                us / table.loopback_mean_us * 100.0
            );
        }
        std::fs::create_dir_all(".bench_out").expect("the checkout is writable");
        let dump = PathBuf::from(".bench_out").join(format!(
            "spans-{}-{}.tsv",
            workload.name(),
            args.seed
        ));
        let kept = traced.spans.len().min(DUMPED_SPANS);
        trace::dump(&dump, &traced.spans[..kept]).expect("span dump writes");
        println!(
            "spans {kept} of {} written to {}",
            traced.spans.len(),
            dump.display()
        );
        report_gate(workload, args.seed, &gate, traced.replay_mismatches);
        (
            gate.correct() && traced.replay_mismatches == 0,
            gate.attempted,
            gate.failed,
            metrics,
        )
    };
    drop(scratch);
    println!("{}", json_line(correct, attempted, failed, &metrics));
}

/// The requests whose kernels are timed directly: the hot job set, or
/// the first requests the untraced phase had answered.
fn kernel_inputs(plan: &Plan, phase: &Phase) -> Vec<workload::Req> {
    if !plan.hot.is_empty() {
        return plan.hot.clone();
    }
    phase
        .served
        .iter()
        .take(600)
        .map(|s| plan.request(s.client, s.index))
        .collect()
}

fn report_gate(workload: Workload, seed: u64, gate: &gate::GateReport, replay_mismatches: usize) {
    println!(
        "gate workload={} seed={} correct={} attempted={} failed={} mismatches={} unsuccessful={} replay_mismatches={} digest_first{}={:016x} digest_all={:016x}",
        workload.name(),
        seed,
        gate.correct() && replay_mismatches == 0,
        gate.attempted,
        gate.failed,
        gate.mismatches,
        gate.unsuccessful,
        replay_mismatches,
        gate::PREFIX,
        gate.digest_prefix,
        gate.digest_all,
    );
    for problem in &gate.problems {
        println!("gate problem: {problem}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoxbar_service::Json;

    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");
    const LAYERS: &str = include_str!("../layers.json");

    fn strings(v: &Json, key: &str) -> Vec<String> {
        v.get(key)
            .and_then(Json::as_array)
            .unwrap_or_default()
            .iter()
            .map(|s| s.as_str().unwrap().to_string())
            .collect()
    }

    fn declared(section: &str) -> Vec<(String, String)> {
        Json::parse(BENCHMARK)
            .unwrap()
            .get(section)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn emitted_metrics_are_the_declared_ones() {
        let phase = Phase::default();
        assert_eq!(
            emitted(&end_to_end(&phase, &[1.0], 1.0)),
            declared("end_to_end")
        );
        let (layers, _) = per_layer(
            &phase,
            &phase,
            Counters::default(),
            Counters::default(),
            0,
            1.0,
            1.0,
            1.0,
            &kernels::KernelTimes::default(),
            0,
            0,
            0.0,
        );
        assert_eq!(emitted(&layers), declared("per_layer"));
    }

    #[test]
    fn workloads_and_the_layer_map_match_the_benchmark() {
        let benchmark = Json::parse(BENCHMARK).unwrap();
        let workloads: Vec<String> = benchmark
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);

        let end_to_end: Vec<String> = declared("end_to_end").into_iter().map(|m| m.0).collect();
        let mut per_layer: Vec<String> = declared("per_layer").into_iter().map(|m| m.0).collect();
        let map = Json::parse(LAYERS).unwrap();
        assert_eq!(
            map.get("default_seed").and_then(Json::as_u64),
            Some(DEFAULT_SEED)
        );
        let mut mapped = Vec::new();
        for layer in map.get("layers").and_then(Json::as_array).unwrap() {
            mapped.extend(strings(layer, "metrics"));
            for workload in strings(layer, "flat_on") {
                assert!(workloads.contains(&workload), "{workload}");
            }
            for moved in layer.get("moves").and_then(Json::as_array).unwrap() {
                let workload = moved.get("workload").and_then(Json::as_str).unwrap();
                assert!(workloads.iter().any(|w| w == workload), "{workload}");
                for metric in strings(moved, "end_to_end") {
                    assert!(end_to_end.contains(&metric), "{metric}");
                }
            }
        }
        mapped.sort();
        per_layer.sort();
        assert_eq!(mapped, per_layer);
    }
}
