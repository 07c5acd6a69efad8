//! Seeded request generation. The server only ever sees the bodies made
//! here; the same `(workload, seed)` always yields the same requests.

use nanoxbar_logic::parse_function;
use nanoxbar_service::http::Request;
use nanoxbar_service::{ChipRequest, JobSpec, Json, MvmRequest};

/// The traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// A warm restart: clients cycle through jobs already in the durable
    /// cache log, so the engine only does cache lookups.
    HotCached,
    /// Every request distinct, on a fresh state dir with a cache smaller
    /// than the working set: kernels and the cache/persist write path.
    ColdMix,
    /// Alternating buffered and streamed 16-slot batches with intra-batch
    /// duplicates: batch fan-out, dedupe and chunked streaming.
    BatchMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::HotCached, Workload::ColdMix, Workload::BatchMixed];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotCached => "hot-cached",
            Workload::ColdMix => "cold-mix",
            Workload::BatchMixed => "batch-mixed",
        }
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Distinct jobs primed into the hot-cached state dir.
pub const HOT_JOBS: usize = 1024;
/// Slots per batch on batch-mixed.
pub const BATCH_SLOTS: usize = 16;
/// Duplicated slots per batch on batch-mixed (a quarter of the slots).
const BATCH_DUPLICATES: usize = 4;

/// The endpoint-level class of a request, for per-endpoint figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// `POST /v1/synthesize`.
    Synthesize,
    /// `POST /v1/map`.
    Map,
    /// `POST /v1/mvm`.
    Mvm,
    /// `POST /v1/batch`.
    Batch,
}

impl Endpoint {
    /// The request path.
    pub fn path(self) -> &'static str {
        match self {
            Endpoint::Synthesize => "/v1/synthesize",
            Endpoint::Map => "/v1/map",
            Endpoint::Mvm => "/v1/mvm",
            Endpoint::Batch => "/v1/batch",
        }
    }
}

/// One generated request.
#[derive(Clone, Debug, PartialEq)]
pub struct Req {
    /// Target endpoint.
    pub endpoint: Endpoint,
    /// JSON body.
    pub body: String,
    /// Job slots the request carries (16 for a batch, else 1).
    pub slots: usize,
    /// Whether the body asks for a chunked (`"stream":true`) response.
    pub stream: bool,
}

impl Req {
    /// The request as the service's router sees it.
    pub fn http(&self) -> Request {
        Request {
            method: "POST".into(),
            path: self.endpoint.path().into(),
            version_minor: 1,
            headers: Vec::new(),
            body: self.body.as_bytes().to_vec(),
        }
    }
}

/// SplitMix64: small, fast and fully specified, so request streams do
/// not depend on any library's generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for the stream identified by `parts`.
    pub fn new(parts: &[u64]) -> Rng {
        let mut rng = Rng(0x6A09_E667_F3BC_C909);
        for &part in parts {
            rng.0 ^= part;
            rng.0 = rng.next();
        }
        rng
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }
}

/// A random non-constant sum of products over exactly `vars` variables,
/// in the service's expression syntax.
fn sop(rng: &mut Rng, vars: usize, cubes: (usize, usize), literals: (usize, usize)) -> String {
    loop {
        let count = rng.range(cubes.0, cubes.1);
        let mut terms = Vec::with_capacity(count);
        for _ in 0..count {
            let want = rng.range(literals.0, literals.1).min(vars);
            let mut chosen: Vec<usize> = Vec::with_capacity(want);
            while chosen.len() < want {
                let v = rng.range(0, vars - 1);
                if !chosen.contains(&v) {
                    chosen.push(v);
                }
            }
            chosen.sort_unstable();
            let term: Vec<String> = chosen
                .iter()
                .map(|v| {
                    if rng.next() & 1 == 1 {
                        format!("!x{v}")
                    } else {
                        format!("x{v}")
                    }
                })
                .collect();
            terms.push(term.join(" "));
        }
        let expr = terms.join(" + ");
        let table = parse_function(&expr).expect("generated expressions parse");
        // Redraw constants (the two-terminal strategies reject them) and
        // expressions missing the highest variable, so every expression
        // has exactly `vars` inputs.
        if table.num_vars() == vars && !table.is_zero() && !table.is_ones() {
            return expr;
        }
    }
}

fn synth_spec(expr: String, strategy: &str) -> JobSpec {
    JobSpec {
        strategy: Some(strategy.into()),
        verify: true,
        ..JobSpec::expr(expr)
    }
}

fn multi_spec(rng: &mut Rng, vars: (usize, usize)) -> JobSpec {
    let n = rng.range(vars.0, vars.1);
    let outputs = rng.range(2, 3);
    JobSpec {
        exprs: Some((0..outputs).map(|_| sop(rng, n, (2, 4), (2, 3))).collect()),
        verify: true,
        ..JobSpec::default()
    }
}

/// A single-output synthesis job at `vars` on one of the constructive
/// strategies.
fn constructive_spec(rng: &mut Rng, vars: (usize, usize)) -> JobSpec {
    const STRATEGIES: [&str; 4] = ["diode", "fet", "dual-lattice", "bdd"];
    let n = rng.range(vars.0, vars.1);
    let strategy = STRATEGIES[rng.range(0, STRATEGIES.len() - 1)];
    synth_spec(sop(rng, n, (2, 4), (2, 3)), strategy)
}

/// A BISM map job on a 24–32² chip at 10–30% defects. Small functions
/// and a greedy search with a generous budget keep every placement
/// successful at these densities.
fn map_spec(rng: &mut Rng) -> JobSpec {
    let side = rng.range(24, 32);
    let vars = rng.range(3, 4);
    JobSpec {
        chip: Some(ChipRequest {
            rows: side,
            cols: side,
            seed: rng.next() >> 16,
            defect_rate: Some(rng.range(10, 30) as f64 / 100.0),
        }),
        map: Some(nanoxbar_service::api::MapRequest {
            strategy: Some("greedy".into()),
            max_attempts: Some(20_000),
            seed: rng.next() >> 16,
            ..Default::default()
        }),
        verify: true,
        ..JobSpec::expr(sop(rng, vars, (2, 2), (2, 2)))
    }
}

/// An analog MVM job at 32–64² with four Monte-Carlo trials. Weights and
/// inputs are multiples of 1/256 so bodies stay short and exact.
fn mvm_spec(rng: &mut Rng) -> JobSpec {
    let rows = rng.range(32, 64);
    let cols = rng.range(32, 64);
    let mut draw = |n: usize| -> Vec<f32> {
        (0..n)
            .map(|_| (rng.range(0, 511) as f32 - 256.0) / 256.0)
            .collect()
    };
    let weights = draw(rows * cols);
    let input = draw(cols);
    JobSpec {
        mvm: Some(MvmRequest {
            rows,
            cols,
            weights,
            input,
            chip_seed: rng.next() >> 16,
            p_open: 0.02,
            p_closed: 0.01,
            noise_sigma: 0.05,
            trials: 4,
        }),
        ..JobSpec::default()
    }
}

fn single(endpoint: Endpoint, spec: &JobSpec) -> Req {
    Req {
        endpoint,
        body: spec.to_json().encode(),
        slots: 1,
        stream: false,
    }
}

/// The jobs primed into the hot-cached state dir: small single-output
/// jobs on diode, FET, dual-lattice and BDD, each distinct.
pub fn hot_jobs(seed: u64) -> Vec<Req> {
    const STRATEGIES: [&str; 4] = ["diode", "fet", "dual-lattice", "bdd"];
    let mut rng = Rng::new(&[seed, 0x407]);
    let mut seen = std::collections::HashSet::new();
    let mut jobs = Vec::with_capacity(HOT_JOBS);
    while jobs.len() < HOT_JOBS {
        let strategy = STRATEGIES[jobs.len() % STRATEGIES.len()];
        let vars = rng.range(4, 6);
        let expr = sop(&mut rng, vars, (2, 3), (2, 3));
        let table = parse_function(&expr).expect("generated expressions parse");
        // Distinct cache keys, so the primed log holds HOT_JOBS records.
        if seen.insert((table, strategy)) {
            jobs.push(single(Endpoint::Synthesize, &synth_spec(expr, strategy)));
        }
    }
    jobs
}

/// One cold-mix request shape: what is asked for, and at what size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ColdKind {
    Constructive(&'static str, usize),
    Multi(usize),
    Optimal,
    Map,
    Mvm,
}

/// Requests per cold-mix cycle. Every cycle holds the same shapes in a
/// seeded order, so the mix (and with it the run's cost) does not drift
/// with the seed; only the functions, chips and matrices do.
const COLD_CYCLE: usize = 100;

/// The shapes of one cycle. Constructive single-output jobs dominate;
/// the slow optimal-lattice search stays at 4 variables (5 variables
/// costs ~30x more and would swamp a run).
fn cold_cycle() -> Vec<ColdKind> {
    let mut kinds = Vec::with_capacity(COLD_CYCLE);
    for strategy in ["diode", "fet", "dual-lattice", "bdd"] {
        for vars in 6..=10 {
            kinds.extend([ColdKind::Constructive(strategy, vars); 3]);
        }
    }
    for vars in 6..=8 {
        kinds.extend([ColdKind::Multi(vars); 4]);
    }
    kinds.extend([ColdKind::Optimal; 6]);
    kinds.extend([ColdKind::Map; 11]);
    kinds.extend([ColdKind::Mvm; 11]);
    debug_assert_eq!(kinds.len(), COLD_CYCLE);
    kinds
}

/// The `index`-th cold-mix request of `client`.
fn cold_request(seed: u64, client: u64, index: u64) -> Req {
    let cycle = index / COLD_CYCLE as u64;
    let mut kinds = cold_cycle();
    let mut order = Rng::new(&[seed, 0xC7C1E, client, cycle]);
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, order.range(0, i));
    }
    let mut rng = Rng::new(&[seed, 0xC01D, client, index]);
    match kinds[(index % COLD_CYCLE as u64) as usize] {
        ColdKind::Constructive(strategy, vars) => single(
            Endpoint::Synthesize,
            &synth_spec(sop(&mut rng, vars, (2, 4), (2, 3)), strategy),
        ),
        ColdKind::Multi(vars) => single(Endpoint::Synthesize, &multi_spec(&mut rng, (vars, vars))),
        // Two cubes keep the SAT search near its ~3 ms typical cost; a
        // third cube puts a heavy tail (up to ~0.5 s and tens of MB) on
        // a few seeds' instances.
        ColdKind::Optimal => single(
            Endpoint::Synthesize,
            &synth_spec(sop(&mut rng, 4, (2, 2), (2, 3)), "optimal-lattice"),
        ),
        ColdKind::Map => single(Endpoint::Map, &map_spec(&mut rng)),
        ColdKind::Mvm => single(Endpoint::Mvm, &mvm_spec(&mut rng)),
    }
}

/// The `index`-th batch-mixed request of `client`: even indices are
/// buffered, odd ones streamed.
fn batch_request(seed: u64, client: u64, index: u64) -> Req {
    let mut rng = Rng::new(&[seed, 0xBA7C, client, index]);
    let special = rng.range(1, BATCH_SLOTS - 1);
    let mut duplicates = Vec::with_capacity(BATCH_DUPLICATES);
    while duplicates.len() < BATCH_DUPLICATES {
        let slot = rng.range(1, BATCH_SLOTS - 1);
        if slot != special && !duplicates.contains(&slot) {
            duplicates.push(slot);
        }
    }
    let mut slots: Vec<Json> = Vec::with_capacity(BATCH_SLOTS);
    let mut synth: Vec<usize> = Vec::new();
    for slot in 0..BATCH_SLOTS {
        let json = if slot == special {
            // Each client alternates map and MVM specials, so both modes
            // see both.
            if (index / 2).is_multiple_of(2) {
                map_spec(&mut rng).to_json()
            } else {
                mvm_spec(&mut rng).to_json()
            }
        } else if duplicates.contains(&slot) {
            slots[synth[rng.range(0, synth.len() - 1)]].clone()
        } else {
            synth.push(slot);
            if rng.range(0, 5) == 0 {
                multi_spec(&mut rng, (5, 7)).to_json()
            } else {
                constructive_spec(&mut rng, (5, 8)).to_json()
            }
        };
        slots.push(json);
    }
    let stream = index % 2 == 1;
    let mut members = vec![("jobs".to_string(), Json::Array(slots))];
    if stream {
        members.push(("stream".to_string(), Json::Bool(true)));
    }
    Req {
        endpoint: Endpoint::Batch,
        body: Json::Object(members).encode(),
        slots: BATCH_SLOTS,
        stream,
    }
}

/// A workload's request stream.
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// The hot-cached job set (empty for the other workloads).
    pub hot: Vec<Req>,
}

impl Plan {
    /// The plan for `(workload, seed)`.
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let hot = if workload == Workload::HotCached {
            hot_jobs(seed)
        } else {
            Vec::new()
        };
        Plan {
            workload,
            seed,
            hot,
        }
    }

    /// The `index`-th request of `client`. Hot-cached clients start half
    /// the job set apart and cycle through it.
    pub fn request(&self, client: u64, index: u64) -> Req {
        match self.workload {
            Workload::HotCached => {
                let offset = client as usize * (HOT_JOBS / 2);
                self.hot[(offset + index as usize) % self.hot.len()].clone()
            }
            Workload::ColdMix => cold_request(self.seed, client, index),
            Workload::BatchMixed => batch_request(self.seed, client, index),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(workload: Workload, seed: u64) -> Vec<Req> {
        let plan = Plan::new(workload, seed);
        (0..2)
            .flat_map(|client| (0..40).map(move |i| (client, i)))
            .map(|(client, i)| plan.request(client, i))
            .collect()
    }

    #[test]
    fn requests_repeat_exactly_per_seed() {
        for workload in Workload::ALL {
            assert_eq!(stream(workload, 7), stream(workload, 7), "{workload:?}");
        }
    }

    #[test]
    fn requests_change_with_the_seed() {
        for workload in Workload::ALL {
            let a = stream(workload, 7);
            let b = stream(workload, 8);
            let same = a.iter().zip(&b).filter(|(x, y)| x == y).count();
            assert!(same * 10 < a.len(), "{workload:?}: {same} equal requests");
        }
    }

    #[test]
    fn cold_and_batch_requests_are_distinct_within_a_run() {
        for workload in [Workload::ColdMix, Workload::BatchMixed] {
            let bodies: std::collections::HashSet<String> =
                stream(workload, 3).into_iter().map(|r| r.body).collect();
            assert_eq!(bodies.len(), 80, "{workload:?}");
        }
    }

    #[test]
    fn hot_jobs_are_distinct_and_clients_cycle_through_them() {
        let plan = Plan::new(Workload::HotCached, 1);
        let bodies: std::collections::HashSet<&str> =
            plan.hot.iter().map(|r| r.body.as_str()).collect();
        assert_eq!(bodies.len(), HOT_JOBS);
        assert_eq!(plan.request(0, HOT_JOBS as u64), plan.request(0, 0));
        assert_eq!(plan.request(1, 0), plan.request(0, HOT_JOBS as u64 / 2));
    }

    #[test]
    fn batches_alternate_modes_and_duplicate_a_quarter() {
        let plan = Plan::new(Workload::BatchMixed, 5);
        for index in 0..8 {
            let req = plan.request(0, index);
            assert_eq!(req.stream, index % 2 == 1);
            let json = Json::parse(&req.body).unwrap();
            let slots = json.get("jobs").and_then(Json::as_array).unwrap();
            assert_eq!(slots.len(), BATCH_SLOTS);
            let distinct: std::collections::HashSet<String> =
                slots.iter().map(Json::encode).collect();
            assert_eq!(distinct.len(), BATCH_SLOTS - BATCH_DUPLICATES);
            let special = slots
                .iter()
                .filter(|s| s.get("mvm").is_some() || s.get("map").is_some())
                .count();
            assert_eq!(special, 1);
        }
    }

    #[test]
    fn generated_specs_lower_to_jobs() {
        for workload in Workload::ALL {
            for req in stream(workload, 11) {
                let json = Json::parse(&req.body).unwrap();
                let specs: Vec<&Json> = match json.get("jobs").and_then(Json::as_array) {
                    Some(slots) => slots.iter().collect(),
                    None => vec![&json],
                };
                for spec in specs {
                    JobSpec::from_json(spec).unwrap().to_job().unwrap();
                }
            }
        }
    }
}
