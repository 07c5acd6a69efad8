//! Direct kernel timings on the workload's own inputs: each backend via
//! `BackendRegistry::with_defaults()`, the shared-BDD compiler, the BISM
//! mapper, the analog MVM and word-parallel lattice verification.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use nanoxbar_engine::{BackendRegistry, Engine, Mapper, Realization, SynthesisContext};
use nanoxbar_lattice::BitEvaluator;

use crate::drive::kernel_span;
use crate::workload::Req;

/// Calls timed per kernel, at most.
const PER_KERNEL: usize = 48;

/// Per-call times in microseconds by kernel name, plus MVM throughput.
#[derive(Default)]
pub struct KernelTimes {
    /// Per-call microseconds, by kernel span name.
    pub calls: BTreeMap<&'static str, Vec<f64>>,
    /// Multiply-add work of the timed MVM calls, in flops.
    pub mvm_flops: f64,
    /// Time of the timed MVM calls, in seconds.
    pub mvm_seconds: f64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = std::hint::black_box(f());
    (value, start.elapsed().as_secs_f64() * 1e6)
}

impl KernelTimes {
    fn push(&mut self, name: &'static str, micros: f64) {
        self.calls.entry(name).or_default().push(micros);
    }

    fn full(&self, name: &str) -> bool {
        self.calls.get(name).is_some_and(|v| v.len() >= PER_KERNEL)
    }

    /// Times the kernels behind `reqs` until every kernel has
    /// [`PER_KERNEL`] calls or `budget` runs out.
    pub fn measure(reqs: impl Iterator<Item = Req>, budget: Duration) -> KernelTimes {
        let started = Instant::now();
        let registry = BackendRegistry::with_defaults();
        let engine = Engine::new();
        let ctx = SynthesisContext::default();
        let mut times = KernelTimes::default();
        for req in reqs {
            if started.elapsed() > budget {
                break;
            }
            let (jobs, maps, _) = crate::drive::decode(&req).expect("generated requests decode");
            for (job, map) in jobs.iter().zip(maps) {
                if let Some(mvm) = job.mvm_spec() {
                    if times.full("mvm.execute") {
                        continue;
                    }
                    let (_, micros) = timed(|| {
                        let targets = nanoxbar_mvm::program(
                            &mvm.weights,
                            mvm.rows,
                            mvm.cols,
                            nanoxbar_mvm::ConductanceParams::default(),
                        );
                        nanoxbar_mvm::execute(mvm, &targets).expect("generated mvm specs run")
                    });
                    times.push("mvm.execute", micros);
                    times.mvm_flops += 2.0 * (mvm.rows * mvm.cols) as f64 * f64::from(mvm.trials);
                    times.mvm_seconds += micros / 1e6;
                } else if map {
                    if times.full("reliability.map") {
                        continue;
                    }
                    let setup = engine.prepare_map(job).expect("generated map jobs prepare");
                    let (_, micros) = timed(|| {
                        Mapper::new(setup.app.clone(), setup.chip.clone(), setup.config).run()
                    });
                    times.push("reliability.map", micros);
                } else if let Some(outputs) = job.multi_outputs() {
                    if times.full("bddsynth.compile") {
                        continue;
                    }
                    let (_, micros) = timed(|| nanoxbar_bddsynth::compile_multi(outputs));
                    times.push("bddsynth.compile", micros);
                } else {
                    let strategy = job.strategy().unwrap_or("dual-lattice");
                    let name = kernel_span(strategy);
                    let verify_wanted = !times.full("lattice.verify");
                    if times.full(name) && !(strategy == "dual-lattice" && verify_wanted) {
                        continue;
                    }
                    let backend = registry.get(strategy).expect("generated strategies exist");
                    let (realization, micros) = timed(|| backend.synthesize(job.function(), &ctx));
                    if !times.full(name) {
                        times.push(name, micros);
                    }
                    if let Ok(Realization::Lattice(lattice)) = realization {
                        if verify_wanted {
                            let mut eval = BitEvaluator::new();
                            let (computes, micros) =
                                timed(|| eval.computes(&lattice, job.function()));
                            assert!(computes, "synthesised lattices compute their function");
                            times.push("lattice.verify", micros);
                        }
                    }
                }
            }
        }
        times
    }

    /// Median per-call microseconds of a kernel (0 when the workload has
    /// no input for it).
    pub fn median_us(&self, name: &str) -> f64 {
        self.calls
            .get(name)
            .map_or(0.0, |v| crate::stats::median(v))
    }

    /// Achieved MVM rate in GFLOP/s (0 without MVM inputs).
    pub fn mvm_gflops(&self) -> f64 {
        if self.mvm_seconds > 0.0 {
            self.mvm_flops / self.mvm_seconds / 1e9
        } else {
            0.0
        }
    }
}
