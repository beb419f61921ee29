//! The AIR repo benchmark.
//!
//! Four closed-loop workloads drive the system through its public entry
//! points from one process (see `README.md` beside this package for why
//! each was chosen and which layer metric should move which end-to-end
//! metric):
//!
//! * `kernel_fleet` — fleets of fault campaigns through `air_fleet::run_fleet`;
//! * `mesh_heal` — self-healing mesh campaigns (`RerouteCampaignRunner`);
//! * `verify_hub` — the `airlint --explore --timing` pipeline on the hub example;
//! * `fuzz_farm` — `air_core::fuzz::run_fuzz` over consecutive generated seeds.
//!
//! An end-to-end run times operations with tracing off; a traced run
//! records spans around the calls into each layer ([`trace::Tracer`]).

mod fleet;
mod fuzz;
mod mesh;
mod stats;
pub mod trace;
mod verify;

use std::time::Instant;

use trace::Tracer;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations run and checked.
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// The metrics, end-to-end or per-layer.
    pub metrics: Vec<Metric>,
    /// Facts that qualify the metrics (tail percentile, sample counts),
    /// printed beside the result.
    pub details: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Appends metric `name`.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Appends detail `name`.
    pub fn detail(&mut self, name: &'static str, value: f64) {
        self.details.push((name, value));
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Folds another outcome's operations, metrics and details into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
        self.details.extend(other.details);
    }

    /// Reports the end-to-end metrics every workload shares (all but
    /// `peak_rss_mb`, taken once the workload is done).
    ///
    /// `setup_s` holds one sample per set-up, `timed_s` is the timed
    /// phase's host time, and `latencies_ms` holds one sample per
    /// operation.
    pub fn end_to_end(&mut self, setup_s: &[f64], timed_s: f64, latencies_ms: &[f64]) {
        let ok = self.attempted - self.failed;
        self.metric("setup_s", stats::median(setup_s), "s");
        self.metric("ops_per_s", ok as f64 / timed_s, "1/s");
        self.metric("op_p50_ms", stats::median(latencies_ms), "ms");
        let tail = stats::tail(latencies_ms);
        self.metric("op_tail_ms", tail.value, "ms");
        self.detail("setup_samples", setup_s.len() as f64);
        self.detail("op_samples", tail.samples as f64);
        self.detail("op_tail_percentile", tail.percentile);
        self.detail("op_tail_beyond", tail.beyond as f64);
        self.detail(
            "failed_frac",
            self.failed as f64 / self.attempted.max(1) as f64,
        );
    }

    /// [`Outcome::end_to_end`] for operations timed one by one, given
    /// their host seconds.
    pub fn end_to_end_ops(&mut self, setup_s: &[f64], op_s: &[f64]) {
        let latencies: Vec<f64> = op_s.iter().map(|s| s * 1e3).collect();
        self.end_to_end(setup_s, op_s.iter().sum(), &latencies);
    }
}

/// Workload sizes. [`Size::standard`] is what the benchmark measures;
/// [`Size::tiny`] keeps the tests quick.
#[derive(Debug, Clone)]
pub struct Size {
    /// Machines per fleet.
    pub fleet_machines: usize,
    /// Faults of every class per machine (sets the ~20k-tick horizon).
    pub fleet_per_class: usize,
    /// Machines stepped tick by tick for the detection check and the
    /// per-tick probe.
    pub fleet_sample: usize,
    /// Mesh sizes the campaign rotation cycles through.
    pub mesh_nodes: &'static [usize],
    /// Exploration depth of the hub verdict.
    pub verify_depth: usize,
    /// Fuzz cases whose counts the traced run reports.
    pub fuzz_window: usize,
    /// Set-up repetitions where set-up is not part of every operation.
    pub setup_reps: usize,
}

impl Size {
    /// The measured sizes.
    pub fn standard() -> Self {
        Self {
            fleet_machines: 128,
            fleet_per_class: 80,
            fleet_sample: 2,
            mesh_nodes: &[6, 9],
            verify_depth: 8,
            fuzz_window: 32,
            setup_reps: 50,
        }
    }

    /// Small sizes for tests.
    pub fn tiny() -> Self {
        Self {
            fleet_machines: 4,
            fleet_per_class: 1,
            fleet_sample: 1,
            mesh_nodes: &[4],
            verify_depth: 2,
            fuzz_window: 3,
            setup_reps: 2,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the timed phase runs (at least one operation runs).
    pub seconds: f64,
    /// Worker threads for the parallel engines.
    pub workers: usize,
    /// Workload sizes.
    pub size: Size,
}

/// Hardware threads the host exposes.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fleets of fault campaigns: the dense-tick kernel stack.
    KernelFleet,
    /// Self-healing mesh campaigns: idle-dominated simulation.
    MeshHeal,
    /// One deep exploration plus timing certification.
    VerifyHub,
    /// Thousands of shallow explorations with concrete replay.
    FuzzFarm,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::KernelFleet,
        Workload::MeshHeal,
        Workload::VerifyHub,
        Workload::FuzzFarm,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KernelFleet => "kernel_fleet",
            Workload::MeshHeal => "mesh_heal",
            Workload::VerifyHub => "verify_hub",
            Workload::FuzzFarm => "fuzz_farm",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// An end-to-end run: tracing off, every operation checked. The
    /// peak resident set is the whole process's, so each workload runs
    /// in a process of its own.
    pub fn run(self, cfg: &RunConfig) -> Result<Outcome, String> {
        let mut out = match self {
            Workload::KernelFleet => fleet::run(cfg),
            Workload::MeshHeal => mesh::run(cfg),
            Workload::VerifyHub => verify::run(cfg),
            Workload::FuzzFarm => fuzz::run(cfg),
        }?;
        out.metric("peak_rss_mb", peak_rss_mb()?, "MB");
        Ok(out)
    }

    /// A traced run of this workload's layers. As the `primary` workload
    /// it traces operations for the whole run, each preceded by the same
    /// operation untraced to measure the tracing overhead; otherwise it
    /// traces only the fixed window its counts are taken over.
    pub fn trace(
        self,
        cfg: &RunConfig,
        primary: bool,
        tracer: &mut Tracer,
    ) -> Result<Outcome, String> {
        match self {
            Workload::KernelFleet => fleet::trace(cfg, primary, tracer),
            Workload::MeshHeal => mesh::trace(cfg, primary, tracer),
            Workload::VerifyHub => verify::trace(cfg, primary, tracer),
            Workload::FuzzFarm => fuzz::trace(cfg, primary, tracer),
        }
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub(crate) fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs `op` until `seconds` have passed since the call and at least
/// `min_ops` operations ran; `op` gets the operation index.
pub(crate) fn closed_loop(seconds: f64, min_ops: usize, mut op: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i < min_ops || start.elapsed().as_secs_f64() < seconds {
        op(i);
        i += 1;
    }
}

/// Set-up samples taken through the run rather than in one burst: host
/// speed drifts over seconds, and a burst would see only one phase of it.
#[derive(Debug)]
pub(crate) struct SetupSamples {
    reps: usize,
    seconds: f64,
    start: Instant,
    samples: Vec<f64>,
}

impl SetupSamples {
    /// `reps` samples spread over `seconds`.
    pub(crate) fn new(reps: usize, seconds: f64) -> Self {
        Self {
            reps: reps.max(1),
            seconds,
            start: Instant::now(),
            samples: Vec::new(),
        }
    }

    /// Takes the samples due by now, at least one; `sample` sets up once
    /// and returns its host seconds.
    pub(crate) fn take_due(&mut self, mut sample: impl FnMut() -> f64) {
        let share = if self.seconds > 0.0 {
            self.start.elapsed().as_secs_f64() / self.seconds
        } else {
            1.0
        };
        let due = ((share * self.reps as f64).ceil() as usize).clamp(1, self.reps);
        while self.samples.len() < due {
            self.samples.push(sample());
        }
    }

    /// Takes any samples still missing and returns them all.
    pub(crate) fn finish(mut self, mut sample: impl FnMut() -> f64) -> Vec<f64> {
        while self.samples.len() < self.reps {
            self.samples.push(sample());
        }
        self.samples
    }
}

/// Tracing overhead in percent: the traced operations' root spans
/// against the same operations run untraced.
pub(crate) fn overhead_pct(untraced_s: &[f64], traced_s: &[f64]) -> f64 {
    let untraced: f64 = untraced_s.iter().sum();
    let traced: f64 = traced_s.iter().sum();
    100.0 * (traced - untraced) / untraced
}

/// Seconds between two instants.
pub(crate) fn secs(start: Instant, end: Instant) -> f64 {
    end.saturating_duration_since(start).as_secs_f64()
}
