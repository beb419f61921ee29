//! `kernel_fleet`: fleets of the standard three-partition fault campaign
//! through `air_fleet::run_fleet` on every host worker.
//!
//! One operation is one machine's campaign. Machines advance in
//! lock-step batches, so a machine's result is ready when its fleet's
//! timed phase ends: that phase is each machine's latency.

use std::time::Instant;

use air_fleet::{
    run_fleet, run_sequential, trace_digest, CampaignFleet, Capture, FleetConfig, FleetOutcome,
    FleetWorkload,
};

use crate::trace::Tracer;
use crate::{closed_loop, overhead_pct, secs, stats, Outcome, RunConfig};

/// The benchmark's reference, computed outside the timed phase: every
/// machine's digest from the sequential loop, and whether each sampled
/// machine detected every planned fault.
struct Oracle {
    digests: Vec<u64>,
    sample: Vec<usize>,
    sample_ok: Vec<bool>,
    sequential_tick_s: f64,
}

impl Oracle {
    fn new(cfg: &RunConfig) -> Self {
        let machines = cfg.size.fleet_machines;
        let fleet = CampaignFleet::new(cfg.seed, cfg.size.fleet_per_class);
        let reference = run_sequential(&fleet, machines, Capture::Digest);
        let samples = cfg.size.fleet_sample.clamp(1, machines);
        let sample: Vec<usize> = (0..samples).map(|k| k * machines / samples).collect();
        let sample_ok = sample
            .iter()
            .map(|&i| {
                let mut sim = fleet.build(i);
                sim.run_to_horizon();
                let mut log = String::new();
                sim.render_trace_into(&mut log);
                sim.detected() == sim.records().len()
                    && trace_digest(log.as_bytes()) == reference.outcomes[i].digest
            })
            .collect();
        Self {
            digests: reference.outcomes.iter().map(|o| o.digest).collect(),
            sample,
            sample_ok,
            sequential_tick_s: reference.tick_elapsed.as_secs_f64(),
        }
    }

    fn machine_ok(&self, index: usize, digest: u64) -> bool {
        digest == self.digests[index]
            && self
                .sample
                .iter()
                .zip(&self.sample_ok)
                .all(|(&i, &ok)| i != index || ok)
    }
}

/// One fleet: the checked build of the campaign workload, then the
/// sharded run.
struct Rep {
    start: Instant,
    gated: Instant,
    end: Instant,
    outcome: FleetOutcome,
}

impl Rep {
    fn run(cfg: &RunConfig) -> Self {
        let start = Instant::now();
        let fleet = CampaignFleet::new(cfg.seed, cfg.size.fleet_per_class);
        let gated = Instant::now();
        let outcome = run_fleet(
            &fleet,
            &FleetConfig::new(cfg.size.fleet_machines, cfg.workers),
        );
        Self {
            start,
            gated,
            end: Instant::now(),
            outcome,
        }
    }

    /// The checked build plus the fleet build phase.
    fn setup_s(&self) -> f64 {
        secs(self.start, self.gated) + self.outcome.build_elapsed.as_secs_f64()
    }

    /// Tick phase plus trace render and digest.
    fn timed_s(&self) -> f64 {
        secs(self.start, self.end) - self.setup_s()
    }

    fn check(&self, oracle: &Oracle, out: &mut Outcome) {
        for o in &self.outcome.outcomes {
            out.check(oracle.machine_ok(o.index, o.digest));
        }
    }
}

/// The end-to-end run.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let oracle = Oracle::new(cfg);
    let mut out = Outcome::default();
    let (mut setup, mut timed, mut latencies) = (Vec::new(), 0.0, Vec::new());
    closed_loop(cfg.seconds, 1, |_| {
        let rep = Rep::run(cfg);
        rep.check(&oracle, &mut out);
        setup.push(rep.setup_s());
        timed += rep.timed_s();
        latencies.extend(std::iter::repeat_n(
            rep.timed_s() * 1e3,
            rep.outcome.outcomes.len(),
        ));
    });
    out.end_to_end(&setup, timed, &latencies);
    out.detail("fleet_reps", setup.len() as f64);
    Ok(out)
}

/// The traced run: fleet phases per repetition, then the sampled
/// machines stepped tick by tick through `CampaignSim::step`.
pub fn trace(cfg: &RunConfig, primary: bool, tracer: &mut Tracer) -> Result<Outcome, String> {
    let oracle = Oracle::new(cfg);
    let mut out = Outcome::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut build, mut tick, mut render) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rounds, mut workers) = (0, 1);
    closed_loop(if primary { cfg.seconds } else { 0.0 }, 1, |_| {
        if primary {
            let rep = Rep::run(cfg);
            rep.check(&oracle, &mut out);
            untraced.push(secs(rep.start, rep.end));
        }
        let rep = Rep::run(cfg);
        rep.check(&oracle, &mut out);
        let op = tracer.op();
        // The executor times its own phases; they become children of
        // the `run_fleet` span, and its self time is render + digest.
        let root = tracer.record("kernel_fleet.op", op, None, rep.start, rep.end);
        tracer.record("fleet.gate", op, Some(root), rep.start, rep.gated);
        let run = tracer.record("fleet.run", op, Some(root), rep.gated, rep.end);
        let built = rep.gated + rep.outcome.build_elapsed;
        tracer.record("fleet.build", op, Some(run), rep.gated, built);
        tracer.record(
            "fleet.tick",
            op,
            Some(run),
            built,
            built + rep.outcome.tick_elapsed,
        );
        let (b, t) = (
            rep.outcome.build_elapsed.as_secs_f64(),
            rep.outcome.tick_elapsed.as_secs_f64(),
        );
        build.push(b);
        tick.push(t);
        render.push(secs(rep.gated, rep.end) - b - t);
        traced.push(secs(rep.start, rep.end));
        rounds = rep.outcome.rounds;
        workers = rep.outcome.workers;
    });

    let fleet = CampaignFleet::new(cfg.seed, cfg.size.fleet_per_class);
    let (mut all_ns, mut switch_ns, mut plain_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut injected, mut detected) = (0, 0);
    let mut counts = [0u64; 5];
    for &i in &oracle.sample {
        let op = tracer.op();
        let start = Instant::now();
        let mut sim = fleet.build(i);
        while !sim.is_done() {
            let before = sim.system().active_partition();
            let t = Instant::now();
            sim.step();
            let ns = t.elapsed().as_nanos() as f64;
            all_ns.push(ns);
            // A changed active partition means Alg. 2 dispatch and the
            // PAL surrogate announce ran this tick.
            if sim.system().active_partition() == before {
                plain_ns.push(ns);
            } else {
                switch_ns.push(ns);
            }
        }
        tracer.record("core.probe", op, None, start, Instant::now());
        let system = sim.system();
        let machine = [
            system.trace().partition_switch_count(),
            system.trace().schedule_switch_count(),
            system.trace().deadline_miss_count(),
            system.hm().log().len() as u64,
            system.trace().recorded(),
        ];
        for (name, (total, value)) in COUNTS.iter().zip(counts.iter_mut().zip(machine)) {
            tracer.count(name, op, value as f64);
            *total += value;
        }
        injected += sim.records().len();
        detected += sim.detected();
    }

    out.metric("fleet.build_s", stats::median(&build), "s");
    out.metric("fleet.tick_s", stats::median(&tick), "s");
    out.metric("fleet.render_s", stats::median(&render), "s");
    out.metric(
        "fleet.parallel_efficiency",
        oracle.sequential_tick_s / (workers as f64 * stats::median(&tick)),
        "ratio",
    );
    out.metric("fleet.rounds", rounds as f64, "count");
    out.metric("core.tick_ns_p50", stats::median(&all_ns), "ns");
    out.metric("core.switch_tick_ns_p50", stats::median(&switch_ns), "ns");
    out.metric("core.plain_tick_ns_p50", stats::median(&plain_ns), "ns");
    for (name, total) in COUNTS.iter().zip(counts) {
        out.metric(name, total as f64, "count");
    }
    out.metric(
        "inject.detected_ratio",
        detected as f64 / injected.max(1) as f64,
        "ratio",
    );
    if primary {
        out.metric("trace.overhead_pct", overhead_pct(&untraced, &traced), "%");
    }
    out.detail("fleet_sequential_tick_s", oracle.sequential_tick_s);
    Ok(out)
}

/// Simulated counts over the sampled machines; a simulator-only change
/// must leave every one of them unchanged.
const COUNTS: [&str; 5] = [
    "pmk.partition_switches",
    "pmk.schedule_switches",
    "pal.deadline_misses",
    "hm.log_entries",
    "core.trace_events",
];
