//! `fuzz_farm`: `air_core::fuzz::run_fuzz(seed, 1, 4)` over consecutive
//! generated seeds.
//!
//! One operation is one case: generate → parse → explore → minimize →
//! concrete replay on an `AirSystem` twin. Every case must replay
//! without a divergence.

use std::hint::black_box;
use std::time::Instant;

use air_core::fuzz::{generate_config_text, run_fuzz};
use air_lint::{
    explore_with, lint, minimize_witness_with, transition_system_for, ExploreConfig, SystemModel,
};

use crate::trace::{Stages, Tracer};
use crate::{closed_loop, overhead_pct, secs, stats, Outcome, RunConfig, SetupSamples};

/// Exploration depth of every case.
pub const FUZZ_DEPTH: usize = 4;

/// Cases every run starts with, whatever its seed: generator seeds
/// `0..CORPUS`. Peak memory is set by the heaviest cases a process has
/// seen and the heap they leave fragmented (seeds 3 and 7 take it from
/// 2 to 35 MiB); a shared prefix makes it comparable between runs.
const CORPUS: usize = 16;

/// Case `i`'s generator seed: the corpus, then consecutive seeds from
/// the run seed on.
fn case_seed(seed: u64, i: usize) -> u64 {
    match i.checked_sub(CORPUS) {
        None => i as u64,
        Some(k) => seed.wrapping_add(k as u64),
    }
}

/// One case through the farm; whether it replayed without divergence.
fn case(seed: u64) -> (bool, air_core::fuzz::FuzzReport) {
    let report = run_fuzz(seed, 1, FUZZ_DEPTH);
    (report.cases == 1 && report.divergences.is_empty(), report)
}

/// One set-up: generate, parse and model the first cases and build
/// their transition systems.
fn setup_once(cfg: &RunConfig) -> f64 {
    let start = Instant::now();
    for i in 0..cfg.size.fuzz_window {
        let text = generate_config_text(case_seed(cfg.seed, i));
        if let Ok(doc) = air_tools::config::parse(&text) {
            black_box(transition_system_for(&SystemModel::from_config(&doc)));
        }
    }
    start.elapsed().as_secs_f64()
}

/// The end-to-end run.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut setup = SetupSamples::new(cfg.size.setup_reps, cfg.seconds);
    let mut out = Outcome::default();
    let mut ops = Vec::new();
    closed_loop(cfg.seconds, 1, |i| {
        setup.take_due(|| setup_once(cfg));
        let start = Instant::now();
        let (ok, _) = case(case_seed(cfg.seed, i));
        ops.push(start.elapsed().as_secs_f64());
        out.check(ok);
    });
    out.end_to_end_ops(&setup.finish(|| setup_once(cfg)), &ops);
    Ok(out)
}

/// The farm's stages, re-run on the case's input.
const STAGES: [&str; 6] = [
    "fuzz.generate",
    "tools.parse",
    "lint.model",
    "lint.analyses",
    "explore.explore",
    "explore.minimize",
];

/// The traced run: each case through `run_fuzz`, then its stages run on
/// their own. `run_fuzz` does not run the static analyses, so
/// `lint.analyses` is reported beside the case but left out of the
/// replay residual.
pub fn trace(cfg: &RunConfig, primary: bool, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut stage_s: [Vec<f64>; 6] = Default::default();
    let mut replay = Vec::new();
    let (mut findings, mut replayed, mut minimized) = (0, 0, 0);
    let config = ExploreConfig {
        depth: FUZZ_DEPTH,
        ..ExploreConfig::default()
    };
    let window = cfg.size.fuzz_window;
    closed_loop(if primary { cfg.seconds } else { 0.0 }, window, |i| {
        let seed = case_seed(cfg.seed, i);
        if primary {
            let start = Instant::now();
            let (ok, _) = case(seed);
            untraced.push(start.elapsed().as_secs_f64());
            out.check(ok);
        }
        let op = tracer.op();
        let start = Instant::now();
        let (ok, report) = case(seed);
        let end = Instant::now();
        tracer.record("fuzz_farm.op", op, None, start, end);
        traced.push(secs(start, end));

        let mut stages = Stages::on();
        let stages_start = Instant::now();
        let text = stages.run("fuzz.generate", || generate_config_text(seed));
        let parsed = stages.run("tools.parse", || air_tools::config::parse(&text));
        if let Ok(doc) = parsed {
            let model = stages.run("lint.model", || SystemModel::from_config(&doc));
            black_box(stages.run("lint.analyses", || lint(&model)));
            let exploration = stages.run("explore.explore", || explore_with(&model, &config));
            for cx in &exploration.counterexamples {
                black_box(stages.run("explore.minimize", || {
                    minimize_witness_with(&model, cx, &config)
                }));
            }
        }
        let root = tracer.record("fuzz.stages", op, None, stages_start, Instant::now());
        let mut parts = 0.0;
        for (samples, name) in stage_s.iter_mut().zip(STAGES) {
            let s = stages.seconds(name);
            samples.push(s);
            if name != "lint.analyses" {
                parts += s;
            }
        }
        replay.push(secs(start, end) - parts);
        stages.record_into(tracer, op, root);
        out.check(ok);

        if i < window {
            findings += report.findings;
            replayed += report.replayed;
            minimized += report.minimized;
            tracer.count("fuzz.findings", op, report.findings as f64);
            tracer.count("fuzz.replayed", op, report.replayed as f64);
            tracer.count("fuzz.minimized", op, report.minimized as f64);
        }
    });
    // Cases differ in size, so the stage costs are means: they add up
    // to the mean case.
    for (samples, name) in stage_s.iter().zip(STAGE_METRICS) {
        out.metric(name, stats::mean(samples) * 1e6, "us");
    }
    out.metric("core.replay_us", stats::mean(&replay) * 1e6, "us");
    out.metric("fuzz.findings", findings as f64, "count");
    out.metric("fuzz.replayed", replayed as f64, "count");
    out.metric("fuzz.minimized", minimized as f64, "count");
    if primary {
        out.metric("trace.overhead_pct", overhead_pct(&untraced, &traced), "%");
    }
    out.detail("fuzz_traced_cases", traced.len() as f64);
    Ok(out)
}

const STAGE_METRICS: [&str; 6] = [
    "fuzz.generate_us",
    "tools.parse_us",
    "lint.model_us",
    "lint.analyses_us",
    "explore.explore_us",
    "explore.minimize_us",
];
