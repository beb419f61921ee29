//! `verify_hub`: the full `airlint --explore --timing` pipeline on
//! `examples/constellation_hub.air` with the default explorer settings.
//!
//! One operation is one verdict: parse → `SystemModel` → `lint` →
//! `explore_with` → `lint_timing`. The input is the fixed example; the
//! seed does not change it.

use std::hint::black_box;
use std::time::Instant;

use air_lint::{
    explore_with, lint, lint_timing, transition_system_for, ExploreConfig, SystemModel,
};
use air_model::explore::search::{search, SearchConfig};

use crate::trace::{Stages, Tracer};
use crate::{closed_loop, overhead_pct, secs, stats, Outcome, RunConfig, SetupSamples};

/// The hub example, read from the repository.
const HUB_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../examples/constellation_hub.air"
);

/// The hub flow's declared deadline, in ticks.
pub const HUB_DEADLINE: u64 = 6000;

fn explore_config(depth: usize) -> ExploreConfig {
    ExploreConfig {
        depth,
        ..ExploreConfig::default()
    }
}

/// A checked verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// No Error diagnostic anywhere, and the flow's certified bound
    /// exists and meets [`HUB_DEADLINE`].
    pub ok: bool,
    /// Abstract states the exploration reached.
    pub states: usize,
    /// The certified bound of the first declared flow.
    pub certified: Option<u64>,
}

/// Runs the pipeline on `text`, timing its stages into `stages`.
pub fn verdict(text: &str, depth: usize, stages: &mut Stages) -> Verdict {
    let Ok(doc) = stages.run("tools.parse", || air_tools::config::parse(text)) else {
        return Verdict {
            ok: false,
            states: 0,
            certified: None,
        };
    };
    let model = stages.run("lint.model", || SystemModel::from_config(&doc));
    let report = stages.run("lint.analyses", || lint(&model));
    let exploration = stages.run("explore.explore_with", || {
        explore_with(&model, &explore_config(depth))
    });
    let timing = stages.run("lint.timing", || lint_timing(std::slice::from_ref(&model)));
    let certified = timing.bounds.first().and_then(|b| b.certified);
    Verdict {
        ok: !report.has_errors()
            && !exploration.report.has_errors()
            && !timing.report.has_errors()
            && certified.is_some_and(|c| c <= HUB_DEADLINE),
        states: exploration.states_explored,
        certified,
    }
}

fn read_hub() -> Result<String, String> {
    std::fs::read_to_string(HUB_PATH).map_err(|e| format!("{HUB_PATH}: {e}"))
}

/// One set-up: read the configuration, parse it, build the model. A
/// configuration that stopped parsing mid-run yields NaN, which the
/// result writer refuses.
fn setup_once() -> f64 {
    let start = Instant::now();
    let Some(doc) = read_hub()
        .ok()
        .and_then(|text| air_tools::config::parse(&text).ok())
    else {
        return f64::NAN;
    };
    black_box(SystemModel::from_config(&doc));
    start.elapsed().as_secs_f64()
}

/// The end-to-end run.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let text = read_hub()?;
    air_tools::config::parse(&text).map_err(|e| format!("{HUB_PATH}: {}", e.message))?;
    let mut setup = SetupSamples::new(cfg.size.setup_reps, cfg.seconds);
    let mut out = Outcome::default();
    let mut ops = Vec::new();
    let (mut states, mut repeated) = (None, true);
    closed_loop(cfg.seconds, 1, |_| {
        setup.take_due(setup_once);
        let start = Instant::now();
        let v = verdict(&text, cfg.size.verify_depth, &mut Stages::off());
        ops.push(start.elapsed().as_secs_f64());
        out.check(v.ok);
        repeated &= *states.get_or_insert(v.states) == v.states;
    });
    if !repeated {
        // Every verdict explores the same input; the state count must repeat.
        out.failed = out.attempted;
    }
    out.end_to_end_ops(&setup.finish(setup_once), &ops);
    Ok(out)
}

/// The traced run: the verdict's stages, then a probe that splits
/// `explore_with` into transition-system build, search at 1 and at all
/// host workers, and bare successor generation over every reached state.
pub fn trace(cfg: &RunConfig, primary: bool, tracer: &mut Tracer) -> Result<Outcome, String> {
    let text = read_hub()?;
    let doc = air_tools::config::parse(&text).map_err(|e| format!("{HUB_PATH}: {}", e.message))?;
    let model = SystemModel::from_config(&doc);
    let depth = cfg.size.verify_depth;
    let mut out = Outcome::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut stage_s: [Vec<f64>; 4] = Default::default();
    let (mut ts_build, mut search_1, mut search_n, mut successors, mut check) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut states, mut edges, mut certified) = (0, 0, 0);
    closed_loop(if primary { cfg.seconds } else { 0.0 }, 1, |_| {
        if primary {
            let start = Instant::now();
            let v = verdict(&text, depth, &mut Stages::off());
            untraced.push(start.elapsed().as_secs_f64());
            out.check(v.ok);
        }
        let op = tracer.op();
        let mut stages = Stages::on();
        let start = Instant::now();
        let v = verdict(&text, depth, &mut stages);
        let end = Instant::now();
        let root = tracer.record("verify_hub.op", op, None, start, end);
        for (samples, name) in stage_s.iter_mut().zip(STAGES) {
            samples.push(stages.seconds(name));
        }
        let explore_s = stages.seconds("explore.explore_with");
        stages.record_into(tracer, op, root);
        traced.push(secs(start, end));

        let mut probe = Stages::on();
        let probe_start = Instant::now();
        let Some(ts) = probe.run("explore.ts_build", || transition_system_for(&model)) else {
            out.check(false);
            return;
        };
        let defaults = explore_config(depth);
        let search_config = |workers| SearchConfig {
            depth,
            max_states: defaults.max_states,
            workers,
            por: defaults.por,
        };
        let graph = probe.run("explore.search", || {
            search(&ts, &search_config(defaults.workers))
        });
        let parallel = probe.run("explore.search_parallel", || {
            search(&ts, &search_config(cfg.workers))
        });
        let parallel_states = parallel.states.len();
        drop(parallel);
        probe.run("explore.successors", || {
            for state in &graph.states {
                for event in ts.enabled_events(state) {
                    black_box(ts.step(state, event));
                }
            }
        });
        let probe_root = tracer.record("explore.probe", op, None, probe_start, Instant::now());
        ts_build.push(probe.seconds("explore.ts_build"));
        search_1.push(probe.seconds("explore.search"));
        search_n.push(probe.seconds("explore.search_parallel"));
        successors.push(probe.seconds("explore.successors"));
        check.push(explore_s - probe.seconds("explore.ts_build") - probe.seconds("explore.search"));
        probe.record_into(tracer, op, probe_root);
        // The probe must see the graph the verdict saw, at any worker count.
        out.check(v.ok && graph.states.len() == v.states && parallel_states == v.states);
        states = graph.states.len();
        edges = graph.edges.len();
        certified = v.certified.unwrap_or(0);
    });
    for (samples, name) in stage_s.iter().zip(STAGE_METRICS) {
        out.metric(name, stats::median(samples) * 1e3, "ms");
    }
    let search_s = stats::median(&search_1);
    out.metric("explore.ts_build_ms", stats::median(&ts_build) * 1e3, "ms");
    out.metric("explore.search_ms", search_s * 1e3, "ms");
    out.metric(
        "explore.successor_ms",
        stats::median(&successors) * 1e3,
        "ms",
    );
    out.metric("explore.check_ms", stats::median(&check) * 1e3, "ms");
    out.metric("explore.states", states as f64, "count");
    out.metric("explore.edges", edges as f64, "count");
    out.metric(
        "explore.dup_edge_ratio",
        (edges as f64 - states as f64 + 1.0) / edges.max(1) as f64,
        "ratio",
    );
    out.metric("explore.states_per_s", states as f64 / search_s, "1/s");
    out.metric(
        "explore.parallel_speedup",
        search_s / stats::median(&search_n),
        "ratio",
    );
    out.metric("timing.certified_ticks", certified as f64, "ticks");
    if primary {
        out.metric("trace.overhead_pct", overhead_pct(&untraced, &traced), "%");
    }
    out.detail("explore_workers_parallel", cfg.workers as f64);
    Ok(out)
}

/// The verdict stages reported on their own.
const STAGES: [&str; 4] = ["tools.parse", "lint.model", "lint.analyses", "lint.timing"];
const STAGE_METRICS: [&str; 4] = [
    "tools.parse_ms",
    "lint.model_ms",
    "lint.analyses_ms",
    "lint.timing_ms",
];
