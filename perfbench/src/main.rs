//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a provenance line, then as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer metrics of every
//! workload and writes the spans to `perfbench/out/`.

use std::fmt::Write as _;
use std::process::ExitCode;

use perfbench::trace::Tracer;
use perfbench::{host_parallelism, Outcome, RunConfig, Size, Workload};

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 42;
/// Seed kept out of tuning; a later change confirms its claim on it.
const HELD_OUT_SEED: u64 = 20_261_017;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 25.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload = workload.ok_or_else(|| format!("--workload is required: one of {names:?}"))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The checked-out commit, when the checkout is a git repository.
fn commit() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let read = |path: String| {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(format!("{git}/HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(reference) => read(format!("{git}/{reference}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

fn number(value: f64) -> Result<String, String> {
    if value.is_finite() {
        Ok(value.to_string())
    } else {
        Err(format!("non-finite value {value}"))
    }
}

fn provenance(args: &Args, cfg: &RunConfig, outcome: &Outcome) -> Result<String, String> {
    let s = &cfg.size;
    let mut details = String::new();
    for (i, (name, value)) in outcome.details.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(details, "{sep}\"{name}\": {}", number(*value)?);
    }
    Ok(format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"default_seed\": {DEFAULT_SEED}, \"held_out_seed\": {HELD_OUT_SEED}, \"nproc\": {}, \
         \"workers\": {}, \"profile\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \
         \"sizes\": {{\"fleet_machines\": {}, \"fleet_per_class\": {}, \"fleet_sample\": {}, \
         \"mesh_nodes\": {:?}, \"verify_depth\": {}, \"fuzz_window\": {}, \"setup_reps\": {}}}}}, \
         \"details\": {{{details}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_parallelism(),
        cfg.workers,
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_RUSTC"),
        commit(),
        s.fleet_machines,
        s.fleet_per_class,
        s.fleet_sample,
        s.mesh_nodes,
        s.verify_depth,
        s.fuzz_window,
        s.setup_reps,
    ))
}

fn result(outcome: &Outcome, correct: bool) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            number(m.value)?,
            m.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted, outcome.failed
    ))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; build with --release".to_string());
    }
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        workers: host_parallelism(),
        size: Size::standard(),
    };
    let (outcome, trace_ok) = if args.trace {
        let mut tracer = Tracer::new();
        let mut outcome = Outcome::default();
        for w in Workload::ALL {
            outcome.absorb(w.trace(&cfg, w == args.workload, &mut tracer)?);
        }
        let check = tracer.check();
        if let Err(e) = &check {
            eprintln!("perfbench: malformed trace: {e}");
        }
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace-{}-{}.jsonl", args.workload.name(), args.seed);
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json_lines()))
            .map_err(|e| format!("{path}: {e}"))?;
        (outcome, check.is_ok())
    } else {
        (args.workload.run(&cfg)?, true)
    };
    println!("{}", provenance(&args, &cfg, &outcome)?);
    println!("{}", result(&outcome, trace_ok && outcome.failed == 0)?);
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
