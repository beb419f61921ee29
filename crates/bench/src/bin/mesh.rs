//! Routed-mesh throughput and latency: N-node TM/TC campaigns over the
//! go-back-N fabric, emitting `BENCH_mesh.json`.
//!
//! For every topology (line, star, ring) at 3, 5 and 9 nodes the full
//! mesh campaign runs under one seeded fault of every link class per
//! machine, reporting:
//!
//! * **packets/sec** — per-hop packet relays of one execution divided by
//!   the wall time of one `MeshSim::run_to_horizon` of the plan (median
//!   of a few fresh builds; build, trace render, the invariant check and
//!   the runner's determinism re-run are not timed);
//! * **node-ticks, steps, skipped fraction** — the simulated span
//!   (nodes × horizon), the ticks next-event advance actually executed,
//!   and the share of the horizon it jumped over as idle;
//! * **hop latency** — one-way command latency in ticks divided by hop
//!   count, measured on a fault-free plan of the same shape (first
//!   telecommand origination to its acceptance at the executor);
//! * the invariant verdict — a throughput number from a mesh that lost
//!   or duplicated a command would be meaningless.
//!
//! Every matrix row also runs one self-healing campaign of the same
//! shape (seeded edge outage, monitors on) and reports the reroute
//! column: detected outages, reroute-boundary requeues and the
//! self-healing invariant verdict.
//!
//! `--smoke-mesh` runs a reduced gate: a 5-node line mesh fleet on
//! `AIR_FLEET_WORKERS` (default 4) workers, fleet digest checked against
//! the sequential run, non-zero exit on divergence or invariant failure
//! — the CI hook. `--smoke-reroute` is the self-healing gate: 64 seeded
//! partition campaigns spread over the three topologies and all four
//! partition scenarios, non-zero exit if any campaign loses, duplicates
//! or loops a command — or fails to reproduce its trace byte for byte.
//! `--smoke-wcrt` is the timing-certification gate: the `airlint
//! --timing` engine certifies the commander→executor flow of a member
//! set mirroring each simulated topology, 24 adversarial partition
//! campaigns replay against it, and any observed completion latency
//! above its certificate fails the build (DESIGN.md §15).

use std::time::Instant;

use air_core::mesh::{
    command_endpoints, mesh_plan, reroute_plan, MeshCampaignRunner, MeshPlan, MeshSim,
    PartitionScenario, RerouteCampaignRunner, CMD_START,
};
use air_fleet::workloads::MeshFleet;
use air_fleet::{run_fleet, run_sequential, Capture, FleetConfig};
use air_lint::lint_timing_config_texts;
use air_ports::routing::MeshTopology;

const BASE_SEED: u64 = 42;
const SIZES: [usize; 3] = [3, 5, 9];
const TOPOLOGIES: [MeshTopology; 3] =
    [MeshTopology::Line, MeshTopology::Star, MeshTopology::Ring];
const SMOKE_MACHINES: usize = 24;
const SMOKE_WORKERS_DEFAULT: usize = 4;
/// Fresh builds per timed `run_to_horizon`; the median is reported.
const RUN_REPS: usize = 5;

/// The median wall time of `RUN_REPS` runs of `plan` to its horizon,
/// each on a fresh sim built outside the timed span, with its sim.
fn timed_run(plan: &MeshPlan) -> (f64, MeshSim) {
    let mut runs: Vec<(f64, MeshSim)> = (0..RUN_REPS)
        .map(|_| {
            let mut sim = MeshSim::new(plan);
            let started = Instant::now();
            sim.run_to_horizon();
            (started.elapsed().as_secs_f64(), sim)
        })
        .collect();
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    runs.swap_remove(RUN_REPS / 2)
}

/// One-way first-command latency in ticks on a fault-free plan: the
/// executor's first `CommandAccepted` trace tick minus the origination
/// tick.
fn first_delivery_ticks(topology: MeshTopology, nodes: usize) -> Option<u64> {
    let outcome = MeshCampaignRunner::new(mesh_plan(topology, nodes, BASE_SEED, 0)).run();
    let line = outcome
        .trace_log
        .lines()
        .find(|l| l.contains("CommandAccepted"))?;
    let t = line.split("t=").nth(1)?.split_whitespace().next()?;
    t.parse::<u64>().ok().map(|t| t.saturating_sub(CMD_START))
}

fn run_smoke() -> i32 {
    let workers = air_fleet::workers_from_env(SMOKE_WORKERS_DEFAULT);
    let fleet = MeshFleet::new(BASE_SEED, 1, MeshTopology::Line, 5);
    let sharded = run_fleet(&fleet, &FleetConfig::new(SMOKE_MACHINES, workers));
    let sequential = run_sequential(&fleet, SMOKE_MACHINES, Capture::Digest);
    let agree = sharded.fleet_digest() == sequential.fleet_digest();
    let outcome = MeshCampaignRunner::new(fleet.plan_for(0)).run();
    println!(
        "smoke mesh: {SMOKE_MACHINES} five-node line meshes on {workers} workers \
         ({} rounds): {:.0} systems×ticks/sec, digests {}, machine 0 {}",
        sharded.rounds,
        sharded.systems_ticks_per_sec(),
        if agree { "agree with sequential" } else { "DIVERGED from sequential" },
        if outcome.is_ok() { "holds all invariants" } else { "VIOLATES invariants" }
    );
    if !agree {
        eprintln!("smoke mesh: sharded execution diverged from the sequential reference");
        return 1;
    }
    if !outcome.is_ok() {
        eprintln!("smoke mesh: {}", outcome.report);
        return 1;
    }
    0
}

/// The `--smoke-reroute` CI gate: 64 seeded self-healing campaigns on
/// 6-node meshes, topology and scenario cycling so every (topology,
/// scenario) pair is covered several times under distinct seeds.
fn run_smoke_reroute() -> i32 {
    const SEEDS: u64 = 64;
    let started = Instant::now();
    let (mut downs, mut reroutes, mut failures) = (0u64, 0u64, 0u32);
    for seed in 0..SEEDS {
        let topology = TOPOLOGIES[(seed % 3) as usize];
        let scenario = PartitionScenario::ALL[((seed / 3) % 4) as usize];
        let plan = reroute_plan(topology, 6, BASE_SEED + seed, scenario);
        let outcome = RerouteCampaignRunner::new(plan).run();
        downs += outcome.edge_downs;
        reroutes += outcome.reroutes;
        if !outcome.is_ok() {
            eprintln!(
                "smoke reroute: {}[6] {} seed {} violates invariants: {}",
                topology.label(),
                scenario.label(),
                BASE_SEED + seed,
                outcome.report
            );
            failures += 1;
        }
    }
    println!(
        "smoke reroute: {SEEDS} six-node partition campaigns (line/star/ring × all \
         scenarios) in {:.1}s: {downs} outages detected, {reroutes} frames rerouted, \
         {failures} invariant failures",
        started.elapsed().as_secs_f64()
    );
    if failures > 0 {
        return 1;
    }
    if downs == 0 || reroutes == 0 {
        eprintln!("smoke reroute: the sweep never exercised detection or rerouting");
        return 1;
    }
    0
}

/// Member documents mirroring the simulator's mesh exactly — same
/// topology tables, same ARQ tuning (`ArqConfig::default()`), same
/// fabric latency — with the command flow declared on the commander.
/// Kept in sync with `tests/timing_soundness_prop.rs`.
fn wcrt_member_texts(topology: MeshTopology, nodes: usize) -> Vec<String> {
    let (src, dst) = command_endpoints(topology, nodes);
    topology
        .routing_tables(nodes)
        .into_iter()
        .enumerate()
        .map(|(i, table)| {
            let mut text = format!(
                "partition P0 name=SW{i}\n\
                 schedule chi0 name=ops mtf=100\n\
                   require P0 cycle=100 duration=100\n\
                   window P0 offset=0 duration=100\n\
                 link primary_latency=2 secondary_latency=4\n\
                 arq window=8 timeout=24 backoff_cap=3 max_retries=8\n\
                 node N{i} name=NODE{i}\n"
            );
            for (route_dst, via) in table.routes() {
                text.push_str(&format!("route N{} via=N{}\n", route_dst.0, via.0));
            }
            if i == src {
                text.push_str(&format!("flow N{src}:100 -> N{dst} deadline=1000000\n"));
            }
            text.push_str(&format!("apid {} name=STREAM{i} kind=tm\n", 200 + i));
            text
        })
        .collect()
}

/// The `--smoke-wcrt` CI gate: certify the commander→executor flow of a
/// six-node member set per topology through the `airlint --timing`
/// engine, then replay 24 seeded adversarial partition campaigns on the
/// matching simulated mesh — non-zero exit if certification errors, any
/// campaign violates its invariants, or any observed end-to-end
/// completion latency exceeds its certificate.
fn run_smoke_wcrt() -> i32 {
    const NODES: usize = 6;
    const SEEDS: u64 = 24;
    let started = Instant::now();
    let mut worst_margin = u64::MAX;
    let mut samples = 0u64;
    for (t, topology) in TOPOLOGIES.into_iter().enumerate() {
        let timing = lint_timing_config_texts(&wcrt_member_texts(topology, NODES));
        if timing.report.has_errors() {
            eprintln!(
                "smoke wcrt: {}[{NODES}] member set failed certification:\n{}",
                topology.label(),
                timing.report
            );
            return 1;
        }
        let Some(certified) = timing.bounds.first().and_then(|b| b.certified) else {
            eprintln!("smoke wcrt: {}[{NODES}] produced no certified bound", topology.label());
            return 1;
        };
        for round in 0..SEEDS / TOPOLOGIES.len() as u64 {
            let scenario = PartitionScenario::ALL[(round % 4) as usize];
            let seed = BASE_SEED + t as u64 * 101 + round;
            let outcome =
                RerouteCampaignRunner::new(reroute_plan(topology, NODES, seed, scenario)).run();
            if !outcome.is_ok() {
                eprintln!(
                    "smoke wcrt: {}[{NODES}] {} seed {seed} violates invariants: {}",
                    topology.label(),
                    scenario.label(),
                    outcome.report
                );
                return 1;
            }
            samples += outcome.latency_samples;
            let observed = outcome.max_observed_latency.unwrap_or(0);
            if observed > certified {
                eprintln!(
                    "smoke wcrt: {}[{NODES}] {} seed {seed}: observed latency {observed} \
                     exceeds the certified bound {certified}",
                    topology.label(),
                    scenario.label(),
                );
                return 1;
            }
            worst_margin = worst_margin.min(certified - observed);
        }
    }
    println!(
        "smoke wcrt: {SEEDS} partition campaigns vs certified flow bounds \
         (line/star/ring × all scenarios) in {:.1}s: {samples} latency samples, \
         worst margin {worst_margin} ticks under the certificate",
        started.elapsed().as_secs_f64()
    );
    if samples == 0 {
        eprintln!("smoke wcrt: the sweep recorded no completion latencies");
        return 1;
    }
    0
}

#[allow(clippy::cast_precision_loss)] // reporting only
fn main() {
    if std::env::args().any(|a| a == "--smoke-mesh") {
        std::process::exit(run_smoke());
    }
    if std::env::args().any(|a| a == "--smoke-reroute") {
        std::process::exit(run_smoke_reroute());
    }
    if std::env::args().any(|a| a == "--smoke-wcrt") {
        std::process::exit(run_smoke_wcrt());
    }

    println!("mesh: topologies {{line, star, ring}} × {SIZES:?} nodes, seed {BASE_SEED}\n");
    let mut rows = String::new();
    let mut all_ok = true;
    for topology in TOPOLOGIES {
        for nodes in SIZES {
            let plan = mesh_plan(topology, nodes, BASE_SEED, 1);
            let (run_seconds, sim) = timed_run(&plan);
            let outcome = MeshCampaignRunner::new(plan).run();
            all_ok &= outcome.is_ok();
            let packets_per_sec = if run_seconds > 0.0 {
                outcome.forwarded as f64 / run_seconds
            } else {
                0.0
            };
            let node_ticks = nodes as u64 * sim.horizon();
            let skipped_frac = 1.0 - sim.steps() as f64 / sim.horizon() as f64;
            let delivery = first_delivery_ticks(topology, nodes).unwrap_or(0);
            let hop_latency = if outcome.command_hops > 0 {
                delivery as f64 / outcome.command_hops as f64
            } else {
                0.0
            };
            // The reroute column: one seeded edge-outage campaign of the
            // same shape, with link-health monitors installed. Detection
            // is traffic-driven, so the seed is scanned (deterministically)
            // until the outage lands on an edge the workload exercises.
            let mut reroute = None;
            for salt in 0..8 {
                let outcome = RerouteCampaignRunner::new(reroute_plan(
                    topology,
                    nodes,
                    BASE_SEED + salt,
                    PartitionScenario::EdgeOutage,
                ))
                .run();
                let detected = outcome.edge_downs > 0;
                let fallback = reroute.is_none() && salt == 7;
                if detected || fallback {
                    reroute = Some(outcome);
                    if detected {
                        break;
                    }
                }
            }
            let reroute = reroute.expect("seed scan always yields an outcome");
            all_ok &= reroute.is_ok();
            println!(
                "{:>4}[{nodes}]: {:>9.0} packets/sec  {} of {} ticks stepped ({:.1}% skipped)  \
                 {} hops, first delivery {delivery} ticks ({hop_latency:.1}/hop)  {} cmds, \
                 {} retransmits, invariants {}  | reroute: {} outages, {} requeues, {}",
                topology.label(),
                packets_per_sec,
                sim.steps(),
                sim.horizon(),
                100.0 * skipped_frac,
                outcome.command_hops,
                outcome.expected,
                outcome.retransmissions,
                if outcome.is_ok() { "hold" } else { "VIOLATED" },
                reroute.edge_downs,
                reroute.reroutes,
                if reroute.is_ok() { "self-heals" } else { "VIOLATED" }
            );
            if !rows.is_empty() {
                rows.push_str(",\n");
            }
            rows.push_str(&format!(
                "    {{\"topology\": \"{}\", \"nodes\": {nodes}, \
                 \"packets_per_sec\": {packets_per_sec:.0}, \
                 \"node_ticks\": {node_ticks}, \"steps\": {}, \
                 \"skipped_frac\": {skipped_frac:.4}, \
                 \"command_hops\": {}, \"first_delivery_ticks\": {delivery}, \
                 \"hop_latency_ticks\": {hop_latency:.2}, \
                 \"commands\": {}, \"retransmissions\": {}, \
                 \"invariants_hold\": {}, \
                 \"reroute_edge_downs\": {}, \"reroute_requeues\": {}, \
                 \"reroute_invariants_hold\": {}}}",
                topology.label(),
                sim.steps(),
                outcome.command_hops,
                outcome.expected,
                outcome.retransmissions,
                outcome.is_ok(),
                reroute.edge_downs,
                reroute.reroutes,
                reroute.is_ok()
            ));
        }
    }

    let json = format!(
        "{{\n  \"experiment\": \"N-node routed mesh TM/TC campaigns\",\n  \
           \"profile\": \"{}\",\n  \"base_seed\": {BASE_SEED},\n  \
           \"per_class_faults\": 1,\n  \"meshes\": [\n{rows}\n  ],\n  \
           \"all_invariants_hold\": {all_ok}\n}}\n",
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );
    std::fs::write("BENCH_mesh.json", &json).expect("write BENCH_mesh.json");
    println!("\nall_invariants_hold={all_ok} → BENCH_mesh.json written");
    if !all_ok {
        std::process::exit(1);
    }
}
