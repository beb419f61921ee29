//! `mesh_heal`: self-healing mesh campaigns (`RerouteCampaignRunner`)
//! cycling through line/star/ring topologies, the configured mesh sizes
//! and all four partition scenarios over generated seeds.
//!
//! One operation is one campaign, including its built-in determinism
//! re-run and invariant check. Runs stop only at the end of a full
//! rotation, so every run measures the same mix of campaigns.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use air_core::mesh::{reroute_plan, MeshPlan, MeshSim, PartitionScenario, RerouteCampaignRunner};
use air_fleet::machine_seed;
use air_ports::routing::MeshTopology;

use crate::trace::{Stages, Tracer};
use crate::{closed_loop, overhead_pct, secs, stats, Outcome, RunConfig, SetupSamples, Size};

const TOPOLOGIES: [MeshTopology; 3] = [MeshTopology::Line, MeshTopology::Star, MeshTopology::Ring];

/// Campaigns the rotation leaves out because the program fails them:
/// on a 9-node ring, isolating the executor (and, more rarely, two
/// healed edge losses) exhausts the reroute hop budget and loses
/// commands (90 and 12 of 200 generated seeds). A benchmark operation
/// must succeed to be measured; the defect is recorded in `README.md`.
const FAILING: [(MeshTopology, usize, PartitionScenario); 2] = [
    (MeshTopology::Ring, 9, PartitionScenario::NodeIsolation),
    (MeshTopology::Ring, 9, PartitionScenario::HealedPartition),
];

/// Every (topology, nodes, scenario) of one rotation.
fn rotation(size: &Size) -> Vec<(MeshTopology, usize, PartitionScenario)> {
    let mut combos = Vec::new();
    for topology in TOPOLOGIES {
        for &nodes in size.mesh_nodes {
            for scenario in PartitionScenario::ALL {
                if !FAILING.contains(&(topology, nodes, scenario)) {
                    combos.push((topology, nodes, scenario));
                }
            }
        }
    }
    combos
}

/// Campaign `i`'s plan: rotation slot `i mod len`, seeded per campaign.
fn plan(seed: u64, i: usize, rotation: &[(MeshTopology, usize, PartitionScenario)]) -> MeshPlan {
    let (topology, nodes, scenario) = rotation[i % rotation.len()];
    reroute_plan(topology, nodes, machine_seed(seed, i), scenario)
}

/// One set-up: the checked build (the reachability walk) of one mesh
/// per topology and size of the rotation.
fn setup_once(cfg: &RunConfig) -> f64 {
    let start = Instant::now();
    for topology in TOPOLOGIES {
        for &nodes in cfg.size.mesh_nodes {
            let plan = reroute_plan(topology, nodes, cfg.seed, PartitionScenario::EdgeOutage);
            black_box(MeshSim::new(&plan));
        }
    }
    start.elapsed().as_secs_f64()
}

/// The end-to-end run.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut setup = SetupSamples::new(cfg.size.setup_reps, cfg.seconds);
    let rotation = rotation(&cfg.size);
    let mut out = Outcome::default();
    let mut ops = Vec::new();
    closed_loop(cfg.seconds, 1, |r| {
        for j in 0..rotation.len() {
            setup.take_due(|| setup_once(cfg));
            let plan = plan(cfg.seed, r * rotation.len() + j, &rotation);
            let start = Instant::now();
            let ok = RerouteCampaignRunner::new(plan).run().is_ok();
            ops.push(start.elapsed().as_secs_f64());
            out.check(ok);
        }
    });
    out.end_to_end_ops(&setup.finish(|| setup_once(cfg)), &ops);
    Ok(out)
}

/// Simulated counts over the first rotation; a simulator-only change
/// must leave every one of them unchanged.
#[derive(Debug, Default)]
struct Counts {
    node_ticks: u64,
    traced_ticks: u64,
    horizon: u64,
    forwarded: u64,
    retransmissions: u64,
    reroutes: u64,
    edge_downs: u64,
    flow_latency_max: u64,
    run_s: f64,
}

/// The traced run: each campaign, then one probe simulation of the same
/// plan split into build, run to horizon and trace render.
pub fn trace(cfg: &RunConfig, primary: bool, tracer: &mut Tracer) -> Result<Outcome, String> {
    let rotation = rotation(&cfg.size);
    let mut out = Outcome::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut build, mut run, mut render, mut check) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut counts = Counts::default();
    closed_loop(if primary { cfg.seconds } else { 0.0 }, 1, |r| {
        for j in 0..rotation.len() {
            let plan = plan(cfg.seed, r * rotation.len() + j, &rotation);
            if primary {
                let start = Instant::now();
                let outcome = RerouteCampaignRunner::new(plan.clone()).run();
                untraced.push(start.elapsed().as_secs_f64());
                out.check(outcome.is_ok());
            }
            let op = tracer.op();
            let start = Instant::now();
            let outcome = RerouteCampaignRunner::new(plan.clone()).run();
            let end = Instant::now();
            tracer.record("mesh_heal.op", op, None, start, end);
            out.check(outcome.is_ok());

            let mut stages = Stages::on();
            let probe_start = Instant::now();
            let mut sim = stages.run("mesh.build", || MeshSim::new(&plan));
            stages.run("mesh.run", || sim.run_to_horizon());
            let mut log = String::new();
            stages.run("mesh.render", || sim.render_trace_into(&mut log));
            let probe = tracer.record("mesh.probe", op, None, probe_start, Instant::now());
            let (b, s, d) = (
                stages.seconds("mesh.build"),
                stages.seconds("mesh.run"),
                stages.seconds("mesh.render"),
            );
            stages.record_into(tracer, op, probe);
            build.push(b);
            run.push(s);
            render.push(d);
            // The runner builds, runs and renders twice (its determinism
            // probe); what remains is the invariant check.
            check.push(secs(start, end) - 2.0 * (b + s + d));
            traced.push(secs(start, end));

            if r == 0 {
                let node_ticks = plan.nodes as u64 * sim.horizon();
                let ticks: BTreeSet<&str> = log
                    .lines()
                    .filter_map(|line| line.split_whitespace().nth(1)?.strip_prefix("t="))
                    .collect();
                let forwarded = log
                    .lines()
                    .filter(|l| l.contains("PacketForwarded"))
                    .count() as u64;
                for (name, value) in [
                    ("mesh.node_ticks", node_ticks),
                    ("mesh.traced_ticks", ticks.len() as u64),
                    ("mesh.forwarded", forwarded),
                    ("mesh.retransmissions", outcome.retransmissions),
                    ("mesh.reroutes", outcome.reroutes),
                    ("mesh.edge_downs", outcome.edge_downs),
                ] {
                    tracer.count(name, op, value as f64);
                }
                counts.node_ticks += node_ticks;
                counts.traced_ticks += ticks.len() as u64;
                counts.horizon += sim.horizon();
                counts.forwarded += forwarded;
                counts.retransmissions += outcome.retransmissions;
                counts.reroutes += outcome.reroutes;
                counts.edge_downs += outcome.edge_downs;
                counts.flow_latency_max = counts
                    .flow_latency_max
                    .max(outcome.max_observed_latency.unwrap_or(0));
                counts.run_s += s;
            }
        }
    });
    out.metric("mesh.build_us", stats::median(&build) * 1e6, "us");
    out.metric("mesh.run_ms", stats::median(&run) * 1e3, "ms");
    out.metric("mesh.render_ms", stats::median(&render) * 1e3, "ms");
    out.metric("mesh.check_ms", stats::median(&check) * 1e3, "ms");
    out.metric(
        "mesh.ns_per_node_tick",
        counts.run_s * 1e9 / counts.node_ticks as f64,
        "ns",
    );
    out.metric(
        "mesh.traced_tick_frac",
        counts.traced_ticks as f64 / counts.horizon as f64,
        "ratio",
    );
    out.metric("mesh.node_ticks", counts.node_ticks as f64, "count");
    out.metric("mesh.forwarded", counts.forwarded as f64, "count");
    out.metric(
        "mesh.retransmissions",
        counts.retransmissions as f64,
        "count",
    );
    out.metric("mesh.reroutes", counts.reroutes as f64, "count");
    out.metric("mesh.edge_downs", counts.edge_downs as f64, "count");
    out.metric(
        "mesh.flow_latency_ticks_max",
        counts.flow_latency_max as f64,
        "ticks",
    );
    if primary {
        out.metric("trace.overhead_pct", overhead_pct(&untraced, &traced), "%");
    }
    out.detail("mesh_rotation", rotation.len() as f64);
    Ok(out)
}
