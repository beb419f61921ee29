//! Oracle suite for next-event time advance in `MeshSim`.
//!
//! `MeshSim::run_for` and `MeshSim::run_to_horizon` jump `now` over idle
//! ticks to the earliest tick at which any component can act. The
//! contract: a run advanced that way is indistinguishable from calling
//! `step()` on every tick. Each case here runs one plan both ways and
//! demands byte-identical `render_trace_into` output and equal
//! `MeshStatus` counters (all but `steps`, which counts the ticks
//! actually executed and is exactly what the jump saves).
//!
//! Coverage: line, star and ring meshes at 3, 6 and 9 nodes under all
//! four partition scenarios — including the 9-node-ring campaigns that
//! fail their reroute invariants, since trace equality does not depend
//! on the verdict — plus node-failover plans, legacy seeded link-fault
//! plans with one and two faults per class (armed drop, tamper and
//! ack-loss faults must strike the same frames), generated outage and
//! drop plans striking arbitrary (mostly idle) ticks, and the same runs
//! chopped into xorshift-random `run_for` chunks.
//!
//! Any failure prints the plan for replay.

use air_core::mesh::{
    fallback_plan, mesh_plan, reroute_plan, MeshPlan, MeshSim, MeshStatus, PartitionScenario,
};
use air_hw::inject::{FaultClass, FaultEvent, FaultPlan};
use air_model::testkit::TestRng;
use air_ports::routing::MeshTopology;

const TOPOLOGIES: [MeshTopology; 3] = [MeshTopology::Line, MeshTopology::Star, MeshTopology::Ring];
const SIZES: [usize; 3] = [3, 6, 9];

/// What a finished run leaves behind: the rendered per-node traces and
/// the status counters, with the executed-tick count split off.
struct Run {
    trace: String,
    status: MeshStatus,
    steps: u64,
}

fn finish(sim: &MeshSim) -> Run {
    let mut trace = String::new();
    sim.render_trace_into(&mut trace);
    let status = sim.status();
    Run {
        trace,
        steps: status.steps,
        status: MeshStatus { steps: 0, ..status },
    }
}

/// The reference: `step()` on every tick up to the horizon.
fn stepped(plan: &MeshPlan) -> Run {
    let mut sim = MeshSim::new(plan);
    while !sim.is_done() {
        sim.step();
    }
    let run = finish(&sim);
    assert_eq!(
        run.steps,
        sim.horizon(),
        "the reference executes every tick"
    );
    run
}

fn assert_same(label: &str, jumped: &Run, reference: &Run) {
    assert!(
        jumped.trace == reference.trace,
        "{label}: jumped trace diverged from the stepped reference\n\
         --- stepped ---\n{}\n--- jumped ---\n{}",
        reference.trace,
        jumped.trace
    );
    assert_eq!(
        jumped.status, reference.status,
        "{label}: status counters diverged"
    );
    assert!(
        jumped.steps <= reference.steps,
        "{label}: the jump executed more ticks than stepping"
    );
}

/// Runs `plan` to its horizon both ways and compares.
fn check_to_horizon(label: &str, plan: &MeshPlan) -> Run {
    let reference = stepped(plan);
    let mut sim = MeshSim::new(plan);
    sim.run_to_horizon();
    assert_eq!(sim.now(), sim.horizon(), "{label}");
    let jumped = finish(&sim);
    assert_same(label, &jumped, &reference);
    jumped
}

#[test]
fn partition_campaigns_match_the_stepped_reference() {
    let mut rng = TestRng::new(0x0E7E_0001);
    for topology in TOPOLOGIES {
        for nodes in SIZES {
            for scenario in PartitionScenario::ALL {
                let seed = rng.range(1, 1 << 20);
                let plan = reroute_plan(topology, nodes, seed, scenario);
                let label = format!(
                    "{}[{nodes}] {} seed {seed}",
                    topology.label(),
                    scenario.label()
                );
                check_to_horizon(&label, &plan);
            }
        }
    }
}

#[test]
fn failing_nine_node_ring_campaigns_still_match_the_reference() {
    // The known hop-budget defect: these campaigns lose commands, and
    // the jump must reproduce the failure tick for tick.
    for scenario in [
        PartitionScenario::NodeIsolation,
        PartitionScenario::HealedPartition,
    ] {
        for seed in 0..6u64 {
            let plan = reroute_plan(MeshTopology::Ring, 9, seed, scenario);
            let label = format!("ring[9] {} seed {seed}", scenario.label());
            check_to_horizon(&label, &plan);
        }
    }
}

#[test]
fn failover_campaigns_match_the_stepped_reference() {
    // A permanent isolation keeps probing dead edges until the horizon.
    for topology in TOPOLOGIES {
        for nodes in [5usize, 9] {
            let plan = fallback_plan(topology, nodes, 3);
            check_to_horizon(&format!("{}[{nodes}] fallback", topology.label()), &plan);
        }
    }
}

#[test]
fn legacy_fault_campaigns_match_the_stepped_reference() {
    let mut rng = TestRng::new(0x0E7E_0002);
    for topology in TOPOLOGIES {
        for nodes in SIZES {
            for per_class in [1usize, 2] {
                let seed = rng.range(1, 1 << 20);
                let plan = mesh_plan(topology, nodes, seed, per_class);
                let label = format!(
                    "{}[{nodes}] legacy per_class={per_class} seed {seed}",
                    topology.label()
                );
                check_to_horizon(&label, &plan);
            }
        }
    }
}

#[test]
fn outages_and_drops_at_arbitrary_ticks_match_the_stepped_reference() {
    // A link outage lasts from the tick it strikes, so one due on a tick
    // where nothing else happens must still be struck on that very tick:
    // struck at the next busy tick instead it would end later and could
    // swallow a retransmission round the stepped run delivers. The
    // generated plans put three to five outages and drops on arbitrary
    // ticks of small meshes, most of them idle.
    let mut rng = TestRng::new(0x0E7E_0004);
    for case in 0..60u64 {
        let topology = TOPOLOGIES[rng.below_usize(TOPOLOGIES.len())];
        let nodes = 3 + rng.below_usize(3);
        let events = (0..3 + rng.below_usize(3))
            .map(|_| FaultEvent {
                at: rng.below(600),
                class: if rng.chance(3, 4) {
                    FaultClass::LinkOutage
                } else {
                    FaultClass::LinkDrop
                },
                target: rng.next_u64(),
            })
            .collect();
        let plan = MeshPlan {
            faults: FaultPlan::from_events(case, events),
            ..mesh_plan(topology, nodes, 0, 0)
        };
        let label = format!(
            "case {case}: {}[{nodes}] {:?}",
            topology.label(),
            plan.faults
        );
        check_to_horizon(&label, &plan);
    }
}

#[test]
fn random_run_for_chunks_match_the_stepped_reference() {
    let mut rng = TestRng::new(0x0E7E_0003);
    for case in 0..12u64 {
        let topology = TOPOLOGIES[rng.below_usize(TOPOLOGIES.len())];
        let nodes = SIZES[rng.below_usize(SIZES.len())];
        let seed = rng.range(1, 1 << 20);
        let plan = if case % 3 == 2 {
            mesh_plan(topology, nodes, seed, 1 + rng.below_usize(2))
        } else {
            let scenario = PartitionScenario::ALL[rng.below_usize(PartitionScenario::ALL.len())];
            reroute_plan(topology, nodes, seed, scenario)
        };
        let label = format!("case {case}: {}[{nodes}] seed {seed}", topology.label());
        let reference = stepped(&plan);
        let mut sim = MeshSim::new(&plan);
        while !sim.is_done() {
            // Mostly short chunks (fleet-round sized), some long ones,
            // and the occasional zero.
            let n = match rng.below(8) {
                0 => 0,
                1 => rng.range(500, 5000),
                _ => rng.range(1, 64),
            };
            let before = sim.now();
            sim.run_for(n);
            assert_eq!(
                sim.now(),
                (before + n).min(sim.horizon()),
                "{label}: run_for({n}) from {before} must stop exactly there"
            );
        }
        assert_same(&label, &finish(&sim), &reference);
    }
}

#[test]
fn the_jump_skips_the_idle_tail() {
    // Traffic dies out within the first ~1k ticks of a 20k+ tick
    // horizon; the executed-tick counter makes the skipped span visible.
    let plan = reroute_plan(MeshTopology::Star, 9, 7, PartitionScenario::EdgeOutage);
    let run = check_to_horizon("star[9] edge-outage seed 7", &plan);
    let horizon = MeshSim::new(&plan).horizon();
    assert!(
        run.steps * 4 < horizon,
        "{} of {horizon} ticks executed: idle ticks were not skipped",
        run.steps
    );
    let mut sim = MeshSim::new(&plan);
    sim.run_for(0);
    assert_eq!((sim.now(), sim.steps()), (0, 0), "run_for(0) is a no-op");
    sim.step();
    assert_eq!((sim.now(), sim.steps()), (1, 1));
}
