//! The benchmark's own checks: traced span trees are well formed, layer
//! self times never sum past their operation, and a tiny run of every
//! workload reports exactly the metrics `BENCHMARK.json` declares.

use std::collections::BTreeSet;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use perfbench::trace::Tracer;
use perfbench::{Metric, RunConfig, Size, Workload};

fn tiny() -> RunConfig {
    RunConfig {
        seed: 7,
        seconds: 0.0,
        workers: 2,
        size: Size::tiny(),
    }
}

/// One traced tiny run of every workload (each as the primary one),
/// shared by the tests below.
fn traced() -> &'static (Tracer, Vec<Vec<Metric>>) {
    static TRACED: OnceLock<(Tracer, Vec<Vec<Metric>>)> = OnceLock::new();
    TRACED.get_or_init(|| {
        let mut tracer = Tracer::new();
        let metrics = Workload::ALL
            .iter()
            .map(|w| {
                let out = w.trace(&tiny(), true, &mut tracer).expect("traced run");
                assert_eq!(out.failed, 0, "{}: failed operations", w.name());
                assert!(out.attempted > 0, "{}: no operations", w.name());
                out.metrics
            })
            .collect();
        (tracer, metrics)
    })
}

/// The metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> BTreeSet<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
        .collect()
}

fn names(metrics: &[Metric]) -> BTreeSet<String> {
    let set: BTreeSet<String> = metrics.iter().map(|m| m.name.to_string()).collect();
    assert_eq!(set.len(), metrics.len(), "a metric is reported twice");
    set
}

#[test]
fn traced_span_trees_are_well_formed() {
    let (tracer, _) = traced();
    tracer.check().expect("well-formed trace");
    let spans = tracer.spans();
    assert!(spans.iter().any(|s| s.parent.is_some()), "no nested spans");
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            assert!(
                parent.start <= span.start && span.end <= parent.end,
                "{} outside {}",
                span.name,
                parent.name
            );
            assert_eq!(parent.op, span.op);
        }
    }
    for root in [
        "kernel_fleet.op",
        "mesh_heal.op",
        "verify_hub.op",
        "fuzz_farm.op",
    ] {
        assert!(
            spans.iter().any(|s| s.name == root && s.parent.is_none()),
            "no {root} span"
        );
    }
}

#[test]
fn layer_self_times_never_sum_past_the_operation() {
    let (tracer, _) = traced();
    let spans = tracer.spans();
    let self_times = tracer.self_times();
    for (root, span) in spans.iter().enumerate().filter(|(_, s)| s.parent.is_none()) {
        let mut total = Duration::ZERO;
        let mut frontier = vec![root];
        while let Some(i) = frontier.pop() {
            total += self_times[i];
            frontier.extend((0..spans.len()).filter(|&c| spans[c].parent == Some(i)));
        }
        assert!(
            total <= span.duration(),
            "{}: {total:?} > {:?}",
            span.name,
            span.duration()
        );
    }
}

#[test]
fn check_rejects_malformed_trees() {
    let t0 = Instant::now();
    let at = |ms| t0 + Duration::from_millis(ms);
    let mut outside = Tracer::new();
    let root = outside.record("root", 1, None, at(10), at(20));
    outside.record("child", 1, Some(root), at(15), at(25));
    assert!(outside.check().is_err());

    let mut overlapping = Tracer::new();
    let root = overlapping.record("root", 1, None, at(10), at(20));
    overlapping.record("a", 1, Some(root), at(11), at(16));
    overlapping.record("b", 1, Some(root), at(15), at(19));
    assert!(overlapping.check().is_err());

    let mut other_op = Tracer::new();
    let root = other_op.record("root", 1, None, at(10), at(20));
    other_op.record("child", 2, Some(root), at(11), at(12));
    assert!(other_op.check().is_err());
}

#[test]
fn tiny_runs_report_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    for w in Workload::ALL {
        let out = w.run(&tiny()).expect("end-to-end run");
        assert_eq!(out.failed, 0, "{}: failed operations", w.name());
        assert_eq!(names(&out.metrics), end_to_end, "{}", w.name());
        assert!(
            out.metrics
                .iter()
                .all(|m| m.value.is_finite() && m.value > 0.0),
            "{}: {:?}",
            w.name(),
            out.metrics
        );
    }
    let (_, traced) = traced();
    let mut per_layer = BTreeSet::new();
    for metrics in traced {
        per_layer.extend(names(metrics));
        assert!(metrics.iter().all(|m| m.value.is_finite()), "{metrics:?}");
    }
    assert_eq!(per_layer, declared("per_layer"));
}
