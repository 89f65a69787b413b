//! Self-tests of the benchmark at tiny sizes.

use nds_perfbench::datacenter_day::DatacenterDay;
use nds_perfbench::gang_faults::GangFaults;
use nds_perfbench::layers::{run_untraced, Workload};
use nds_perfbench::output::{valid_name, Outcome};
use nds_perfbench::paper_sweep::{PaperSweep, ENGINES};
use nds_perfbench::{run, Size, WORKLOADS};
use std::collections::BTreeSet;

fn tiny(workload: &str, seed: u64, trace: bool) -> Outcome {
    run(workload, Size::Tiny, seed, 0.0, trace).expect("known workload")
}

#[test]
fn tiny_workloads_pass_their_checks() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let out = tiny(workload, 7, trace);
            assert!(
                out.correct(),
                "{workload} trace={trace}: {:?}",
                out.failures
            );
            assert!(out.attempted >= 1);
        }
    }
}

#[test]
fn runs_past_their_event_cap_count_as_failed() {
    let gang = GangFaults {
        max_events: Some(1_000),
        ..GangFaults::tiny()
    };
    let day = DatacenterDay {
        max_events: 1_000,
        ..DatacenterDay::tiny()
    };
    let outcomes = [
        run_untraced(&gang, 3, 0.0),
        gang.traced(3),
        run_untraced(&day, 3, 0.0),
        day.traced(3),
    ];
    for out in outcomes {
        assert!(!out.correct());
        assert!(out.failed >= 1 && out.failed <= out.attempted, "{out:?}");
    }
}

/// The names of one metric list in `BENCHMARK.json`.
fn declared(section: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closed name")].to_string())
        .collect()
}

#[test]
fn metric_names_are_valid_and_match_benchmark_json() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in WORKLOADS {
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let out = tiny(workload, 11, trace);
            let names: BTreeSet<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
            assert_eq!(
                names.len(),
                out.metrics.len(),
                "{workload}: duplicate names"
            );
            assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
            assert_eq!(&names, want, "{workload} trace={trace}");
        }
    }
}

#[test]
fn seed_changes_inputs_not_check_results() {
    for workload in WORKLOADS {
        let a = tiny(workload, 1, false);
        let b = tiny(workload, 2, false);
        assert!(a.correct() && b.correct(), "{workload}");
        assert_ne!(
            a.digest, b.digest,
            "{workload}: the seed must reach the engine"
        );
        assert_eq!(
            (a.attempted, a.failed, &a.failures),
            (b.attempted, b.failed, &b.failures),
            "{workload}"
        );
    }
}

#[test]
fn v1_judges_each_engine_by_its_own_event_order() {
    let sweep = PaperSweep::tiny();
    let points = sweep.points().expect("whole task demands");
    for (backend, order) in ENGINES {
        let sims = sweep.sims(5, backend).expect("valid grid");
        let pass = sweep.run_all(&sims);
        assert_eq!(
            sweep.engine_order(&points, &pass.samples, 5),
            Ok(order),
            "{backend:?}"
        );
        let failures = sweep.v1_failures(&points, &pass.samples, order);
        assert!(failures.is_empty(), "{backend:?}: {failures:?}");
    }
}
