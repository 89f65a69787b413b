//! Workspace-level invariants of the unified [`Sim`] builder,
//! extending the `sched_invariants` guarantees to the new API:
//!
//! 1. **Degenerate equivalence** — a `Sim` describing the paper's
//!    configuration (full pool, one task per station, suspend-resume)
//!    reproduces [`JobRunner`] job times **bit-for-bit**, on every
//!    backend the builder can lower to, for owners whose requests never
//!    land on a task's completion instant. With the paper's
//!    integer-time owner Auto still equals the cluster backend bit for
//!    bit, and the engine is later by at most one owner burst.
//! 2. **Thin lowering** — `Sim::lower` produces exactly the
//!    [`SchedConfig`] a caller would have written by hand, so the
//!    builder adds description, never behaviour.
//! 3. **Work conservation** — reports from every workload shape keep
//!    `delivered == goodput + wasted + checkpoint_overhead`.

use nds::cluster::{ContinuousWorkstation, JobRunner, OwnerWorkload};
use nds::core::sim::{closed, poisson, single_job, Backend, JobShape, Sim};
use nds::sched::{EvictionPolicy, JobSpec, SchedConfig};
use nds::stats::rng::StreamFactory;

fn owner(u: f64) -> OwnerWorkload {
    OwnerWorkload::continuous_exponential(10.0, u).unwrap()
}

#[test]
fn degenerate_sim_reproduces_jobrunner_bit_for_bit() {
    // The paper's configuration expressed through the builder: the
    // scheduler engine, the closed-form fast path, and the automatic
    // lowering must all land on JobRunner's exact job times.
    for (seed, reps) in [(11u64, 4u64), (2024, 2)] {
        let w = 6u32;
        let demand = 250.0;
        let ow = owner(0.10);
        let run = |backend| {
            Sim::pool(w)
                .owners(&ow)
                .workload(single_job(w, demand))
                .eviction(EvictionPolicy::SuspendResume)
                .seed(seed)
                .replications(reps)
                .backend(backend)
                .run()
                .unwrap()
        };
        let engine = run(Backend::Sched);
        let fast = run(Backend::Cluster);
        let auto = run(Backend::Auto);
        let runner = JobRunner::new(seed);
        for rep in 0..reps {
            let baseline = runner.run_continuous_job(&ow, demand, w, rep).job_time();
            let i = rep as usize;
            assert_eq!(
                engine.runs[i].makespan, baseline,
                "seed={seed} rep={rep}: scheduler engine vs JobRunner"
            );
            assert_eq!(
                fast.runs[i].makespan, baseline,
                "seed={seed} rep={rep}: cluster fast path vs JobRunner"
            );
            assert_eq!(
                auto.runs[i].makespan, baseline,
                "seed={seed} rep={rep}: auto backend vs JobRunner"
            );
            assert_eq!(
                engine.runs[i].jobs[0].response_time(),
                baseline,
                "job records carry the same times"
            );
        }
    }
}

#[test]
fn degenerate_sim_matches_per_station_workstation_paths() {
    // Down to the per-station sample paths: the builder's degenerate
    // run is the max over the same ContinuousWorkstation streams the
    // original model consumes.
    let (w, demand, seed, rep) = (5u32, 180.0, 77u64, 3u64);
    let ow = owner(0.12);
    let report = Sim::pool(w)
        .owners(&ow)
        .workload(single_job(w, demand))
        .seed(seed)
        .backend(Backend::Sched)
        .replications(rep + 1)
        .run()
        .unwrap();
    let factory = StreamFactory::new(seed);
    let ws = ContinuousWorkstation::new(ow);
    let per_station_max = (0..w)
        .map(|i| {
            let mut rng = factory.labeled_stream("ws-continuous", u64::from(i) << 32 | rep);
            ws.run_task(demand, &mut rng).execution_time
        })
        .fold(0.0f64, f64::max);
    assert_eq!(report.runs[rep as usize].makespan, per_station_max);
}

#[test]
fn paper_owner_ties_split_the_fast_path_from_the_engine() {
    // The paper's owner has integer think and use times, so an owner
    // request can land on the instant a task completes. The cluster
    // fast path completes the task first; the scheduler engine serves
    // the request first and the task waits one more burst of O. Auto
    // must still be the fast path bit for bit, and the engine may only
    // be later, by at most one burst.
    let (o, job_demand, reps) = (10.0, 1000.0, 1_000u64);
    let mut differing = 0;
    for u in [0.05, 0.2, 0.5] {
        let ow = OwnerWorkload::paper_from_utilization(o, u).unwrap();
        for w in [4u32, 25, 100] {
            let run = |backend| {
                Sim::pool(w)
                    .owners(&ow)
                    .workload(single_job(w, job_demand / f64::from(w)))
                    .seed(0x7E5)
                    .replications(reps)
                    .backend(backend)
                    .run()
                    .unwrap()
            };
            let cluster = run(Backend::Cluster);
            assert_eq!(run(Backend::Auto), cluster, "U={u} W={w}: auto vs cluster");
            let sched = run(Backend::Sched);
            for (rep, (s, c)) in sched.runs.iter().zip(&cluster.runs).enumerate() {
                let gap = s.makespan - c.makespan;
                assert!(
                    (0.0..=o).contains(&gap),
                    "U={u} W={w} rep={rep}: sched {} vs cluster {}",
                    s.makespan,
                    c.makespan
                );
                differing += usize::from(gap > 0.0);
            }
        }
    }
    assert!(differing > 0, "no replication hit a tie");
}

#[test]
fn lowering_is_a_thin_shim_over_sched_config() {
    // Sim::lower must produce exactly the config a PR-1 caller would
    // have written by hand — and running both must agree bit-for-bit.
    let ow = owner(0.15);
    let jobs = vec![JobSpec::at_zero(10, 80.0), JobSpec::at_zero(4, 40.0)];
    let sim = Sim::pool(6)
        .owners(&ow)
        .workload(closed(jobs.clone()))
        .eviction(EvictionPolicy::Checkpoint {
            interval: 20.0,
            overhead: 0.5,
        })
        .calibration(5_000.0)
        .seed(99)
        .build()
        .unwrap();
    let lowered = sim.lower(0).unwrap();

    let mut manual = SchedConfig::homogeneous(6, &ow, jobs);
    manual.eviction = EvictionPolicy::Checkpoint {
        interval: 20.0,
        overhead: 0.5,
    };
    manual.calibration_horizon = 5_000.0;
    manual.seed = 99;
    assert_eq!(lowered.run().unwrap(), manual.run().unwrap());

    // And the builder's own run reports the same engine metrics.
    let report = sim.run().unwrap();
    assert_eq!(report.runs[0], manual.run().unwrap());
}

#[test]
fn every_workload_shape_conserves_work() {
    let shapes: Vec<Box<dyn Fn() -> nds::core::sim::SimBuilder>> = vec![
        Box::new(|| {
            Sim::pool(8)
                .owners(owner(0.10))
                .workload(single_job(8, 150.0))
                .backend(Backend::Sched)
        }),
        Box::new(|| {
            Sim::pool(8)
                .owners(owner(0.20))
                .workload(closed(vec![
                    JobSpec::at_zero(12, 90.0),
                    JobSpec {
                        tasks: 6,
                        task_demand: 45.0,
                        arrival: 120.0,
                    },
                ]))
                .eviction(EvictionPolicy::Restart)
        }),
        Box::new(|| {
            Sim::pool(8)
                .owners(owner(0.10))
                .workload(poisson(0.02, JobShape::new(2, 40.0)).jobs(100).warmup(10))
                .eviction(EvictionPolicy::Migrate { overhead: 3.0 })
                .batches(9)
        }),
    ];
    for (i, make) in shapes.iter().enumerate() {
        let report = make().seed(5).run().unwrap();
        assert!(report.is_consistent(), "shape {i} violated conservation");
        for m in &report.runs {
            assert!(
                (m.goodput - m.total_demand).abs() <= 1e-6 * m.total_demand,
                "shape {i}: goodput {} != demand {}",
                m.goodput,
                m.total_demand
            );
        }
    }
}

#[test]
fn steady_state_batches_within_each_replication() {
    // Regression: batch means used to be formed over the concatenation
    // of all replications' responses, so batches straddled replication
    // boundaries. The interval must instead pool per-replication batch
    // means — recomputed here by hand from the engine's own job records.
    let reps = 3usize;
    let batches = 5usize;
    let warmup = 20usize;
    let report = Sim::pool(8)
        .owners(owner(0.10))
        .workload(
            poisson(0.02, JobShape::new(2, 40.0))
                .jobs(120)
                .warmup(warmup),
        )
        .batches(batches)
        .replications(reps as u64)
        .seed(7)
        .run()
        .unwrap();
    let ss = report
        .steady_state
        .expect("open workloads report steady state");
    assert_eq!(
        ss.response.batches,
        reps * batches,
        "each replication contributes its own batches"
    );
    assert_eq!(ss.warmup_dropped, warmup, "warm-up is per replication");
    let mut pooled_means = Vec::new();
    for m in &report.runs {
        let responses: Vec<f64> = m
            .jobs
            .iter()
            .skip(warmup)
            .map(|j| j.completion - j.arrival)
            .collect();
        let batch_size = responses.len() / batches;
        assert_eq!(ss.response.batch_size, batch_size);
        for b in 0..batches {
            let batch = &responses[b * batch_size..(b + 1) * batch_size];
            pooled_means.push(batch.iter().sum::<f64>() / batch_size as f64);
        }
    }
    let expected = pooled_means.iter().sum::<f64>() / pooled_means.len() as f64;
    assert!(
        (ss.response.mean - expected).abs() <= 1e-12 * expected,
        "steady-state mean {} != per-replication pooled mean {}",
        ss.response.mean,
        expected
    );
}

#[test]
fn open_stream_steady_state_is_reproducible_and_sane() {
    let run = || {
        Sim::pool(8)
            .owners(owner(0.10))
            .workload(poisson(0.02, JobShape::new(2, 40.0)).jobs(150).warmup(30))
            .batches(8)
            .seed(42)
            .run()
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must replay the whole report");
    let ss = a.steady_state.expect("open workloads report steady state");
    assert!(
        ss.response.mean >= 40.0,
        "steady-state response cannot beat the dedicated task demand"
    );
    assert!(ss.response.half_width > 0.0);
    assert!(ss.response.contains(a.response.mean));
    assert_eq!(a.response.jobs, 120, "warm-up jobs excluded");
    // Response times in the report match the engine's own job records
    // after warm-up deletion.
    let recorded: Vec<f64> = a.runs[0]
        .jobs
        .iter()
        .skip(30)
        .map(|j| j.completion - j.arrival)
        .collect();
    let mean = recorded.iter().sum::<f64>() / recorded.len() as f64;
    assert!((mean - a.response.mean).abs() < 1e-9);
}
