//! Workspace-level invariants of the `nds-sched` scheduler:
//!
//! 1. **Work conservation** — every unit of CPU delivered to guest work
//!    is goodput, wasted, or checkpoint overhead; and goodput equals
//!    the workload's total demand once every job completes.
//! 2. **Degenerate equivalence** — a fixed full-size pool with
//!    suspend-resume eviction reproduces the single-job
//!    [`JobRunner`]/[`ContinuousWorkstation`] results of the paper's
//!    model, bit-for-bit (shared RNG stream derivation), for owners
//!    whose requests never land on a task's completion instant. With
//!    integer-time owners they can, and the engine then serves the
//!    request first where `JobRunner` completes the task first
//!    (pinned in `builder_invariants.rs`).
//! 3. **Deterministic replay** — identical configs replay identically;
//!    replications diverge.
//! 4. **Availability accounting** — the pool's downtime integral under
//!    arbitrary interleaved crash/repair/reclaim churn is non-negative,
//!    monotone in time, and exact against a shadow integral.

use nds::cluster::{ContinuousWorkstation, JobRunner, OwnerWorkload};
use nds::sched::{EvictionPolicy, JobSpec, PlacementKind, Pool, QueueDiscipline, SchedConfig};
use nds::stats::rng::StreamFactory;
use proptest::prelude::*;

fn owner(u: f64) -> OwnerWorkload {
    OwnerWorkload::continuous_exponential(10.0, u).unwrap()
}

fn all_policies() -> Vec<EvictionPolicy> {
    vec![
        EvictionPolicy::Restart,
        EvictionPolicy::SuspendResume,
        EvictionPolicy::Migrate { overhead: 4.0 },
        EvictionPolicy::Checkpoint {
            interval: 25.0,
            overhead: 1.0,
        },
    ]
}

#[test]
fn work_conservation_across_policies_and_utilizations() {
    for eviction in all_policies() {
        for u in [0.05, 0.10, 0.20] {
            for seed in [1u64, 2, 3] {
                let mut cfg = SchedConfig::homogeneous(
                    8,
                    &owner(u),
                    vec![JobSpec::at_zero(12, 90.0), JobSpec::at_zero(6, 45.0)],
                );
                cfg.eviction = eviction;
                cfg.seed = seed;
                cfg.discipline = if seed % 2 == 0 {
                    QueueDiscipline::SjfBackfill
                } else {
                    QueueDiscipline::Fcfs
                };
                let m = cfg.run().unwrap();
                assert!(
                    m.is_consistent(),
                    "{} U={u} seed={seed}: residual {}",
                    eviction.label(),
                    m.accounting_residual()
                );
                assert!(
                    (m.goodput - m.total_demand).abs() <= 1e-6 * m.total_demand,
                    "{} U={u} seed={seed}: goodput {} != demand {}",
                    eviction.label(),
                    m.goodput,
                    m.total_demand
                );
                assert_eq!(m.completed_tasks, 18);
                // Makespan can never beat a dedicated, instantly-placed run.
                assert!(m.makespan >= 90.0);
            }
        }
    }
}

#[test]
fn degenerate_config_reproduces_jobrunner_bit_for_bit() {
    // Full-size pool, one job with one task per machine, suspend-resume:
    // the scheduler degenerates to the paper's model. Machine i shares
    // JobRunner's per-station stream, so job times match exactly.
    for (seed, rep) in [(11u64, 0u64), (11, 3), (2024, 0)] {
        let w = 6u32;
        let demand = 250.0;
        let ow = owner(0.10);
        let mut cfg = SchedConfig::homogeneous(w, &ow, vec![JobSpec::at_zero(w, demand)]);
        cfg.eviction = EvictionPolicy::SuspendResume;
        cfg.seed = seed;
        cfg.replication = rep;
        let m = cfg.run().unwrap();

        let baseline = JobRunner::new(seed).run_continuous_job(&ow, demand, w, rep);
        assert_eq!(
            m.makespan,
            baseline.job_time(),
            "seed={seed} rep={rep}: scheduler {} vs JobRunner {}",
            m.makespan,
            baseline.job_time()
        );
        assert_eq!(m.jobs[0].response_time(), baseline.job_time());
        // Per-station equivalence against the underlying workstation
        // simulator, using the same stream derivation.
        let factory = StreamFactory::new(seed);
        let ws = ContinuousWorkstation::new(ow.clone());
        let per_station_max = (0..w)
            .map(|i| {
                let mut rng = factory.labeled_stream("ws-continuous", u64::from(i) << 32 | rep);
                ws.run_task(demand, &mut rng).execution_time
            })
            .fold(0.0f64, f64::max);
        assert_eq!(m.makespan, per_station_max);
    }
}

#[test]
fn degenerate_config_wastes_nothing() {
    let w = 10u32;
    let mut cfg = SchedConfig::homogeneous(w, &owner(0.15), vec![JobSpec::at_zero(w, 150.0)]);
    cfg.eviction = EvictionPolicy::SuspendResume;
    let m = cfg.run().unwrap();
    assert_eq!(m.wasted, 0.0);
    assert_eq!(m.checkpoint_overhead, 0.0);
    assert_eq!(m.placements, u64::from(w), "one placement per task");
    assert_eq!(m.mean_queue_wait, 0.0, "all tasks placed on arrival");
}

#[test]
fn deterministic_replay_under_fixed_seed() {
    for placement in PlacementKind::ALL {
        let mut cfg = SchedConfig::homogeneous(
            7,
            &owner(0.12),
            vec![
                JobSpec {
                    tasks: 9,
                    task_demand: 70.0,
                    arrival: 0.0,
                },
                JobSpec {
                    tasks: 5,
                    task_demand: 35.0,
                    arrival: 120.0,
                },
            ],
        );
        cfg.placement = placement;
        cfg.eviction = EvictionPolicy::Checkpoint {
            interval: 20.0,
            overhead: 0.5,
        };
        cfg.calibration_horizon = 5_000.0;
        cfg.seed = 77;
        let a = cfg.run().unwrap();
        let b = cfg.run().unwrap();
        assert_eq!(a, b, "{}: replay must be identical", placement.name());

        let mut shifted = cfg.clone();
        shifted.seed = 78;
        let c = shifted.run().unwrap();
        assert_ne!(
            a.makespan,
            c.makespan,
            "{}: different seeds must diverge",
            placement.name()
        );
    }
}

#[test]
fn eviction_cost_ordering_is_sane() {
    // At identical owner sample paths (common random numbers), restart
    // must waste at least as much as migrate, which wastes at least as
    // much as suspend-resume (zero).
    let run = |eviction| {
        let mut cfg = SchedConfig::homogeneous(8, &owner(0.20), vec![JobSpec::at_zero(16, 100.0)]);
        cfg.eviction = eviction;
        cfg.seed = 5;
        cfg.run().unwrap()
    };
    let suspend = run(EvictionPolicy::SuspendResume);
    let restart = run(EvictionPolicy::Restart);
    let ckpt = run(EvictionPolicy::Checkpoint {
        interval: 25.0,
        overhead: 1.0,
    });
    assert_eq!(suspend.wasted, 0.0);
    assert!(restart.wasted > 0.0);
    assert!(ckpt.checkpoint_overhead > 0.0);
    assert!(
        restart.delivered >= suspend.delivered,
        "restart re-serves lost work"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The pool's downtime integral under arbitrary interleaved
    /// crash / repair / owner-reclaim / occupancy churn: non-negative,
    /// monotone non-decreasing in time, bounded by the pool's total
    /// machine-time, and exactly equal to an independently tracked
    /// shadow integral — while down machines never leak back into the
    /// candidate index before repair, and the index counts exactly the
    /// free, admitted, not-down machines at every step.
    #[test]
    fn downtime_integral_is_monotone_and_exact_under_interleaving(
        w in 1u8..6,
        threshold in 0.0f64..1.2,
        ops in proptest::collection::vec((0.0f64..5.0, 0u8..8, 0u8..6), 1..80),
    ) {
        let w = w as usize;
        // A short estimator window moves estimates across the admission
        // threshold as owners come and go; a threshold of 1.0 or more
        // admits every free machine.
        let mut p = Pool::new(w, threshold, 5.0, &[]);
        let mut t = 0.0;
        let mut down = vec![false; w];
        let mut busy = vec![false; w];
        let mut occupied = vec![false; w];
        let mut shadow = 0.0;
        let mut prev = 0.0;
        for (dt, m, op) in ops {
            let m = m as usize % w;
            shadow += dt * down.iter().filter(|&&d| d).count() as f64;
            t += dt;
            match op {
                0 | 1 => {
                    p.owner_transition(t, m, op == 0);
                    busy[m] = op == 0;
                }
                2 | 3 => {
                    p.set_occupied(t, m, op == 2);
                    occupied[m] = op == 2;
                }
                4 => {
                    p.set_down(t, m, true);
                    down[m] = true;
                }
                _ => {
                    p.set_down(t, m, false);
                    down[m] = false;
                }
            }
            let d = p.downtime(t);
            prop_assert!(d >= 0.0, "downtime integral went negative: {d}");
            prop_assert!(d >= prev, "downtime shrank: {prev} -> {d}");
            prop_assert!(
                d <= w as f64 * t + 1e-9,
                "downtime {d} exceeds pool machine-time {}",
                w as f64 * t
            );
            prop_assert!(
                (d - shadow).abs() <= 1e-9 * shadow.max(1.0),
                "integral {d} diverged from shadow {shadow}"
            );
            if t > 0.0 {
                let avail = p.mean_available(t);
                prop_assert!((0.0..=w as f64 + 1e-9).contains(&avail));
            }
            for c in p.candidates() {
                prop_assert!(!down[c.machine], "down machine {} offered", c.machine);
            }
            let offerable = (0..w)
                .filter(|&i| !busy[i] && !occupied[i] && !down[i])
                .filter(|&i| p.load_estimate(i) <= threshold)
                .count();
            prop_assert_eq!(p.index().len(), offerable);
            prop_assert_eq!(p.candidates().count(), offerable);
            prev = d;
        }
    }
}
