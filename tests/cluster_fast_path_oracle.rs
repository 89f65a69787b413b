//! The cluster fast-path oracle: golden `TaskOutcome` digests recorded
//! from the closure-engine `ContinuousWorkstation::run_task` (one
//! `nds_des::Engine` plus a preemptive `Facility` per task), which the
//! direct owner-cycle loop must reproduce **bit-for-bit**.
//!
//! Each block runs one owner kind at one task demand over a fixed set
//! of seeds and records the count, the interruption sum, an FNV-1a
//! digest over the bits of every outcome field, and the first outcome's
//! `Debug` (which prints the shortest round-tripping float, so byte
//! equality is bit equality). The paper's owners have integer think and
//! use times, so owner requests land on task completion instants and
//! the tie order is pinned too. Two more lines pin
//! `JobRunner::run_continuous_job` and `JobRunner::run_hetero_job`.
//!
//! The same digest pins the other two workstation models, recorded
//! from their closure-engine versions too: `SmpWorkstation` blocks over
//! CPU count × owner streams × owner kind × demand (skipping machines
//! whose owners load at least 80% of the CPUs, where a task can take
//! an unbounded time), and `run_station_tasks` /
//! `MultiJobExperiment::run` blocks over simultaneous, staggered and
//! equal-time job arrivals, whose integer times tie with the paper
//! owner's.
//!
//! Regenerate (only when *intentionally* changing the continuous-time
//! workstation's semantics) with:
//!
//! ```text
//! NDS_REGEN_GOLDEN=1 cargo test -q --test cluster_fast_path_oracle
//! ```

use nds::cluster::multi::{run_station_tasks, JobOutcome, JobSpec, MultiJobExperiment};
use nds::cluster::smp::SmpWorkstation;
use nds::cluster::{ContinuousWorkstation, JobResult, JobRunner, OwnerWorkload, TaskOutcome};
use nds::stats::rng::Xoshiro256StarStar;
use std::fmt::Write as _;

const GOLDEN_PATH: &str = "tests/golden/cluster_fast_path.txt";
const DEMANDS: [f64; 4] = [0.5, 10.0, 37.3, 1000.0];
const SEEDS: u64 = 64;

/// Every owner kind pinned by the golden file.
fn owners() -> Vec<OwnerWorkload> {
    let mut out: Vec<OwnerWorkload> = [0.01, 0.2, 0.5]
        .into_iter()
        .map(|u| OwnerWorkload::paper_from_utilization(10.0, u).unwrap())
        .collect();
    out.push(OwnerWorkload::continuous_exponential(10.0, 0.2).unwrap());
    out.push(OwnerWorkload::high_variance(10.0, 0.2, 8.0).unwrap());
    out.push(OwnerWorkload::with_long_jobs(2.0, 500.0, 0.05, 0.10).unwrap());
    out
}

/// FNV-1a, folded 64 bits at a time.
fn fnv(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Task arrival patterns for the multi-job blocks: `(demand, arrival)`.
const JOB_SETS: [(&str, &[(f64, f64)]); 4] = [
    ("simultaneous", &[(37.3, 0.0), (10.0, 0.0), (120.0, 0.0)]),
    ("staggered", &[(50.0, 0.0), (20.0, 13.7), (5.5, 41.25)]),
    ("equal-time", &[(10.0, 10.0), (20.0, 10.0), (30.0, 20.0)]),
    (
        "out-of-order",
        &[(40.0, 30.0), (10.0, 0.0), (25.0, 30.0), (0.5, 5.0)],
    ),
];

fn jobs(set: &[(f64, f64)]) -> Vec<JobSpec> {
    set.iter()
        .map(|&(task_demand, arrival)| JobSpec {
            task_demand,
            arrival,
        })
        .collect()
}

/// Count and FNV-1a digest over the bits of a run of times.
fn digest_times(times: impl IntoIterator<Item = f64>) -> String {
    let (mut count, mut digest) = (0u64, FNV_OFFSET);
    for t in times {
        count += 1;
        digest = fnv(digest, t.to_bits());
    }
    format!("count={count} digest={digest:016x}")
}

/// Count, interruption sum and digest over a run of outcomes.
fn summarize<'a>(outcomes: impl IntoIterator<Item = &'a TaskOutcome>) -> String {
    let (mut count, mut interruptions, mut digest) = (0u64, 0u64, FNV_OFFSET);
    for out in outcomes {
        count += 1;
        interruptions += out.interruptions;
        for word in [
            out.execution_time.to_bits(),
            out.demand.to_bits(),
            out.interruptions,
            out.suspended_time.to_bits(),
        ] {
            digest = fnv(digest, word);
        }
    }
    format!("count={count} interruptions={interruptions} digest={digest:016x}")
}

fn job_line(name: &str, job: &JobResult) -> String {
    format!(
        "== {name}\n{} job_time={:?}",
        summarize(&job.tasks),
        job.job_time()
    )
}

fn render() -> String {
    let mut out = String::new();
    for owner in owners() {
        let ws = ContinuousWorkstation::new(owner.clone());
        for demand in DEMANDS {
            let outcomes: Vec<TaskOutcome> = (0..SEEDS)
                .map(|seed| ws.run_task(demand, &mut Xoshiro256StarStar::new(seed)))
                .collect();
            writeln!(
                out,
                "== {} T={demand}\n{}\nfirst={:?}",
                owner.label(),
                summarize(&outcomes),
                outcomes[0]
            )
            .unwrap();
        }
    }
    let runner = JobRunner::new(0x5C2);
    let paper = OwnerWorkload::paper_from_utilization(10.0, 0.2).unwrap();
    let job = runner.run_continuous_job(&paper, 40.0, 25, 3);
    writeln!(out, "{}", job_line("run_continuous_job", &job)).unwrap();
    let job = runner.run_hetero_job(&owners(), 37.3, 5);
    writeln!(out, "{}", job_line("run_hetero_job", &job)).unwrap();
    render_smp(&mut out);
    render_multi(&mut out);
    out
}

fn render_smp(out: &mut String) {
    for cpus in [1, 2, 4] {
        for streams in [1, 2, 4] {
            for owner in owners() {
                if streams as f64 * owner.utilization() >= 0.8 * cpus as f64 {
                    continue;
                }
                let ws = SmpWorkstation::with_owners(cpus, vec![owner.clone(); streams]);
                for demand in DEMANDS {
                    let outcomes: Vec<TaskOutcome> = (0..SEEDS)
                        .map(|seed| ws.run_task(demand, &mut Xoshiro256StarStar::new(seed)))
                        .collect();
                    writeln!(
                        out,
                        "== smp cpus={cpus} streams={streams} {} T={demand}\n{}\nfirst={:?}",
                        owner.label(),
                        summarize(&outcomes),
                        outcomes[0]
                    )
                    .unwrap();
                }
            }
        }
    }
}

fn render_multi(out: &mut String) {
    for (name, set) in JOB_SETS {
        let specs = jobs(set);
        for owner in owners() {
            let times = (0..SEEDS).flat_map(|seed| {
                run_station_tasks(&owner, &specs, &mut Xoshiro256StarStar::new(seed))
            });
            writeln!(
                out,
                "== run_station_tasks {name} {}\n{}",
                owner.label(),
                digest_times(times)
            )
            .unwrap();
        }
        let experiment = MultiJobExperiment {
            jobs: specs,
            workstations: 8,
            owner: OwnerWorkload::paper_from_utilization(10.0, 0.2).unwrap(),
            seed: 0x3A1,
        };
        let runs: Vec<Vec<JobOutcome>> = (0..4).map(|rep| experiment.run(rep)).collect();
        let fields = runs
            .iter()
            .flatten()
            .flat_map(|o| [o.completion, o.response_time, o.dedicated_time]);
        writeln!(
            out,
            "== MultiJobExperiment::run {name}\n{}\nfirst={:?}",
            digest_times(fields),
            runs[0]
        )
        .unwrap();
    }
}

#[test]
fn direct_loop_reproduces_engine_task_outcomes() {
    let rendered = render();
    if std::env::var_os("NDS_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all("tests/golden").unwrap();
        std::fs::write(GOLDEN_PATH, &rendered).unwrap();
        eprintln!("regenerated {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file exists (regenerate with NDS_REGEN_GOLDEN=1)");
    for (got, want) in rendered.lines().zip(golden.lines()) {
        assert_eq!(got, want, "task outcomes diverged from the engine golden");
    }
    assert_eq!(
        rendered.lines().count(),
        golden.lines().count(),
        "block list diverged from the golden file"
    );
}
