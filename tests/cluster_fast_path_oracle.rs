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
//! Regenerate (only when *intentionally* changing the continuous-time
//! workstation's semantics) with:
//!
//! ```text
//! NDS_REGEN_GOLDEN=1 cargo test -q --test cluster_fast_path_oracle
//! ```

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
    out
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
