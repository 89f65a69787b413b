//! Continuous-time workstation simulation.
//!
//! One workstation is one preempt-resume CPU. The parallel task needs
//! `T` units of service; the owner alternates think/use cycles drawn
//! from an [`OwnerWorkload`], each use burst preempting the task
//! instantly — the paper's interference assumption transplanted to
//! continuous time with arbitrary distributions (its stated future
//! work).
//!
//! With one task and one owner the run is a two-event renewal process,
//! so it needs no event calendar: [`ContinuousWorkstation::run_task`]
//! walks the owner's bursts directly. Its time arithmetic goes through
//! [`SimTime`] and its draws come in cycle order (think, then use, then
//! think …). An owner request that falls on the task's completion
//! instant loses the tie: the task completes first.

use crate::owner::OwnerWorkload;
use crate::task::TaskOutcome;
use nds_des::SimTime;
use nds_stats::rng::Xoshiro256StarStar;

/// A single non-dedicated workstation executing one parallel task under
/// continuous-time owner interference.
#[derive(Debug, Clone)]
pub struct ContinuousWorkstation {
    owner: OwnerWorkload,
}

impl ContinuousWorkstation {
    /// Create a workstation with the given owner behaviour.
    pub fn new(owner: OwnerWorkload) -> Self {
        Self { owner }
    }

    /// The owner workload.
    pub fn owner(&self) -> &OwnerWorkload {
        &self.owner
    }

    /// Execute one parallel task of the given demand to completion and
    /// report its outcome. The caller's RNG seeds an internal stream, so
    /// successive calls with the same RNG state are reproducible.
    pub fn run_task(&self, task_demand: f64, rng: &mut Xoshiro256StarStar) -> TaskOutcome {
        run_task(&self.owner, task_demand, rng)
    }
}

/// Run one task of `task_demand` against `owner`'s think/use cycles
/// (see [`ContinuousWorkstation::run_task`]).
pub(crate) fn run_task(
    owner: &OwnerWorkload,
    task_demand: f64,
    rng: &mut Xoshiro256StarStar,
) -> TaskOutcome {
    assert!(
        task_demand > 0.0 && task_demand.is_finite(),
        "task demand must be finite and > 0"
    );
    let mut rng = Xoshiro256StarStar::new(rng.next());
    // The task's last (re)start, the work it still owed then, and the
    // instants it would complete and the owner next requests the CPU.
    let mut since = SimTime::ZERO;
    let mut remaining = task_demand;
    let mut completion = since + SimTime::new(remaining);
    let mut arrival = SimTime::new(owner.sample_think(&mut rng));
    let mut interruptions = 0;
    // A request on the completion instant finds the task done.
    while arrival < completion {
        let burst = owner.sample_service(&mut rng);
        remaining = (remaining - (arrival - since).as_f64()).max(0.0);
        interruptions += 1;
        since = arrival + SimTime::new(burst);
        completion = since + SimTime::new(remaining);
        arrival = since + SimTime::new(owner.sample_think(&mut rng));
    }
    let done = completion.as_f64();
    TaskOutcome {
        execution_time: done,
        demand: task_demand,
        interruptions,
        suspended_time: done - task_demand,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nds_stats::summary::RunningStats;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::new(seed)
    }

    #[test]
    fn dedicated_machine_runs_at_demand() {
        // Utilization so low the task almost never sees interference.
        let ws =
            ContinuousWorkstation::new(OwnerWorkload::continuous_exponential(1.0, 1e-6).unwrap());
        let out = ws.run_task(100.0, &mut rng(1));
        assert!(
            (out.execution_time - 100.0).abs() < 1.0,
            "time {}",
            out.execution_time
        );
        assert!(out.is_consistent());
    }

    #[test]
    fn outcome_consistency_under_interference() {
        let ws =
            ContinuousWorkstation::new(OwnerWorkload::continuous_exponential(10.0, 0.2).unwrap());
        let mut r = rng(2);
        for _ in 0..50 {
            let out = ws.run_task(50.0, &mut r);
            assert!(out.is_consistent());
            assert!(out.execution_time >= 50.0);
            assert_eq!(out.demand, 50.0);
        }
    }

    #[test]
    fn mean_slowdown_matches_utilization() {
        // Under preempt-resume with owner utilization U, the task sees
        // the CPU at rate (1-U) in the long run: E[time] ≈ T/(1-U).
        let u = 0.2;
        let ws = ContinuousWorkstation::new(OwnerWorkload::continuous_exponential(5.0, u).unwrap());
        let mut r = rng(3);
        let mut stats = RunningStats::new();
        for _ in 0..300 {
            stats.push(ws.run_task(500.0, &mut r).execution_time);
        }
        let expected = 500.0 / (1.0 - u);
        let rel = (stats.mean() - expected).abs() / expected;
        assert!(
            rel < 0.05,
            "mean {} vs expected {expected} (rel err {rel})",
            stats.mean()
        );
    }

    #[test]
    fn higher_utilization_slows_tasks() {
        let mut means = Vec::new();
        for u in [0.01, 0.1, 0.3] {
            let ws =
                ContinuousWorkstation::new(OwnerWorkload::continuous_exponential(10.0, u).unwrap());
            let mut r = rng(4);
            let mut stats = RunningStats::new();
            for _ in 0..200 {
                stats.push(ws.run_task(200.0, &mut r).execution_time);
            }
            means.push(stats.mean());
        }
        assert!(means[0] < means[1] && means[1] < means[2], "{means:?}");
    }

    #[test]
    fn interruptions_counted() {
        let ws =
            ContinuousWorkstation::new(OwnerWorkload::continuous_exponential(5.0, 0.3).unwrap());
        let mut r = rng(5);
        let out = ws.run_task(1000.0, &mut r);
        assert!(out.interruptions > 0, "high utilization must interrupt");
        assert!(out.suspended_time > 0.0);
    }

    #[test]
    fn reproducible_from_seed() {
        let ws =
            ContinuousWorkstation::new(OwnerWorkload::continuous_exponential(10.0, 0.1).unwrap());
        let a = ws.run_task(100.0, &mut rng(7));
        let b = ws.run_task(100.0, &mut rng(7));
        assert_eq!(a, b);
    }

    #[test]
    fn long_job_owner_stalls_task() {
        // A long-running owner job (paper §5's open problem) can pin the
        // task for its full duration.
        let ws = ContinuousWorkstation::new(
            OwnerWorkload::with_long_jobs(2.0, 500.0, 0.05, 0.10).unwrap(),
        );
        let mut r = rng(8);
        let mut worst: f64 = 0.0;
        for _ in 0..100 {
            let out = ws.run_task(50.0, &mut r);
            worst = worst.max(out.execution_time);
        }
        assert!(
            worst > 300.0,
            "expected some run stalled by a long owner job, worst {worst}"
        );
    }

    #[test]
    #[should_panic(expected = "task demand must be finite and > 0")]
    fn rejects_zero_demand() {
        let ws =
            ContinuousWorkstation::new(OwnerWorkload::continuous_exponential(10.0, 0.1).unwrap());
        ws.run_task(0.0, &mut rng(1));
    }
}
