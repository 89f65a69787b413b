//! Whole-job runs across `W` workstations.
//!
//! The paper's job model: `W` perfectly balanced tasks, no communication,
//! one final synchronization — job time = max task time. Each
//! workstation gets an independent RNG stream derived from the master
//! seed, so growing the pool does not perturb the other stations' sample
//! paths.

use crate::continuous;
use crate::discrete::DiscreteTaskSim;
use crate::owner::OwnerWorkload;
use crate::task::TaskOutcome;
use nds_stats::rng::StreamFactory;

/// Result of one parallel-job execution.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Per-task outcomes, indexed by workstation.
    pub tasks: Vec<TaskOutcome>,
}

impl JobResult {
    /// Job completion time: the paper's final-synchronization semantics,
    /// the max of the task execution times.
    pub fn job_time(&self) -> f64 {
        self.tasks
            .iter()
            .map(|t| t.execution_time)
            .fold(0.0, f64::max)
    }

    /// The paper's Figure 10 metric: maximum task execution time
    /// (identical to [`JobResult::job_time`] in this model, named for
    /// the experiment).
    pub fn max_task_time(&self) -> f64 {
        self.job_time()
    }

    /// Mean task execution time across workstations.
    pub fn mean_task_time(&self) -> f64 {
        if self.tasks.is_empty() {
            return 0.0;
        }
        self.tasks.iter().map(|t| t.execution_time).sum::<f64>() / self.tasks.len() as f64
    }

    /// Total owner interruptions across all tasks.
    pub fn total_interruptions(&self) -> u64 {
        self.tasks.iter().map(|t| t.interruptions).sum()
    }

    /// Number of workstations that ran a task.
    pub fn workstations(&self) -> usize {
        self.tasks.len()
    }
}

/// Runs parallel jobs on a pool of workstations, in either discrete
/// (model-exact) or continuous (generalized) mode.
#[derive(Debug, Clone)]
pub struct JobRunner {
    streams: StreamFactory,
}

impl JobRunner {
    /// Create a runner with a master seed.
    pub fn new(master_seed: u64) -> Self {
        Self {
            streams: StreamFactory::new(master_seed),
        }
    }

    /// Run one job of `w` tasks under the **discrete-time** model with
    /// per-task demand `sim.task_demand`. Workstation `i` uses the
    /// stable stream `("ws", i)` xored with `replication`.
    pub fn run_discrete_job(&self, sim: &DiscreteTaskSim, w: u32, replication: u64) -> JobResult {
        let tasks = (0..w)
            .map(|i| {
                let mut rng = self
                    .streams
                    .labeled_stream("ws-discrete", u64::from(i) << 32 | replication);
                sim.run_task(&mut rng)
            })
            .collect();
        JobResult { tasks }
    }

    /// Run one job of `w` tasks of the given demand under the
    /// **continuous-time** simulator with homogeneous owner behaviour.
    pub fn run_continuous_job(
        &self,
        owner: &OwnerWorkload,
        task_demand: f64,
        w: u32,
        replication: u64,
    ) -> JobResult {
        let tasks = (0..w)
            .map(|i| {
                let mut rng = self
                    .streams
                    .labeled_stream("ws-continuous", u64::from(i) << 32 | replication);
                continuous::run_task(owner, task_demand, &mut rng)
            })
            .collect();
        JobResult { tasks }
    }

    /// Run a continuous-time job on a **heterogeneous** pool: one owner
    /// workload per workstation.
    pub fn run_hetero_job(
        &self,
        owners: &[OwnerWorkload],
        task_demand: f64,
        replication: u64,
    ) -> JobResult {
        let tasks = owners
            .iter()
            .enumerate()
            .map(|(i, owner)| {
                let mut rng = self
                    .streams
                    .labeled_stream("ws-hetero", (i as u64) << 32 | replication);
                continuous::run_task(owner, task_demand, &mut rng)
            })
            .collect();
        JobResult { tasks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_time_is_max() {
        let runner = JobRunner::new(11);
        let sim = DiscreteTaskSim::paper(100, 0.05, 10.0);
        let job = runner.run_discrete_job(&sim, 8, 0);
        assert_eq!(job.workstations(), 8);
        let max = job
            .tasks
            .iter()
            .map(|t| t.execution_time)
            .fold(0.0, f64::max);
        assert_eq!(job.job_time(), max);
        assert_eq!(job.max_task_time(), max);
        assert!(job.job_time() >= job.mean_task_time());
    }

    #[test]
    fn replications_differ_stations_reproducible() {
        let runner = JobRunner::new(11);
        let sim = DiscreteTaskSim::paper(100, 0.1, 10.0);
        let a0 = runner.run_discrete_job(&sim, 4, 0);
        let a0_again = runner.run_discrete_job(&sim, 4, 0);
        let a1 = runner.run_discrete_job(&sim, 4, 1);
        assert_eq!(a0.job_time(), a0_again.job_time());
        assert_ne!(
            a0.tasks.iter().map(|t| t.interruptions).collect::<Vec<_>>(),
            a1.tasks.iter().map(|t| t.interruptions).collect::<Vec<_>>()
        );
    }

    #[test]
    fn growing_pool_preserves_existing_sample_paths() {
        // Common random numbers: workstation i's task outcome must not
        // change when more stations are added.
        let runner = JobRunner::new(5);
        let sim = DiscreteTaskSim::paper(200, 0.05, 10.0);
        let small = runner.run_discrete_job(&sim, 3, 7);
        let large = runner.run_discrete_job(&sim, 10, 7);
        for i in 0..3 {
            assert_eq!(small.tasks[i], large.tasks[i], "station {i} changed");
        }
        assert!(large.job_time() >= small.job_time());
    }

    #[test]
    fn continuous_job_runs() {
        let runner = JobRunner::new(3);
        let owner = OwnerWorkload::continuous_exponential(10.0, 0.05).unwrap();
        let job = runner.run_continuous_job(&owner, 50.0, 4, 0);
        assert_eq!(job.workstations(), 4);
        for t in &job.tasks {
            assert!(t.execution_time >= 50.0);
            assert!(t.is_consistent());
        }
    }

    #[test]
    fn hetero_job_uses_each_owner() {
        let runner = JobRunner::new(9);
        let owners = vec![
            OwnerWorkload::continuous_exponential(10.0, 0.01).unwrap(),
            OwnerWorkload::continuous_exponential(10.0, 0.4).unwrap(),
        ];
        // Average over replications: the busy station should dominate.
        let mut busy_slower = 0;
        for rep in 0..30 {
            let job = runner.run_hetero_job(&owners, 100.0, rep);
            if job.tasks[1].execution_time > job.tasks[0].execution_time {
                busy_slower += 1;
            }
        }
        assert!(busy_slower > 20, "busy station slower in {busy_slower}/30");
    }

    #[test]
    fn empty_job_result_defaults() {
        let r = JobResult { tasks: vec![] };
        assert_eq!(r.job_time(), 0.0);
        assert_eq!(r.mean_task_time(), 0.0);
        assert_eq!(r.total_interruptions(), 0);
    }
}
