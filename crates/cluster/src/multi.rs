//! Multiple parallel jobs sharing the pool — the paper's "more complex
//! workloads" future work (§5).
//!
//! The paper assumes "one parallel job being executed on the system at
//! a time". Here several jobs coexist: each workstation runs one task
//! per job at the same low priority (FIFO within the class, preempted
//! by owners as always), and each job completes when its last task
//! does. The experiment quantifies how co-scheduled jobs stretch each
//! other — interference now comes from owners *and* rival tasks.
//!
//! One station is a direct loop over task arrivals, owner requests and
//! completions. At equal times a task arrival comes first, then an
//! owner request, then a task completion. An owner request on a
//! completion instant therefore preempts the finishing task. That is
//! the reverse of [`ContinuousWorkstation`](crate::ContinuousWorkstation)'s
//! tie rule, so on the paper's integer-time owner a one-job station can
//! finish its task up to one owner burst later than that workstation
//! does.

use crate::owner::OwnerWorkload;
use nds_des::SimTime;
use nds_stats::rng::{StreamFactory, Xoshiro256StarStar};
use std::collections::VecDeque;

/// One parallel job in a multi-job workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// Per-task demand (the job is perfectly balanced, paper-style).
    pub task_demand: f64,
    /// Absolute arrival time of the job.
    pub arrival: f64,
}

/// Outcome of one job in a multi-job run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobOutcome {
    /// When the job's last task finished.
    pub completion: f64,
    /// Completion minus arrival.
    pub response_time: f64,
    /// Response time the job would have had running alone on dedicated
    /// machines (its task demand).
    pub dedicated_time: f64,
}

impl JobOutcome {
    /// Stretch relative to dedicated execution.
    pub fn slowdown(&self) -> f64 {
        self.response_time / self.dedicated_time
    }
}

/// The task holding the CPU: its index, last (re)start, the work it
/// still owed then, and the instant it completes if left alone.
#[derive(Clone, Copy)]
struct Serving {
    task: usize,
    since: SimTime,
    remaining: f64,
    completion: SimTime,
}

impl Serving {
    fn start(task: usize, since: SimTime, remaining: f64) -> Self {
        let completion = since + SimTime::new(remaining);
        Self {
            task,
            since,
            remaining,
            completion,
        }
    }
}

/// Simulate one workstation running several tasks (one per job) that
/// arrive at the given times, under owner interference. Returns the
/// absolute completion time of each task.
///
/// Tasks share the CPU first come, first served. An owner request
/// preempts the task in service, which resumes ahead of the queue when
/// the burst ends. Ties follow the module docs: an owner request on a
/// completion instant preempts the finishing task.
pub fn run_station_tasks(
    owner: &OwnerWorkload,
    jobs: &[JobSpec],
    rng: &mut Xoshiro256StarStar,
) -> Vec<f64> {
    assert!(!jobs.is_empty(), "need at least one job");
    for j in jobs {
        assert!(
            j.task_demand > 0.0 && j.task_demand.is_finite() && j.arrival >= 0.0,
            "bad job spec {j:?}"
        );
    }
    let mut rng = Xoshiro256StarStar::new(rng.next());
    // Arrival order; the stable sort keeps equal arrivals in job order.
    let mut arrivals: Vec<usize> = (0..jobs.len()).collect();
    arrivals.sort_by_key(|&i| SimTime::new(jobs[i].arrival));
    let mut arrivals = arrivals.into_iter().peekable();
    // Tasks waiting for the CPU with the work they still owe.
    let mut waiting: VecDeque<(usize, f64)> = VecDeque::new();
    let mut serving: Option<Serving> = None;
    // The owner's next request, or the end of its burst while busy.
    let mut owner_at = SimTime::new(owner.sample_think(&mut rng));
    let mut owner_busy = false;
    let mut done = vec![f64::NAN; jobs.len()];
    let mut left = jobs.len();
    while left > 0 {
        // At equal times: a task arrival, then the owner, then the
        // completion of the task in service.
        let completion = serving.map(|s| s.completion);
        let first = |at: SimTime| at <= owner_at && completion.is_none_or(|c| at <= c);
        if let Some(task) = arrivals.next_if(|&i| first(SimTime::new(jobs[i].arrival))) {
            let (now, demand) = (SimTime::new(jobs[task].arrival), jobs[task].task_demand);
            if owner_busy || serving.is_some() {
                waiting.push_back((task, demand));
            } else {
                serving = Some(Serving::start(task, now, demand));
            }
        } else if completion.is_none_or(|c| owner_at <= c) {
            let now = owner_at;
            if owner_busy {
                owner_busy = false;
                owner_at = now + SimTime::new(owner.sample_think(&mut rng));
                serving = waiting
                    .pop_front()
                    .map(|(task, remaining)| Serving::start(task, now, remaining));
            } else {
                let burst = owner.sample_service(&mut rng);
                if let Some(s) = serving.take() {
                    let remaining = (s.remaining - (now - s.since).as_f64()).max(0.0);
                    waiting.push_front((s.task, remaining));
                }
                owner_busy = true;
                owner_at = now + SimTime::new(burst);
            }
        } else {
            let s = serving.take().expect("a completion is pending");
            done[s.task] = s.completion.as_f64();
            left -= 1;
            serving = waiting
                .pop_front()
                .map(|(task, remaining)| Serving::start(task, s.completion, remaining));
        }
    }
    done
}

/// A multi-job workload across a homogeneous pool.
#[derive(Debug, Clone)]
pub struct MultiJobExperiment {
    /// The co-scheduled jobs.
    pub jobs: Vec<JobSpec>,
    /// Pool size (each job runs one task per station).
    pub workstations: u32,
    /// Owner behaviour (homogeneous).
    pub owner: OwnerWorkload,
    /// Master seed.
    pub seed: u64,
}

impl MultiJobExperiment {
    /// Run once; returns one outcome per job.
    pub fn run(&self, replication: u64) -> Vec<JobOutcome> {
        assert!(self.workstations >= 1, "need at least one workstation");
        let streams = StreamFactory::new(self.seed);
        // Per-station task completion times.
        let mut completions = vec![f64::NEG_INFINITY; self.jobs.len()];
        for station in 0..self.workstations {
            let mut rng =
                streams.labeled_stream("multi-job", u64::from(station) << 32 | replication);
            let times = run_station_tasks(&self.owner, &self.jobs, &mut rng);
            for (j, &t) in times.iter().enumerate() {
                completions[j] = completions[j].max(t);
            }
        }
        self.jobs
            .iter()
            .zip(&completions)
            .map(|(spec, &completion)| JobOutcome {
                completion,
                response_time: completion - spec.arrival,
                dedicated_time: spec.task_demand,
            })
            .collect()
    }

    /// Mean outcomes over several replications (means of response times).
    pub fn mean_response_times(&self, replications: u64) -> Vec<f64> {
        assert!(replications >= 1);
        let mut acc = vec![0.0; self.jobs.len()];
        for rep in 0..replications {
            for (slot, out) in acc.iter_mut().zip(self.run(rep)) {
                *slot += out.response_time;
            }
        }
        for slot in &mut acc {
            *slot /= replications as f64;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owner(u: f64) -> OwnerWorkload {
        OwnerWorkload::continuous_exponential(10.0, u).unwrap()
    }

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::new(seed)
    }

    #[test]
    fn single_task_matches_continuous_workstation_semantics() {
        let ow = owner(1e-9);
        let jobs = [JobSpec {
            task_demand: 100.0,
            arrival: 0.0,
        }];
        let times = run_station_tasks(&ow, &jobs, &mut rng(1));
        assert!((times[0] - 100.0).abs() < 0.5, "time {}", times[0]);

        // The paper's integer-time owner requests the CPU on completion
        // instants. This loop serves the owner first and the one-task
        // loop the completion, so a task can end up to one burst O
        // later here, and never earlier.
        let paper = OwnerWorkload::paper_from_utilization(10.0, 0.2).unwrap();
        let jobs = [JobSpec {
            task_demand: 40.0,
            arrival: 0.0,
        }];
        let mut later = 0;
        for seed in 0..1_000 {
            let multi = run_station_tasks(&paper, &jobs, &mut rng(seed))[0];
            let single = crate::continuous::run_task(&paper, 40.0, &mut rng(seed));
            let delta = multi - single.execution_time;
            assert!((0.0..=10.0).contains(&delta), "seed {seed}: delta {delta}");
            later += usize::from(delta > 0.0);
        }
        assert!(later > 0, "no seed put an owner request on a completion");
    }

    #[test]
    fn two_tasks_serialize_on_one_cpu() {
        let ow = owner(1e-9);
        let jobs = [
            JobSpec {
                task_demand: 50.0,
                arrival: 0.0,
            },
            JobSpec {
                task_demand: 50.0,
                arrival: 0.0,
            },
        ];
        let times = run_station_tasks(&ow, &jobs, &mut rng(2));
        // FIFO: first finishes ~50, second ~100.
        assert!((times[0] - 50.0).abs() < 1.0, "{times:?}");
        assert!((times[1] - 100.0).abs() < 1.0, "{times:?}");
    }

    #[test]
    fn later_arrival_queues_behind() {
        let ow = owner(1e-9);
        let jobs = [
            JobSpec {
                task_demand: 100.0,
                arrival: 0.0,
            },
            JobSpec {
                task_demand: 10.0,
                arrival: 30.0,
            },
        ];
        let times = run_station_tasks(&ow, &jobs, &mut rng(3));
        assert!((times[0] - 100.0).abs() < 1.0);
        // Second task waits for the first: finishes ~110, not ~40.
        assert!((times[1] - 110.0).abs() < 1.0, "{times:?}");
    }

    #[test]
    fn owners_still_preempt_everything() {
        let ow = owner(0.3);
        let jobs = [
            JobSpec {
                task_demand: 100.0,
                arrival: 0.0,
            },
            JobSpec {
                task_demand: 100.0,
                arrival: 0.0,
            },
        ];
        let times = run_station_tasks(&ow, &jobs, &mut rng(4));
        // Both tasks stretched well beyond their serialized 200 total.
        assert!(times[1] > 220.0, "{times:?}");
    }

    #[test]
    fn experiment_jobs_slow_each_other() {
        let base = MultiJobExperiment {
            jobs: vec![JobSpec {
                task_demand: 100.0,
                arrival: 0.0,
            }],
            workstations: 8,
            owner: owner(0.05),
            seed: 42,
        };
        let solo = base.mean_response_times(10)[0];
        let shared = MultiJobExperiment {
            jobs: vec![
                JobSpec {
                    task_demand: 100.0,
                    arrival: 0.0,
                },
                JobSpec {
                    task_demand: 100.0,
                    arrival: 0.0,
                },
            ],
            ..base
        };
        let both = shared.mean_response_times(10);
        // FIFO within the task class: the first-submitted job is
        // untouched, the one queued behind it roughly doubles.
        assert!(
            (both[0] - solo).abs() < 1e-9,
            "first job {} should match solo {}",
            both[0],
            solo
        );
        assert!(
            both[1] > solo * 1.8,
            "queued job {} should roughly double solo {}",
            both[1],
            solo
        );
    }

    #[test]
    fn outcome_accounting() {
        let exp = MultiJobExperiment {
            jobs: vec![
                JobSpec {
                    task_demand: 50.0,
                    arrival: 0.0,
                },
                JobSpec {
                    task_demand: 50.0,
                    arrival: 100.0,
                },
            ],
            workstations: 4,
            owner: owner(0.05),
            seed: 7,
        };
        for out in exp.run(0) {
            assert!(out.response_time > 0.0);
            assert!(out.completion >= out.response_time);
            assert!(out.slowdown() >= 1.0);
        }
    }

    #[test]
    fn reproducible_per_replication() {
        let exp = MultiJobExperiment {
            jobs: vec![JobSpec {
                task_demand: 80.0,
                arrival: 0.0,
            }],
            workstations: 3,
            owner: owner(0.1),
            seed: 9,
        };
        assert_eq!(exp.run(1), exp.run(1));
        assert_ne!(exp.run(1), exp.run(2));
    }

    #[test]
    #[should_panic(expected = "need at least one job")]
    fn rejects_empty_jobs() {
        run_station_tasks(&owner(0.1), &[], &mut rng(1));
    }
}
