//! Multiprocessor (SMP) workstations — an extension beyond the paper's
//! single-CPU model.
//!
//! With `k` CPUs per workstation, an owner burst occupies one CPU and
//! only preempts the parallel task when **every** CPU is busy. Since
//! the paper's workload has one owner and one task per workstation, a
//! second CPU absorbs essentially all interference; the module also
//! supports multiple owner streams per machine (a shared departmental
//! server), where contention reappears.

use crate::owner::OwnerWorkload;
use crate::task::TaskOutcome;
use nds_des::{Calendar, SimTime};
use nds_stats::rng::Xoshiro256StarStar;
use std::collections::VecDeque;

/// The events of one SMP run. Owner events carry their stream's index.
#[derive(Debug, Clone, Copy)]
enum SmpEvent {
    /// The parallel task completes.
    Task,
    /// Owner stream `i` requests a CPU.
    OwnerArrival(usize),
    /// Owner stream `i` finishes its burst.
    OwnerDone(usize),
}

/// A workstation with `cpus` identical CPUs, one parallel task, and one
/// or more independent owner streams.
#[derive(Debug, Clone)]
pub struct SmpWorkstation {
    cpus: usize,
    owners: Vec<OwnerWorkload>,
}

impl SmpWorkstation {
    /// A `cpus`-CPU workstation with a single owner.
    pub fn new(cpus: usize, owner: OwnerWorkload) -> Self {
        Self::with_owners(cpus, vec![owner])
    }

    /// A `cpus`-CPU machine shared by several independent owners
    /// (each with their own think/use cycle).
    pub fn with_owners(cpus: usize, owners: Vec<OwnerWorkload>) -> Self {
        assert!(cpus >= 1, "need at least one CPU");
        assert!(!owners.is_empty(), "need at least one owner");
        Self { cpus, owners }
    }

    /// CPU count.
    pub fn cpus(&self) -> usize {
        self.cpus
    }

    /// Run one parallel task to completion under the machine's owner
    /// interference.
    ///
    /// An owner burst takes a free CPU if there is one, else preempts
    /// the task, else waits in FIFO order behind the other queued
    /// bursts. A freed CPU goes to the oldest queued burst before the
    /// preempted task. At equal times events fire in the order they
    /// were scheduled.
    pub fn run_task(&self, task_demand: f64, rng: &mut Xoshiro256StarStar) -> TaskOutcome {
        assert!(
            task_demand > 0.0 && task_demand.is_finite(),
            "task demand must be finite and > 0"
        );
        let mut rng = Xoshiro256StarStar::new(rng.next());
        let mut calendar = Calendar::new();
        // The task's last (re)start, the work it still owed then, and
        // its completion event while it holds a CPU.
        let mut since = SimTime::ZERO;
        let mut remaining = task_demand;
        let mut task = Some(
            calendar
                .schedule(since + SimTime::new(remaining), SmpEvent::Task)
                .expect("the task starts at time zero"),
        );
        for (i, owner) in self.owners.iter().enumerate() {
            let think = SimTime::new(owner.sample_think(&mut rng));
            calendar
                .post(think, SmpEvent::OwnerArrival(i))
                .expect("first owner arrival is in the future");
        }
        // Owners holding a CPU, and bursts waiting for one.
        let mut busy = 0;
        let mut queued: VecDeque<(usize, f64)> = VecDeque::new();
        let mut interruptions = 0;
        loop {
            let (now, event) = calendar
                .pop()
                .expect("owner streams keep the calendar busy until the task completes");
            match event {
                SmpEvent::Task => {
                    let done = now.as_f64();
                    return TaskOutcome {
                        execution_time: done,
                        demand: task_demand,
                        interruptions,
                        suspended_time: done - task_demand,
                    };
                }
                SmpEvent::OwnerArrival(i) => {
                    let burst = self.owners[i].sample_service(&mut rng);
                    if busy + usize::from(task.is_some()) == self.cpus {
                        let Some(handle) = task.take() else {
                            // Every CPU holds an owner: wait for one.
                            queued.push_back((i, burst));
                            continue;
                        };
                        calendar.cancel(handle);
                        interruptions += 1;
                        remaining = (remaining - (now - since).as_f64()).max(0.0);
                    }
                    busy += 1;
                    calendar
                        .post(now + SimTime::new(burst), SmpEvent::OwnerDone(i))
                        .expect("a burst ends after it starts");
                }
                SmpEvent::OwnerDone(i) => {
                    // The freed CPU goes to the oldest queued burst,
                    // else back to a preempted task.
                    if let Some((j, burst)) = queued.pop_front() {
                        calendar
                            .post(now + SimTime::new(burst), SmpEvent::OwnerDone(j))
                            .expect("a burst ends after it starts");
                    } else {
                        busy -= 1;
                        if task.is_none() {
                            since = now;
                            task = Some(
                                calendar
                                    .schedule(now + SimTime::new(remaining), SmpEvent::Task)
                                    .expect("the task ends after it resumes"),
                            );
                        }
                    }
                    let think = SimTime::new(self.owners[i].sample_think(&mut rng));
                    calendar
                        .post(now + think, SmpEvent::OwnerArrival(i))
                        .expect("an owner thinks before its next request");
                }
            }
        }
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

    fn mean_time(ws: &SmpWorkstation, t: f64, reps: u32, seed: u64) -> f64 {
        let mut r = rng(seed);
        (0..reps)
            .map(|_| ws.run_task(t, &mut r).execution_time)
            .sum::<f64>()
            / f64::from(reps)
    }

    #[test]
    fn single_cpu_matches_interference_rate() {
        let ws = SmpWorkstation::new(1, owner(0.2));
        let mean = mean_time(&ws, 500.0, 200, 1);
        let expected = 500.0 / 0.8;
        assert!(
            (mean - expected).abs() / expected < 0.06,
            "mean {mean} vs {expected}"
        );
    }

    #[test]
    fn second_cpu_absorbs_single_owner() {
        let ws = SmpWorkstation::new(2, owner(0.3));
        let mean = mean_time(&ws, 300.0, 100, 2);
        assert!(
            (mean - 300.0).abs() < 2.0,
            "dual-CPU task should run nearly dedicated, got {mean}"
        );
    }

    #[test]
    fn shared_server_brings_contention_back() {
        // 2 CPUs but 4 independent owners at 30% each: the task often
        // finds both CPUs owner-occupied.
        let busy = SmpWorkstation::with_owners(2, vec![owner(0.3); 4]);
        let mean = mean_time(&busy, 300.0, 100, 3);
        assert!(mean > 315.0, "4 owners on 2 CPUs must interfere: {mean}");
        // And 4 CPUs absorb those same owners much better.
        let roomy = SmpWorkstation::with_owners(4, vec![owner(0.3); 4]);
        let mean4 = mean_time(&roomy, 300.0, 100, 3);
        assert!(mean4 < mean, "more CPUs must help: {mean4} vs {mean}");
    }

    #[test]
    fn outcome_consistent() {
        let ws = SmpWorkstation::new(1, owner(0.2));
        let mut r = rng(4);
        for _ in 0..20 {
            let out = ws.run_task(100.0, &mut r);
            assert!(out.is_consistent());
            assert!(out.execution_time >= 100.0);
        }
    }

    #[test]
    fn reproducible() {
        let ws = SmpWorkstation::new(2, owner(0.1));
        let a = ws.run_task(200.0, &mut rng(5));
        let b = ws.run_task(200.0, &mut rng(5));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "need at least one CPU")]
    fn rejects_zero_cpus() {
        SmpWorkstation::new(0, owner(0.1));
    }
}
