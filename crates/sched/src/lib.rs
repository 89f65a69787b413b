//! # nds-sched — a Condor-style cycle-stealing pool scheduler
//!
//! The paper assumes the simplest possible scheduler: one perfectly
//! parallel job, statically sliced into `W` tasks, one per workstation,
//! suspended and resumed beneath the owners. Its §5 future work — "more
//! complex workloads" and owner behaviour — points straight at the real
//! cycle-stealing systems of the era (Condor above all), which had to
//! decide *where* tasks go, *what* happens when an owner returns, and
//! *which* queued job runs next. This crate simulates that whole layer
//! on top of the [`nds_des`] engine:
//!
//! * [`pool`] — dynamic pool membership: a machine is offerable only
//!   while its owner is away and no guest occupies it, with
//!   probe-style exponentially-weighted utilization estimates (and an
//!   optional pre-run calibration probe, the simulated `uptime` the
//!   paper calibrated against). Offerable machines live in a
//!   [`pool::CandidateIndex`], an O(log W) tournament tree allocated
//!   once per pool.
//! * [`policy`] — the [`policy::PlacementPolicy`] trait with
//!   [`policy::RandomPlacement`], [`policy::RoundRobinPlacement`], and
//!   [`policy::LeastLoadedPlacement`], each one query on the
//!   candidate index.
//! * [`eviction`] — owner-return handling: Restart, Suspend/Resume
//!   (the paper's assumption), Migrate, and periodic Checkpoint.
//! * [`gang`] — gang scheduling / co-allocation: all-or-nothing job
//!   admission, lockstep (barrier-synchronized) execution, suspend-all
//!   or migrate-as-a-unit reclaim semantics, and Ousterhout-style
//!   **partial gangs** ([`gang::GangPolicy::Partial`]) that keep
//!   computing at a degraded rate while at least `min_running` members
//!   hold machines — with co-allocation wait / fragmentation /
//!   barrier-stall / degraded-mode / effective-parallelism metrics.
//! * [`failure`] — fault injection: per-machine crash/repair processes
//!   ([`failure::FailureModel`]) with crash semantics distinct from
//!   owner reclaim — crashes destroy suspended guests and in-flight
//!   checkpoints and remove the machine from the pool until repair.
//! * [`queue`] — a central job queue (FCFS and shortest-job backfill)
//!   feeding multi-job workloads.
//! * [`feed`] — streaming job feeds: [`simulator::SchedConfig::run_streamed`]
//!   pulls arrivals from a [`feed::JobFeed`] in bounded chunks and
//!   retires completed job records through a sink, so a million-job
//!   trace runs in O(chunk + live window) memory instead of
//!   materializing the whole `Vec<JobSpec>`.
//! * [`metrics`] — makespan, goodput, wasted work, checkpoint
//!   overhead, eviction/migration counts, and the work-conservation
//!   invariant `delivered == goodput + wasted + checkpoint_overhead`.
//! * [`simulator`] — the event loop tying it all together.
//! * [`trace`] — the flight recorder: the zero-cost [`trace::SchedTracer`]
//!   hook trait the event loop is generic over (disabled by default via
//!   [`nds_des::NoTrace`], which compiles the hooks away), and the
//!   everything-on [`trace::FlightRecorder`] producing JSONL event
//!   traces, Chrome/Perfetto trace JSON, sim-time metrics series, and
//!   per-event-type host profiles.
//!
//! ## Relation to the paper's model
//!
//! With a fixed full-size pool, one job of one task per machine, and
//! [`EvictionPolicy::SuspendResume`], the scheduler degenerates to the
//! paper's model exactly: machine `i` consumes the same RNG stream as
//! [`nds_cluster::JobRunner`]'s station `i`, so the degenerate
//! configuration reproduces `JobRunner`'s job times bit-for-bit (the
//! workspace's invariant tests enforce this). The one exception is an
//! owner request landing on a task's completion instant, which only
//! integer-time owners such as the paper's produce: this engine serves
//! the request first, `JobRunner` completes the task first.
//!
//! ## Quickstart
//!
//! ```
//! use nds_cluster::owner::OwnerWorkload;
//! use nds_sched::{EvictionPolicy, JobSpec, SchedConfig};
//!
//! let owner = OwnerWorkload::continuous_exponential(10.0, 0.10).unwrap();
//! let mut cfg = SchedConfig::homogeneous(
//!     8,
//!     &owner,
//!     vec![JobSpec::at_zero(16, 100.0)],
//! );
//! cfg.eviction = EvictionPolicy::Checkpoint { interval: 25.0, overhead: 0.5 };
//! let metrics = cfg.run().unwrap();
//! assert_eq!(metrics.completed_tasks, 16);
//! assert!(metrics.is_consistent());
//! ```
//!
//! ## Partial gangs (`min_running`)
//!
//! Between independent tasks and all-or-nothing gangs sits
//! Ousterhout-style co-scheduling: the job keeps computing — at a rate
//! proportional to its running member count — as long as at least
//! `min_running` of its tasks hold owner-free machines, and suspends
//! as a whole only below that floor. The floor's boundaries are the
//! two existing engines, bit-for-bit: `min_running: 1` on single-task
//! gangs is [`GangPolicy::Off`], `min_running: k` is
//! [`GangPolicy::SuspendAll`] (the workspace's `gang_invariants`
//! property tests pin both).
//!
//! ```
//! use nds_cluster::owner::OwnerWorkload;
//! use nds_sched::{GangPolicy, JobSpec, SchedConfig};
//!
//! let owner = OwnerWorkload::continuous_exponential(10.0, 0.15).unwrap();
//! // An 8-wide gang that tolerates losing up to half its machines.
//! let mut cfg = SchedConfig::homogeneous(
//!     8,
//!     &owner,
//!     vec![JobSpec::at_zero(8, 100.0)],
//! );
//! cfg.gang = GangPolicy::Partial { min_running: 4 };
//! let metrics = cfg.run().unwrap();
//! assert_eq!(metrics.gang.floor_violations, 0);
//! // ∫ rate·dt over work segments is exactly the demand served.
//! let integral = metrics.gang.parallelism_integral;
//! assert!((integral - metrics.total_demand).abs() <= 1e-9 * metrics.total_demand);
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod eviction;
pub mod failure;
pub mod feed;
pub mod gang;
pub mod metrics;
pub mod policy;
pub mod pool;
pub mod queue;
pub mod simulator;
pub mod trace;

pub use error::SchedError;
pub use eviction::{on_eviction, EvictionOutcome, EvictionPolicy};
pub use failure::{FailureModel, Lifetime};
pub use feed::{JobFeed, SliceFeed, VecFeed};
pub use gang::{GangPolicy, GangQueue, GangStats, PendingGang};
pub use metrics::{JobRecord, SchedMetrics};
pub use policy::{CandidateMachine, PlacementKind, PlacementPolicy};
pub use pool::{CandidateIndex, Pool, UtilizationEstimator};
pub use queue::{JobQueue, JobSpec, PendingTask, QueueDiscipline};
pub use simulator::SchedConfig;
pub use trace::{
    EventClass, EvictionAction, FlightRecorder, ObsKind, Profiler, ProgressMeter, RecordFilter,
    SchedRecord, SchedTracer, SegmentKind, StateSample, Tee,
};
