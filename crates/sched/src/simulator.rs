//! The scheduler simulation itself: one typed [`nds_des::Calendar`]
//! driving owner workloads, the central queue, placement, and eviction.
//!
//! # Event structure
//!
//! The engine's whole vocabulary is the (private) `SchedEvent` enum:
//!
//! * **Owner arrival/departure** — each machine's owner alternates
//!   think/use cycles drawn from its [`OwnerWorkload`], exactly as in
//!   [`nds_cluster::ContinuousWorkstation`]; an arrival on a machine
//!   hosting a guest task triggers the configured
//!   [`EvictionPolicy`].
//! * **Job arrival** — pushes the job's tasks into the central
//!   [`JobQueue`] (or, under a [`GangPolicy`], the whole job into the
//!   co-allocation [`GangQueue`]).
//! * **Segment end** — guest execution is sliced into segments (setup,
//!   work, checkpoint-write); the end of each either completes the task
//!   or starts the next segment. Gang runs use their own job-level
//!   segment-end event.
//!
//! # The zero-allocation hot path
//!
//! Until PR 5 every event was a `Box<dyn FnOnce>` closure over an
//! `Rc<RefCell<Sim>>`, cancellation went through two `HashSet`s, and
//! each dispatch iteration materialized a fresh candidate `Vec`. The
//! engine now drives plain `SchedEvent` values through
//! [`Calendar<SchedEvent>`](nds_des::Calendar) and hands `&mut Sim`
//! straight to each handler:
//!
//! * scheduling an event pushes a `Copy` entry and reuses a slab slot —
//!   no per-event heap allocation once the calendar reaches its
//!   high-water mark;
//! * cancelling a segment end is a generation bump on its
//!   [`nds_des::EventHandle`] — no hash probes;
//! * placement queries [`Pool::index`], an incrementally maintained
//!   tournament tree — no per-dispatch `Vec`;
//! * the partial-gang grower search and the co-scheduling invariant
//!   check are incremental (a sorted under-placed-gang set, and a
//!   touched-gang check backed by a full-scan `debug_assert!`),
//!   so no event pays an O(#jobs) scan.
//!
//! The steady-state `SegmentEnd` → `dispatch` → `SegmentEnd` cycle
//! therefore performs no heap allocation at all. Event ordering (time,
//! then insertion sequence) is identical to the old closure engine, so
//! the rewrite is bit-for-bit output-preserving — pinned by the
//! workspace's `event_core_oracle` golden test and every invariant
//! suite.
//!
//! # Job-level vs task-level scheduling events
//!
//! The original engine only knew task-level events: each task was
//! placed, ran, and was evicted independently. Gang scheduling
//! ([`crate::gang`]) makes the job the schedulable unit — a gang is
//! admitted only when its floor fits at once, starts atomically,
//! progresses in lockstep (the paper's barrier-synchronized picture),
//! and reacts to any member's owner return as a whole (suspend-all or
//! migrate-as-a-unit). With [`GangPolicy::Off`] none of the gang paths
//! are entered and the engine behaves exactly as before; with gangs of
//! one task it reproduces the independent-task scheduler bit-for-bit
//! (both equivalences are enforced by `tests/gang_invariants.rs`).
//!
//! # Rate-aware execution (partial gangs)
//!
//! [`GangPolicy::Partial`] breaks the engine's original invariant that
//! a running task always progresses at rate one: a partial gang with
//! `r` of its `width` members on owner-free machines advances each
//! task at rate `r / width`, so segment ends are scheduled at
//! `work / rate` wall time and every membership event (a member's
//! owner reclaiming or releasing its machine, a freed machine joining
//! an under-placed gang) closes the in-flight segment at its old rate
//! and reopens it at the new one. Full gangs have rate exactly `1.0`,
//! which is why `Partial { min_running: width }` reproduces
//! `SuspendAll` bit-for-bit — same floats, same event times. The
//! conservation law `∫ rate·dt == demand` is pinned by
//! `tests/rate_invariants.rs` via [`GangStats::parallelism_integral`].
//!
//! # One loop, two intakes
//!
//! Every entry point runs the same private engine loop, generic over
//! the [`SchedTracer`]. Only the job intake differs: table runs
//! ([`SchedConfig::run`] and friends) admit `SchedConfig::jobs` up
//! front, streamed runs ([`SchedConfig::run_streamed`]) pull a
//! [`JobFeed`] chunk by chunk. Completed jobs retire through one sink
//! in submission order; a table run collects them into
//! [`SchedMetrics::jobs`].
//!
//! # Reproducibility
//!
//! Machine `i` consumes the stream labeled `("ws-continuous",
//! i << 32 | replication)` — deliberately the same derivation
//! [`nds_cluster::JobRunner`] uses — so the degenerate configuration
//! (fixed full-size pool, suspend-resume eviction, one job with one
//! task per machine) reproduces `JobRunner`'s sample paths exactly.
//! Placement and calibration draw from separate streams, so changing
//! the placement policy never perturbs the owners' sample paths
//! (common-random-numbers across policies).

use crate::error::SchedError;
use crate::eviction::{on_eviction, EvictionPolicy};
use crate::failure::FailureModel;
use crate::feed::JobFeed;
use crate::gang::{GangPolicy, GangQueue, GangStats, PendingGang};
use crate::metrics::{JobRecord, SchedMetrics};
use crate::policy::{
    LeastLoadedPlacement, PlacementKind, PlacementPolicy, RandomPlacement, RoundRobinPlacement,
};
use crate::pool::{CandidateIndex, Pool};
use crate::queue::{JobQueue, JobSpec, PendingTask, QueueDiscipline};
use crate::trace::{
    EventClass, EvictionAction, ObsKind, SchedRecord, SchedTracer, SegmentKind, StateSample,
};
use nds_cluster::owner::OwnerWorkload;
use nds_cluster::probe::measure_utilization;
use nds_des::{Calendar, EventHandle, NoTrace, SimTime};
use nds_stats::rng::{StreamFactory, Xoshiro256StarStar};
use std::collections::{BTreeSet, VecDeque};

/// Work-remaining below which a task counts as complete (absorbs float
/// round-off from slicing).
const WORK_EPS: f64 = 1e-12;

/// Full description of one scheduler experiment.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// One owner workload per machine in the pool.
    pub owners: Vec<OwnerWorkload>,
    /// The jobs submitted to the central queue.
    pub jobs: Vec<JobSpec>,
    /// Task placement policy.
    pub placement: PlacementKind,
    /// Owner-return policy.
    pub eviction: EvictionPolicy,
    /// Gang scheduling / co-allocation policy. When not `Off`, jobs are
    /// admitted all-or-nothing, run in lockstep, and the gang policy
    /// supersedes `eviction` (the whole gang suspends or migrates as a
    /// unit on any member's owner return).
    pub gang: GangPolicy,
    /// Central queue ordering.
    pub discipline: QueueDiscipline,
    /// Maximum estimated owner utilization at which a machine is still
    /// offered to the scheduler (1.0 admits every idle machine).
    pub admission_threshold: f64,
    /// Averaging window of the per-machine utilization estimators.
    pub estimator_tau: f64,
    /// Pre-run probe horizon used to seed the estimators (0 disables —
    /// the scheduler then starts with no prior, like a cold `uptime`
    /// table).
    pub calibration_horizon: f64,
    /// Master seed for every stream in the run.
    pub seed: u64,
    /// Replication index (varies the sample path under one seed).
    pub replication: u64,
    /// Safety cap on executed events.
    pub max_events: u64,
    /// Machine crash/repair process ([`crate::failure`]). `None` (the
    /// default) injects no failures and leaves every RNG stream and
    /// event sequence bit-identical to the failure-free engine.
    pub failures: Option<FailureModel>,
}

impl SchedConfig {
    /// A homogeneous pool of `w` machines sharing one owner workload,
    /// with every other knob at its default.
    pub fn homogeneous(w: u32, owner: &OwnerWorkload, jobs: Vec<JobSpec>) -> Self {
        Self {
            owners: vec![owner.clone(); w as usize], // ndslint::allow(no-alloc-in-hot-path, reason = "config construction, runs once per experiment")
            jobs,
            placement: PlacementKind::LeastLoaded,
            eviction: EvictionPolicy::SuspendResume,
            gang: GangPolicy::Off,
            discipline: QueueDiscipline::Fcfs,
            admission_threshold: 1.0,
            estimator_tau: 1_000.0,
            calibration_horizon: 0.0,
            seed: 0x5EED,
            replication: 0,
            max_events: 20_000_000,
            failures: None,
        }
    }

    /// Validate every field.
    pub fn validate(&self) -> Result<(), SchedError> {
        self.validate_shared()?;
        let invalid = |field, reason: String| Err(SchedError::InvalidConfig { field, reason });
        if self.jobs.is_empty() {
            return invalid("jobs", "need at least one job".into());
        }
        for (i, j) in self.jobs.iter().enumerate() {
            validate_job_spec(i, j)?;
        }
        if self.gang.is_on() {
            for (i, j) in self.jobs.iter().enumerate() {
                // All-or-nothing gangs need their full width free at
                // once; partial gangs only their min_running floor (a
                // wider-than-pool job then simply never leaves
                // degraded mode).
                let need = self.gang.floor_for(j.tasks);
                if need as usize > self.owners.len() {
                    return invalid(
                        "jobs",
                        format!(
                            "job {i} needs {need} machines at once (gang floor) but \
                             the pool has {}: the gang can never be co-allocated",
                            self.owners.len()
                        ),
                    );
                }
            }
        }
        Ok(())
    }

    /// Validate for a streamed run ([`SchedConfig::run_streamed`]),
    /// where jobs arrive from a [`JobFeed`] instead of `self.jobs`
    /// (which is ignored on that path). Gang scheduling needs the full
    /// job table up front for co-allocation state, so streaming
    /// requires [`GangPolicy::Off`]; per-job fields are validated
    /// chunk by chunk as the feed delivers them.
    pub fn validate_streamed(&self, chunk: usize) -> Result<(), SchedError> {
        self.validate_shared()?;
        let invalid = |field, reason: String| Err(SchedError::InvalidConfig { field, reason });
        if chunk == 0 {
            return invalid(
                "chunk",
                "streamed runs need a chunk size of at least 1".into(),
            );
        }
        if self.gang.is_on() {
            return invalid(
                "gang",
                "gang scheduling needs the full job table up front; \
                 streamed runs require GangPolicy::Off"
                    .into(),
            );
        }
        Ok(())
    }

    /// The field checks shared by materialized and streamed runs —
    /// everything except the job list.
    fn validate_shared(&self) -> Result<(), SchedError> {
        let invalid = |field, reason: String| Err(SchedError::InvalidConfig { field, reason });
        if self.owners.is_empty() {
            return invalid("owners", "pool needs at least one machine".into());
        }
        if !(self.admission_threshold.is_finite() && self.admission_threshold > 0.0) {
            return invalid(
                "admission_threshold",
                format!("{} not finite > 0", self.admission_threshold),
            );
        }
        if !(self.estimator_tau.is_finite() && self.estimator_tau > 0.0) {
            return invalid(
                "estimator_tau",
                format!("{} not finite > 0", self.estimator_tau),
            );
        }
        if !(self.calibration_horizon.is_finite() && self.calibration_horizon >= 0.0) {
            return invalid(
                "calibration_horizon",
                format!("{} not finite >= 0", self.calibration_horizon),
            );
        }
        if self.max_events == 0 {
            return invalid("max_events", "must be positive".into());
        }
        if let Err((field, reason)) = self.eviction.validate() {
            return invalid(field, reason);
        }
        if let Err((field, reason)) = self.gang.validate() {
            return invalid(field, reason);
        }
        if let Some(model) = &self.failures {
            if let Err((field, reason)) = model.validate() {
                return invalid(field, reason);
            }
        }
        Ok(())
    }

    /// Run `reps` independent replications (replication indices
    /// `0..reps` under this config's seed) and collect their metrics.
    /// This is the one experiment harness the CLI and bench binaries
    /// share, so "mean over replications" always means the same thing.
    ///
    /// The config is validated once and **never cloned**: each
    /// replication borrows the same owner and job tables and varies
    /// only the replication index it feeds the seed streams.
    pub fn run_replications(&self, reps: u64) -> Result<Vec<SchedMetrics>, SchedError> {
        self.validate()?;
        (0..reps.max(1))
            .map(|rep| {
                self.run_validated(rep, &mut NoTrace)
                    .map(|(metrics, _)| metrics)
            })
            .collect()
    }

    /// Run the experiment to completion of every job.
    pub fn run(&self) -> Result<SchedMetrics, SchedError> {
        self.run_counted().map(|(metrics, _)| metrics)
    }

    /// Like [`SchedConfig::run`], but also report the number of
    /// calendar events the engine executed — the denominator of the
    /// `perf_core` events-per-second benchmark.
    pub fn run_counted(&self) -> Result<(SchedMetrics, u64), SchedError> {
        self.validate()?;
        self.run_validated(self.replication, &mut NoTrace)
    }

    /// Run one replication observed by a [`SchedTracer`] — the flight
    /// recorder entry point. With [`NoTrace`] this is exactly
    /// [`SchedConfig::run_counted`] (the hooks compile away); with
    /// [`crate::trace::FlightRecorder`] every handled event is
    /// recorded, the engine's state is sampled after each event, and
    /// host time is attributed per event class. The caller finishes
    /// and exports the tracer afterwards.
    pub fn run_traced<T: SchedTracer>(
        &self,
        tracer: &mut T,
    ) -> Result<(SchedMetrics, u64), SchedError> {
        self.validate()?;
        self.run_validated(self.replication, tracer)
    }

    /// One replication on an already-validated config, over the
    /// config's own job table; the retired records become
    /// `metrics.jobs`.
    fn run_validated<T: SchedTracer>(
        &self,
        replication: u64,
        tracer: &mut T,
    ) -> Result<(SchedMetrics, u64), SchedError> {
        let mut records = Vec::with_capacity(self.jobs.len());
        let (mut metrics, events) = self.run_engine(
            replication,
            Intake::Table,
            &mut |_, record| records.push(record),
            tracer,
        )?;
        metrics.jobs = records;
        Ok((metrics, events))
    }

    /// Run one replication with jobs pulled from a [`JobFeed`] in
    /// chunks of at most `chunk`, instead of from `self.jobs` (which
    /// this path ignores). Completed jobs leave the engine through
    /// `on_job` — called with each job's absolute submission index and
    /// final [`JobRecord`], in submission order — so the returned
    /// [`SchedMetrics`] carries an empty `jobs` list and peak memory
    /// is bounded by the chunk size plus the live job window, not the
    /// trace length.
    ///
    /// This is the same engine loop as [`SchedConfig::run`]; only the
    /// intake differs (a feed instead of the job table). Arrivals must
    /// be globally non-decreasing across the whole feed; a violation
    /// surfaces as a typed [`SchedError::InvalidConfig`] naming the
    /// offending job index. Gang scheduling is rejected up front (see
    /// [`SchedConfig::validate_streamed`]). Over the same job list,
    /// this replays [`SchedConfig::run_counted`]'s event sequence
    /// exactly — same RNG draws, same metrics — which the workspace's
    /// streaming byte-identity tests pin.
    pub fn run_streamed(
        &self,
        feed: &mut dyn JobFeed,
        chunk: usize,
        on_job: &mut dyn FnMut(usize, JobRecord),
    ) -> Result<(SchedMetrics, u64), SchedError> {
        self.validate_streamed(chunk)?;
        self.run_engine(
            self.replication,
            Intake::Feed { feed, chunk },
            on_job,
            &mut NoTrace,
        )
    }

    /// The engine: one replication on an already-validated config.
    /// Jobs enter through `intake`; each completed job leaves through
    /// `on_job` (absolute submission index and final record, in
    /// submission order), so the returned metrics carry an empty
    /// `jobs` list.
    fn run_engine<T: SchedTracer>(
        &self,
        replication: u64,
        intake: Intake<'_>,
        on_job: &mut dyn FnMut(usize, JobRecord),
        tracer: &mut T,
    ) -> Result<(SchedMetrics, u64), SchedError> {
        let factory = StreamFactory::new(self.seed);
        let w = self.owners.len();

        let initial_estimates: Vec<f64> = if self.calibration_horizon > 0.0 {
            self.owners
                .iter()
                .enumerate()
                .map(|(i, o)| {
                    let mut rng =
                        factory.labeled_stream("sched-probe", (i as u64) << 32 | replication);
                    measure_utilization(o, self.calibration_horizon, &mut rng).utilization
                })
                .collect()
        } else {
            Vec::new() // ndslint::allow(no-alloc-in-hot-path, reason = "run setup, before the event loop")
        };

        let machines: Vec<MachineSim> = self
            .owners
            .iter()
            .enumerate()
            .map(|(i, owner)| MachineSim {
                owner,
                rng: Xoshiro256StarStar::new(
                    factory
                        .labeled_stream("ws-continuous", (i as u64) << 32 | replication)
                        .next(),
                ),
                guest: None,
            })
            .collect();

        // Streamed runs reject gangs up front, so only a table run
        // ever builds gang state.
        let gangs: Vec<GangState> = if self.gang.is_on() {
            self.jobs
                .iter()
                .map(|spec| GangState {
                    members: Vec::new(), // ndslint::allow(no-alloc-in-hot-path, reason = "run setup, before the event loop")
                    member_running: Vec::new(), // ndslint::allow(no-alloc-in-hot-path, reason = "run setup, before the event loop")
                    member_busy: Vec::new(), // ndslint::allow(no-alloc-in-hot-path, reason = "run setup, before the event loop")
                    demand: spec.task_demand,
                    remaining: spec.task_demand,
                    setup_left: 0.0,
                    width: spec.tasks,
                    floor: self.gang.floor_for(spec.tasks),
                    phase: GangPhase::Queued,
                })
                .collect()
        } else {
            Vec::new() // ndslint::allow(no-alloc-in-hot-path, reason = "run setup, before the event loop")
        };
        let resident = match intake {
            Intake::Table => self.jobs.len(),
            Intake::Feed { chunk, .. } => chunk,
        };

        let mut sim = Sim {
            machines,
            pool: Pool::new(
                w,
                self.admission_threshold,
                self.estimator_tau,
                &initial_estimates,
            ),
            queue: JobQueue::new(),
            jobs: JobTable {
                base: 0,
                states: VecDeque::with_capacity(resident),
            },
            jobs_remaining: 0,
            placement: PlacementState::new(self.placement),
            placement_rng: factory.labeled_stream("sched-placement", replication),
            eviction: self.eviction,
            gang_policy: self.gang,
            gangs,
            gang_queue: GangQueue::new(),
            machine_gang: vec![None; w],
            growers: BTreeSet::new(),
            gacc: GangStats::default(),
            frag_t: 0.0,
            frag_free: 0,
            frag_waiting: false,
            discipline: self.discipline,
            acc: Acc::default(),
            failures: self.failures,
            failure_rngs: failure_streams(&factory, self.failures.is_some(), w, replication),
            crashes_by_machine: vec![0; if self.failures.is_some() { w } else { 0 }],
            makespan: 0.0,
            done: false,
        };

        let mut cal: Calendar<SchedEvent> = Calendar::with_capacity(w + 16);
        for m in 0..w {
            let mach = &mut sim.machines[m];
            let think = mach.owner.sample_think(&mut mach.rng);
            cal.post(
                SimTime::new(think),
                SchedEvent::OwnerArrival { m: m as u32 },
            )
            .expect("invariant: think time is non-negative");
        }
        seed_failures(&mut sim, &mut cal);
        let mut feeder = match intake {
            Intake::Table => ChunkFeeder::from_table(&self.jobs, &mut sim, &mut cal),
            Intake::Feed { feed, chunk } => {
                let mut feeder = ChunkFeeder::new(feed, chunk);
                feeder.pull(&mut sim, &mut cal)?;
                if feeder.scheduled == 0 {
                    return Err(SchedError::InvalidConfig {
                        field: "feed",
                        reason: "need at least one job".into(),
                    });
                }
                feeder
            }
        };

        while cal.executed() < self.max_events {
            let Some((t, event)) = cal.pop() else { break };
            let now = t.as_f64();
            // With tracing off (`NoTrace`), the guard below is
            // `if false` after monomorphization: no clock reads, no
            // sampling, no calls — the loop body is the pre-tracing
            // code exactly.
            #[allow(clippy::disallowed_methods)] // profiler-only wall-clock read
            let started = if T::ENABLED && tracer.profile_enabled() {
                Some(std::time::Instant::now()) // ndslint::allow(no-wall-clock, reason = "feeds the PR 6 profiler; never observed by sim logic")
            } else {
                None
            };
            match event {
                SchedEvent::OwnerArrival { m } => {
                    owner_arrival(&mut sim, &mut cal, now, m as usize, tracer)
                }
                SchedEvent::OwnerDeparture { m } => {
                    owner_departure(&mut sim, &mut cal, now, m as usize, tracer)
                }
                SchedEvent::JobArrival { j } => {
                    job_arrival(&mut sim, &mut cal, now, j as usize, tracer);
                    // The window's last scheduled arrival just fired:
                    // pull the next chunk *now*, while the calendar's
                    // backlog floor is this arrival's timestamp, so the
                    // feed's later arrivals always schedule cleanly.
                    // `jobs_remaining >= 1` here (a job cannot complete
                    // inside its own arrival event — completions happen
                    // in segment-end events), so the run cannot drain
                    // to `done` with feed jobs still unread.
                    if j as usize + 1 == feeder.scheduled {
                        feeder.pull(&mut sim, &mut cal)?;
                    }
                }
                SchedEvent::SegmentEnd { m } => {
                    segment_end(&mut sim, &mut cal, now, m as usize, tracer);
                    sim.jobs.retire_completed(on_job);
                }
                SchedEvent::GangSegmentEnd { j } => {
                    gang_segment_end(&mut sim, &mut cal, now, j as usize, tracer)
                }
                SchedEvent::MachineFailure { m } => {
                    machine_failure(&mut sim, &mut cal, now, m as usize, tracer)
                }
                SchedEvent::MachineRepair { m } => {
                    machine_repair(&mut sim, &mut cal, now, m as usize, tracer)
                }
            }
            if T::ENABLED {
                let nanos = started.map_or(0, |s| {
                    u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX)
                });
                // Leftover owner events drain after the last job
                // completes; their samples carry the closing state, so
                // pin them to the makespan and keep the sample clock
                // inside the run.
                let sample_t = if sim.done { sim.makespan } else { now };
                tracer.handled(sample_t, event_class(event), nanos);
                // Grid-throttled tracers may skip interior samples, but
                // the closing state must always land: the trace's final
                // sample is the run's accounting of record.
                if sim.done || tracer.wants_state(sample_t) {
                    tracer.state(sample_t, &gather_sample(&sim, &cal));
                }
            }
        }
        let events = cal.executed();

        if !sim.done {
            return Err(SchedError::EventCapExceeded {
                max_events: self.max_events,
                jobs_unfinished: sim.jobs_remaining,
            });
        }
        // Gang jobs complete in gang segment ends and retire here, with
        // everything the last segment end left behind.
        sim.jobs.retire_completed(on_job);
        let makespan = sim.makespan;
        let mean_available_machines = sim.pool.mean_available(makespan);
        let downtime = sim.pool.downtime(makespan);
        let acc = sim.acc;
        let gacc = sim.gacc;
        let metrics = SchedMetrics {
            makespan,
            delivered: acc.delivered,
            goodput: acc.goodput,
            wasted: acc.wasted,
            checkpoint_overhead: acc.ckpt,
            evictions: acc.evictions,
            suspensions: acc.suspensions,
            restarts: acc.restarts,
            migrations: acc.migrations,
            completed_tasks: acc.completed_tasks,
            total_demand: feeder.total_demand,
            placements: acc.placements,
            mean_queue_wait: if acc.placements == 0 {
                0.0
            } else {
                acc.total_wait / acc.placements as f64
            },
            mean_available_machines,
            gang: gacc,
            jobs: Vec::new(), // ndslint::allow(no-alloc-in-hot-path, reason = "records leave through the on_job sink, not the metrics struct")
            crashes: acc.crashes,
            crash_lost: acc.crash_lost,
            downtime,
            crashes_by_machine: std::mem::take(&mut sim.crashes_by_machine),
        };
        Ok((metrics, events))
    }
}

/// Where a run's jobs come from.
enum Intake<'f> {
    /// The config's own job table, every arrival scheduled up front.
    Table,
    /// A [`JobFeed`] pulled `chunk` jobs at a time as arrivals fire.
    Feed {
        feed: &'f mut dyn JobFeed,
        chunk: usize,
    },
}

/// Per-spec field checks shared by [`SchedConfig::validate`] and the
/// streamed path's chunk intake; `i` is the job's absolute submission
/// index, so streamed errors name the offending trace row.
fn validate_job_spec(i: usize, j: &JobSpec) -> Result<(), SchedError> {
    let invalid = |reason: String| {
        Err(SchedError::InvalidConfig {
            field: "jobs",
            reason,
        })
    };
    if j.tasks == 0 {
        return invalid(format!("job {i} has zero tasks"));
    }
    if !(j.task_demand.is_finite() && j.task_demand > 0.0) {
        return invalid(format!("job {i} task_demand {}", j.task_demand));
    }
    if !(j.arrival.is_finite() && j.arrival >= 0.0) {
        return invalid(format!("job {i} arrival {}", j.arrival));
    }
    Ok(())
}

/// The engine's job intake: admits specs to the live job table and
/// puts their arrivals on the calendar. A table run admits everything
/// up front and holds no feed; a streamed run pulls bounded batches
/// off its [`JobFeed`], validating each spec, and pushes them onto the
/// calendar's pre-sorted backlog.
struct ChunkFeeder<'f> {
    /// The feed still to be pulled; `None` for a table run and once
    /// the feed returned an empty chunk (it is never polled again).
    feed: Option<&'f mut dyn JobFeed>,
    chunk: usize,
    buf: Vec<JobSpec>,
    /// Total arrivals scheduled so far == the next absolute job index.
    scheduled: usize,
    total_demand: f64,
}

impl<'f> ChunkFeeder<'f> {
    fn new(feed: &'f mut dyn JobFeed, chunk: usize) -> Self {
        Self {
            feed: Some(feed),
            chunk,
            buf: Vec::with_capacity(chunk),
            scheduled: 0,
            total_demand: 0.0,
        }
    }

    /// Admit the whole (already validated) job table at once.
    fn from_table(jobs: &[JobSpec], sim: &mut Sim<'_>, cal: &mut Calendar<SchedEvent>) -> Self {
        let mut feeder = Self {
            feed: None,
            chunk: 0,
            buf: Vec::new(),
            scheduled: jobs.len(),
            total_demand: 0.0,
        };
        for spec in jobs {
            feeder.admit(sim, spec);
        }
        // When arrivals come time-sorted (streams, Poisson workloads —
        // the common case) they take the calendar's pre-sorted backlog,
        // which keeps the heap at the live-event horizon instead of the
        // whole experiment; sequence numbers are allocated identically
        // on both paths, so the event order is the same either way.
        let arrival = |(j, spec): (usize, &JobSpec)| {
            (
                SimTime::new(spec.arrival),
                SchedEvent::JobArrival { j: j as u32 },
            )
        };
        if jobs
            .windows(2)
            .all(|pair| pair[0].arrival <= pair[1].arrival)
        {
            cal.schedule_sorted(jobs.iter().enumerate().map(arrival))
                .expect("invariant: arrivals are sorted and non-negative");
        } else {
            for (at, event) in jobs.iter().enumerate().map(arrival) {
                cal.post(at, event)
                    .expect("invariant: arrival is non-negative");
            }
        }
        feeder
    }

    fn admit(&mut self, sim: &mut Sim<'_>, spec: &JobSpec) {
        sim.jobs.push_back(JobState::of_spec(spec));
        sim.jobs_remaining += 1;
        self.total_demand += spec.total_demand();
    }

    /// Pull and schedule the feed's next chunk (a no-op once the feed
    /// is exhausted, and for table runs).
    fn pull(
        &mut self,
        sim: &mut Sim<'_>,
        cal: &mut Calendar<SchedEvent>,
    ) -> Result<(), SchedError> {
        let Some(feed) = self.feed.as_mut() else {
            return Ok(());
        };
        self.buf.clear();
        let n = feed.next_chunk(self.chunk, &mut self.buf)?;
        if n == 0 {
            self.feed = None;
            return Ok(());
        }
        let base = self.scheduled;
        for k in 0..n {
            let spec = self.buf[k];
            validate_job_spec(base + k, &spec)?;
            self.admit(sim, &spec);
        }
        cal.schedule_sorted(self.buf.iter().enumerate().map(|(k, spec)| {
            (
                SimTime::new(spec.arrival),
                SchedEvent::JobArrival {
                    j: (base + k) as u32,
                },
            )
        }))
        .map_err(|e| SchedError::InvalidConfig {
            field: "feed",
            reason: format!(
                "arrivals must be non-decreasing across the whole feed \
                 (jobs {}..{}): {e}",
                base,
                base + n
            ),
        })?;
        self.scheduled += n;
        Ok(())
    }
}

/// The engine's entire event vocabulary: seven plain variants, each a
/// machine or job index. `Copy`, 8 bytes, no drop glue — what the
/// typed calendar stores instead of a boxed closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SchedEvent {
    /// Machine `m`'s owner returns to their workstation.
    OwnerArrival { m: u32 },
    /// Machine `m`'s owner leaves it idle again.
    OwnerDeparture { m: u32 },
    /// Job `j` reaches the central queue.
    JobArrival { j: u32 },
    /// The guest segment on machine `m` runs to completion.
    SegmentEnd { m: u32 },
    /// Gang `j`'s in-flight segment runs to completion.
    GangSegmentEnd { j: u32 },
    /// Machine `m` crashes (fault injection; never scheduled without a
    /// [`FailureModel`]).
    MachineFailure { m: u32 },
    /// Machine `m` comes back from repair.
    MachineRepair { m: u32 },
}

/// The profiler-facing class of a `SchedEvent`.
fn event_class(event: SchedEvent) -> EventClass {
    match event {
        SchedEvent::OwnerArrival { .. } => EventClass::OwnerArrival,
        SchedEvent::OwnerDeparture { .. } => EventClass::OwnerDeparture,
        SchedEvent::JobArrival { .. } => EventClass::JobArrival,
        SchedEvent::SegmentEnd { .. } => EventClass::SegmentEnd,
        SchedEvent::GangSegmentEnd { .. } => EventClass::GangSegmentEnd,
        SchedEvent::MachineFailure { .. } => EventClass::MachineFailure,
        SchedEvent::MachineRepair { .. } => EventClass::MachineRepair,
    }
}

/// Gather the engine's aggregate state for the tracer. Only called
/// with tracing enabled — the gang scan is O(#gangs) per event, a cost
/// the untraced path never pays.
fn gather_sample(sim: &Sim, cal: &Calendar<SchedEvent>) -> StateSample {
    let mut running_gangs = 0u32;
    let mut degraded_gangs = 0u32;
    for gang in &sim.gangs {
        if let GangPhase::Running { .. } = gang.phase {
            running_gangs += 1;
            if running_members(gang) < gang.width {
                degraded_gangs += 1;
            }
        }
    }
    StateSample {
        queue_depth: (sim.queue.len() + sim.gang_queue.len()) as u32,
        free_machines: sim.pool.index().len() as u32,
        running_gangs,
        degraded_gangs,
        pending_events: cal.pending() as u32,
        delivered: sim.acc.delivered,
        goodput: sim.acc.goodput,
        wasted: sim.acc.wasted,
    }
}

/// The tracer-facing kind of an internal [`Segment`].
fn segment_kind(segment: Segment) -> SegmentKind {
    match segment {
        Segment::Setup { .. } => SegmentKind::Setup,
        Segment::Work { .. } => SegmentKind::Work,
        Segment::CkptWrite { .. } => SegmentKind::CkptWrite,
    }
}

/// One slice of guest execution on a machine.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Segment {
    /// Migration restore; counted as wasted work.
    Setup { len: f64 },
    /// Real progress.
    Work { len: f64 },
    /// Checkpoint write; counted as checkpoint overhead.
    CkptWrite { len: f64 },
}

impl Segment {
    fn len(&self) -> f64 {
        match *self {
            Segment::Setup { len } | Segment::Work { len } | Segment::CkptWrite { len } => len,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct RunState {
    segment: Segment,
    slice_start: f64,
    event: EventHandle,
}

#[derive(Debug, Clone)]
struct GuestTask {
    job: usize,
    task: u32,
    demand: f64,
    /// Work remaining at the current segment's start.
    remaining: f64,
    /// Progress not yet covered by a checkpoint, at segment start.
    since_ckpt: f64,
    /// Setup still owed before computing.
    setup_left: f64,
    /// `None` while suspended beneath the owner.
    run: Option<RunState>,
}

#[derive(Debug)]
struct MachineSim<'a> {
    owner: &'a OwnerWorkload,
    rng: Xoshiro256StarStar,
    guest: Option<GuestTask>,
}

/// One job's live state: its spec (read at arrival), the tasks not yet
/// completed, and its completion time once done. Kept at 32 bytes: a
/// streamed run holds one per job from the oldest unfinished job on.
#[derive(Debug, Clone, Copy)]
struct JobState {
    tasks: u32,
    tasks_left: u32,
    task_demand: f64,
    arrival: f64,
    completion: f64,
}

impl JobState {
    fn of_spec(spec: &JobSpec) -> Self {
        Self {
            tasks: spec.tasks,
            tasks_left: spec.tasks,
            task_demand: spec.task_demand,
            arrival: spec.arrival,
            completion: f64::NAN,
        }
    }

    fn record(&self) -> JobRecord {
        let spec = JobSpec {
            tasks: self.tasks,
            task_demand: self.task_demand,
            arrival: self.arrival,
        };
        JobRecord {
            arrival: self.arrival,
            completion: self.completion,
            demand: spec.total_demand(),
        }
    }
}

/// Per-job live state addressed by absolute job index. The completed
/// prefix retires in submission order, emitting each [`JobRecord`] to
/// the run's sink, so a streamed run's residency tracks the live job
/// window instead of the experiment length. A job that has not yet
/// arrived has tasks left, so it holds back everything behind it.
#[derive(Debug)]
struct JobTable {
    base: usize,
    states: VecDeque<JobState>,
}

impl JobTable {
    #[inline]
    fn get_mut(&mut self, j: usize) -> &mut JobState {
        &mut self.states[j - self.base]
    }

    #[inline]
    fn push_back(&mut self, state: JobState) {
        self.states.push_back(state);
    }

    /// Pop completed jobs off the front (submission order), handing
    /// each absolute index + record to `on_job`. Stops at the first
    /// still-running job — records are therefore emitted in submission
    /// order, and a straggler only delays emission, never drops it.
    fn retire_completed(&mut self, on_job: &mut dyn FnMut(usize, JobRecord)) {
        while let Some(front) = self.states.front() {
            if front.tasks_left > 0 {
                return;
            }
            let state = self
                .states
                .pop_front()
                .expect("invariant: front() was Some in the loop guard");
            on_job(self.base, state.record());
            self.base += 1;
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    delivered: f64,
    goodput: f64,
    wasted: f64,
    ckpt: f64,
    evictions: u64,
    suspensions: u64,
    restarts: u64,
    migrations: u64,
    completed_tasks: u64,
    placements: u64,
    total_wait: f64,
    crashes: u64,
    /// Crash-destroyed progress — a subset of `wasted`.
    crash_lost: f64,
}

/// One gang's live state (only populated when a [`GangPolicy`] is on).
#[derive(Debug, Clone)]
struct GangState {
    /// Machines currently hosting the gang (empty while queued; may sit
    /// below `width` while a partial gang is under-placed).
    members: Vec<usize>,
    /// Per-member run flag. Under the all-or-nothing policies it flips
    /// only through [`suspend_gang_members`]/[`resume_gang_members`] so
    /// members can never disagree; under a partial policy members may
    /// legitimately differ (degraded mode) and the floor invariant is
    /// what [`verify_gang_invariants`] re-checks at every gang event.
    member_running: Vec<bool>,
    /// Per-member owner-presence flag: `true` while the member's
    /// machine is reclaimed by its owner (the member sits suspended in
    /// place beneath them).
    member_busy: Vec<bool>,
    /// Original per-task demand.
    demand: f64,
    /// Per-task work still owed.
    remaining: f64,
    /// Per-task setup owed before computing (migrate-all restore).
    setup_left: f64,
    /// Full gang width — the job's task count.
    width: u32,
    /// Resolved co-scheduling floor ([`GangPolicy::floor_for`]): the
    /// gang runs only while at least this many members hold owner-free
    /// machines.
    floor: u32,
    phase: GangPhase,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum GangPhase {
    /// Waiting in the co-allocation queue (or not yet arrived).
    Queued,
    /// Members on owner-free machines executing the current segment;
    /// a full gang computes at rate one, a degraded partial gang at
    /// `running / width`.
    Running {
        is_setup: bool,
        /// Scheduled per-task work of the segment in CPU units (used
        /// exactly at segment end, like the independent engine's
        /// `Segment::len`, so float round-off from clock arithmetic
        /// never leaks into the accounting).
        work: f64,
        /// Wall-clock segment length: `work / rate`.
        wall: f64,
        /// Per-task progress rate `running / width` (exactly 1.0 for a
        /// full gang, which keeps the all-or-nothing float paths
        /// bit-identical to the pre-rate-aware engine).
        rate: f64,
        slice_start: f64,
        event: EventHandle,
    },
    /// Frozen in place below the floor (under the all-or-nothing
    /// policies: any member reclaimed); `last_t` is when the
    /// barrier-stall integral was last accrued. Which members sit
    /// beneath their owners lives in [`GangState::member_busy`].
    Suspended { last_t: f64 },
    /// Every task completed.
    Done,
}

/// Devirtualized placement state: the built-in policy objects held as
/// an enum of concrete types, so the dispatch loop pays a direct
/// (inlinable) call instead of a `Box<dyn PlacementPolicy>` virtual
/// call per placement. Each arm delegates to the one
/// [`crate::policy`] implementation, so there is a single copy of
/// every policy's choice logic.
#[derive(Debug)]
enum PlacementState {
    Random(RandomPlacement),
    RoundRobin(RoundRobinPlacement),
    LeastLoaded(LeastLoadedPlacement),
}

impl PlacementState {
    fn new(kind: PlacementKind) -> Self {
        match kind {
            PlacementKind::Random => Self::Random(RandomPlacement),
            PlacementKind::RoundRobin => Self::RoundRobin(RoundRobinPlacement::default()),
            PlacementKind::LeastLoaded => Self::LeastLoaded(LeastLoadedPlacement),
        }
    }

    #[inline]
    fn choose(&mut self, candidates: &CandidateIndex, rng: &mut Xoshiro256StarStar) -> usize {
        match self {
            Self::Random(p) => p.choose(candidates, rng),
            Self::RoundRobin(p) => p.choose(candidates, rng),
            Self::LeastLoaded(p) => p.choose(candidates, rng),
        }
    }
}

/// The live state one replication runs on. Borrows the config's owner
/// and job tables (nothing is cloned per replication); every handler
/// receives `&mut Sim` directly — the `Rc<RefCell<..>>` plumbing of the
/// closure engine is gone.
struct Sim<'a> {
    machines: Vec<MachineSim<'a>>,
    pool: Pool,
    queue: JobQueue,
    jobs: JobTable,
    jobs_remaining: usize,
    placement: PlacementState,
    placement_rng: Xoshiro256StarStar,
    eviction: EvictionPolicy,
    gang_policy: GangPolicy,
    /// Per-job gang state (parallel to `jobs`; empty when gangs off).
    gangs: Vec<GangState>,
    gang_queue: GangQueue,
    /// Which gang (job index) occupies each machine, if any.
    machine_gang: Vec<Option<usize>>,
    /// Placed-but-under-width gangs (phase `Running`/`Suspended`,
    /// `members.len() < width`), kept sorted so the partial-gang grower
    /// finds the lowest job index in O(log n) instead of scanning every
    /// job per dispatch iteration. Empty under all-or-nothing policies,
    /// which only ever place full-width gangs.
    growers: BTreeSet<usize>,
    gacc: GangStats,
    /// Last time the fragmentation integral was accrued.
    frag_t: f64,
    /// Free-machine count as of `frag_t`.
    frag_free: usize,
    /// Whether a gang was waiting as of `frag_t`.
    frag_waiting: bool,
    discipline: QueueDiscipline,
    acc: Acc,
    /// Crash/repair process, if the config injects failures.
    failures: Option<FailureModel>,
    /// Per-machine failure-stream RNGs (empty without a failure model;
    /// a separate labeled stream, so no-failure sample paths are
    /// untouched).
    failure_rngs: Vec<Xoshiro256StarStar>,
    /// Per-machine crash counts (empty without a failure model).
    crashes_by_machine: Vec<u64>,
    makespan: f64,
    done: bool,
}

/// Keep `sim.growers` in sync after gang `j`'s membership or phase
/// changed — the incremental replacement for the old per-dispatch scan.
fn refresh_grower(sim: &mut Sim, j: usize) {
    let gang = &sim.gangs[j];
    let eligible = (gang.members.len() as u32) < gang.width
        && matches!(
            gang.phase,
            GangPhase::Running { .. } | GangPhase::Suspended { .. }
        );
    if eligible {
        sim.growers.insert(j);
    } else {
        sim.growers.remove(&j);
    }
}

/// Choose the next segment for a (re)starting guest.
fn next_segment(eviction: EvictionPolicy, g: &GuestTask) -> Segment {
    if g.setup_left > 0.0 {
        return Segment::Setup { len: g.setup_left };
    }
    match eviction {
        EvictionPolicy::Checkpoint { interval, overhead } => {
            let to_ckpt = interval - g.since_ckpt;
            if to_ckpt <= WORK_EPS {
                return Segment::CkptWrite { len: overhead };
            }
            Segment::Work {
                len: g.remaining.min(to_ckpt),
            }
        }
        EvictionPolicy::Adaptive {
            threshold,
            interval,
            overhead,
        } => {
            // Below the threshold the task runs uncheckpointed, with
            // the segment clipped so the crossing lands on a segment
            // boundary; above it, periodic checkpointing with
            // `since_ckpt` counted from the placement start, so the
            // first write lands at `max(threshold, interval)` invested.
            let invested = g.demand - g.remaining;
            if invested + WORK_EPS < threshold {
                return Segment::Work {
                    len: g.remaining.min(threshold - invested),
                };
            }
            let to_ckpt = interval - g.since_ckpt;
            if to_ckpt <= WORK_EPS {
                return Segment::CkptWrite { len: overhead };
            }
            Segment::Work {
                len: g.remaining.min(to_ckpt),
            }
        }
        _ => Segment::Work { len: g.remaining },
    }
}

/// Begin the next segment of the guest on machine `m`.
fn start_segment<T: SchedTracer>(
    sim: &mut Sim,
    cal: &mut Calendar<SchedEvent>,
    m: usize,
    tracer: &mut T,
) {
    let now = cal.now().as_f64();
    let eviction = sim.eviction;
    let guest = sim.machines[m]
        .guest
        .as_mut()
        .expect("invariant: a running segment always has a guest aboard");
    let segment = next_segment(eviction, guest);
    let event = cal
        .schedule_in(
            SimTime::new(segment.len()),
            SchedEvent::SegmentEnd { m: m as u32 },
        )
        .expect("invariant: segment length is non-negative");
    if T::ENABLED {
        tracer.record(
            now,
            SchedRecord::SegmentStart {
                machine: m as u32,
                job: guest.job as u32,
                task: guest.task,
                kind: segment_kind(segment),
                wall: segment.len(),
            },
        );
    }
    guest.run = Some(RunState {
        segment,
        slice_start: now,
        event,
    });
}

/// A segment ran to completion undisturbed.
fn segment_end<T: SchedTracer>(
    sim: &mut Sim,
    cal: &mut Calendar<SchedEvent>,
    now: f64,
    m: usize,
    tracer: &mut T,
) {
    let completed = {
        let guest = sim.machines[m]
            .guest
            .as_mut()
            .expect("invariant: segment_end fires only with a guest aboard");
        let run = guest
            .run
            .as_ref()
            .expect("invariant: segment_end implies the guest was running");
        let segment = run.segment;
        if T::ENABLED {
            tracer.record(
                now,
                SchedRecord::SegmentEnd {
                    machine: m as u32,
                    job: guest.job as u32,
                    task: guest.task,
                    kind: segment_kind(segment),
                },
            );
        }
        sim.acc.delivered += segment.len();
        match segment {
            Segment::Setup { len } => {
                sim.acc.wasted += len;
                guest.setup_left = 0.0;
                false
            }
            Segment::CkptWrite { len } => {
                sim.acc.ckpt += len;
                guest.since_ckpt = 0.0;
                false
            }
            Segment::Work { len } => {
                guest.remaining -= len;
                guest.since_ckpt += len;
                guest.remaining <= WORK_EPS
            }
        }
    };
    if !completed {
        start_segment(sim, cal, m, tracer);
        return;
    }
    let guest = sim.machines[m]
        .guest
        .take()
        .expect("invariant: completion fires only with a guest aboard");
    sim.pool.set_occupied(now, m, false);
    sim.acc.goodput += guest.demand;
    sim.acc.completed_tasks += 1;
    if T::ENABLED {
        tracer.record(
            now,
            SchedRecord::TaskCompleted {
                machine: m as u32,
                job: guest.job as u32,
                task: guest.task,
            },
        );
    }
    let job = sim.jobs.get_mut(guest.job);
    job.tasks_left -= 1;
    if job.tasks_left == 0 {
        job.completion = now;
        sim.jobs_remaining -= 1;
        if T::ENABLED {
            tracer.record(
                now,
                SchedRecord::JobCompleted {
                    job: guest.job as u32,
                },
            );
            let record = job.record();
            let response = record.response_time();
            tracer.observe(now, ObsKind::Response, response);
            if record.demand > 0.0 {
                tracer.observe(now, ObsKind::Slowdown, response / record.demand);
            }
        }
        if sim.jobs_remaining == 0 {
            sim.done = true;
            sim.makespan = now;
        }
    }
    if !sim.done {
        dispatch(sim, cal, tracer);
    }
}

/// A job reaches the central queue.
fn job_arrival<T: SchedTracer>(
    sim: &mut Sim,
    cal: &mut Calendar<SchedEvent>,
    now: f64,
    j: usize,
    tracer: &mut T,
) {
    let job = sim.jobs.get_mut(j);
    let (tasks, task_demand) = (job.tasks, job.task_demand);
    if T::ENABLED {
        tracer.record(now, SchedRecord::JobArrival { job: j as u32 });
    }
    if sim.gang_policy.is_on() {
        let min_tasks = sim.gangs[j].floor;
        sim.gang_queue.push(PendingGang {
            job: j,
            tasks,
            min_tasks,
            demand: task_demand,
            remaining: task_demand,
            setup: 0.0,
            enqueued_at: now,
        });
    } else {
        for task in 0..tasks {
            sim.queue.push(PendingTask {
                job: j,
                task,
                demand: task_demand,
                remaining: task_demand,
                setup: 0.0,
                enqueued_at: now,
            });
        }
    }
    dispatch_any(sim, cal, tracer);
}

/// Route to the dispatcher matching the scheduling mode.
fn dispatch_any<T: SchedTracer>(sim: &mut Sim, cal: &mut Calendar<SchedEvent>, tracer: &mut T) {
    if sim.gang_policy.is_on() {
        gang_dispatch(sim, cal, tracer);
    } else {
        dispatch(sim, cal, tracer);
    }
}

/// Match queued tasks to available machines until either runs out.
fn dispatch<T: SchedTracer>(sim: &mut Sim, cal: &mut Calendar<SchedEvent>, tracer: &mut T) {
    loop {
        if sim.done || sim.queue.is_empty() {
            return;
        }
        if sim.pool.index().is_empty() {
            return;
        }
        let now = cal.now().as_f64();
        let pending = sim
            .queue
            .pop(sim.discipline)
            .expect("invariant: queue was checked non-empty just above");
        let m = sim
            .placement
            .choose(sim.pool.index(), &mut sim.placement_rng);
        sim.acc.placements += 1;
        sim.acc.total_wait += now - pending.enqueued_at;
        sim.pool.set_occupied(now, m, true);
        if T::ENABLED {
            tracer.record(
                now,
                SchedRecord::TaskPlaced {
                    machine: m as u32,
                    job: pending.job as u32,
                    task: pending.task,
                },
            );
            tracer.observe(now, ObsKind::QueueWait, now - pending.enqueued_at);
        }
        sim.machines[m].guest = Some(GuestTask {
            job: pending.job,
            task: pending.task,
            demand: pending.demand,
            remaining: pending.remaining,
            since_ckpt: 0.0,
            setup_left: pending.setup,
            run: None,
        });
        start_segment(sim, cal, m, tracer);
    }
}

/// An owner returns to their machine.
fn owner_arrival<T: SchedTracer>(
    sim: &mut Sim,
    cal: &mut Calendar<SchedEvent>,
    now: f64,
    m: usize,
    tracer: &mut T,
) {
    if sim.done {
        return;
    }
    if T::ENABLED {
        tracer.record(now, SchedRecord::OwnerArrival { machine: m as u32 });
    }
    sim.pool.owner_transition(now, m, true);
    if sim.pool.is_down(m) {
        // A crashed machine holds nothing live to reclaim (the crash
        // already killed or froze whatever was aboard); the owner's
        // think/use cycle keeps ticking on its own stream so repair
        // re-enters an unperturbed sample path.
        let mach = &mut sim.machines[m];
        let service = mach.owner.sample_service(&mut mach.rng);
        cal.post_in(
            SimTime::new(service),
            SchedEvent::OwnerDeparture { m: m as u32 },
        )
        .expect("invariant: sampled service time is positive");
        return;
    }
    let (service, outcome) = if sim.gang_policy.is_on() {
        let outcome = gang_owner_reclaim(sim, cal, now, m, tracer);
        let mach = &mut sim.machines[m];
        let service = mach.owner.sample_service(&mut mach.rng);
        (service, outcome)
    } else {
        let (service, requeued) = owner_reclaim_task(sim, cal, now, m, tracer);
        (
            service,
            ReclaimOutcome {
                redispatch: requeued,
                restart: None,
            },
        )
    };
    cal.post_in(
        SimTime::new(service),
        SchedEvent::OwnerDeparture { m: m as u32 },
    )
    .expect("invariant: sampled service time is positive");
    if let Some(j) = outcome.restart {
        start_gang_segment(sim, cal, j, tracer);
    }
    if outcome.redispatch {
        dispatch_any(sim, cal, tracer);
    }
}

/// Independent-task owner reclaim: evict (or suspend) the guest on
/// machine `m` per the configured [`EvictionPolicy`], then sample the
/// owner's service time. Returns `(service, requeued)`.
fn owner_reclaim_task<T: SchedTracer>(
    sim: &mut Sim,
    cal: &mut Calendar<SchedEvent>,
    now: f64,
    m: usize,
    tracer: &mut T,
) -> (f64, bool) {
    let mut requeued = false;
    if let Some(mut guest) = sim.machines[m].guest.take() {
        let run = guest
            .run
            .take()
            .expect("invariant: owner was away, so the guest was running");
        cal.cancel(run.event);
        if T::ENABLED {
            tracer.record(
                now,
                SchedRecord::SegmentPreempted {
                    machine: m as u32,
                    job: guest.job as u32,
                    task: guest.task,
                    kind: segment_kind(run.segment),
                },
            );
            tracer.record(
                now,
                SchedRecord::Eviction {
                    machine: m as u32,
                    job: guest.job as u32,
                    task: guest.task,
                    action: match sim.eviction {
                        EvictionPolicy::SuspendResume => EvictionAction::Suspend,
                        EvictionPolicy::Restart => EvictionAction::Restart,
                        EvictionPolicy::Migrate { .. } => EvictionAction::Migrate,
                        EvictionPolicy::Checkpoint { .. } => EvictionAction::Rollback,
                        // At the threshold boundary both labels describe
                        // the same outcome (no checkpoint exists yet).
                        EvictionPolicy::Adaptive { threshold, .. } => {
                            if guest.demand - guest.remaining < threshold {
                                EvictionAction::Restart
                            } else {
                                EvictionAction::Rollback
                            }
                        }
                    },
                },
            );
        }
        let elapsed = now - run.slice_start;
        sim.acc.delivered += elapsed;
        match run.segment {
            // An interrupted restore is redone in full next time.
            Segment::Setup { .. } => sim.acc.wasted += elapsed,
            // An aborted checkpoint write is still overhead.
            Segment::CkptWrite { .. } => sim.acc.ckpt += elapsed,
            Segment::Work { .. } => {
                guest.remaining -= elapsed;
                guest.since_ckpt += elapsed;
            }
        }
        sim.acc.evictions += 1;
        match sim.eviction {
            EvictionPolicy::SuspendResume => {
                sim.acc.suspensions += 1;
                sim.machines[m].guest = Some(guest);
            }
            policy => {
                let out = on_eviction(policy, guest.demand, guest.remaining, guest.since_ckpt);
                sim.acc.wasted += out.lost;
                match policy {
                    EvictionPolicy::Restart => sim.acc.restarts += 1,
                    EvictionPolicy::Migrate { .. } => sim.acc.migrations += 1,
                    // Pre-threshold adaptive evictions are restarts;
                    // post-threshold ones are rollbacks (uncounted,
                    // like Checkpoint).
                    EvictionPolicy::Adaptive { threshold, .. }
                        if guest.demand - guest.remaining < threshold =>
                    {
                        sim.acc.restarts += 1;
                    }
                    _ => {}
                }
                sim.pool.set_occupied(now, m, false);
                sim.queue.push(PendingTask {
                    job: guest.job,
                    task: guest.task,
                    demand: guest.demand,
                    remaining: out.new_remaining,
                    setup: out.setup,
                    enqueued_at: now,
                });
                requeued = true;
            }
        }
    }
    let mach = &mut sim.machines[m];
    let service = mach.owner.sample_service(&mut mach.rng);
    (service, requeued)
}

/// What an owner departure unblocks.
enum Departure {
    /// Resume the suspended independent task in place.
    ResumeTask,
    /// Resume the whole suspended gang (every member's owner is away).
    ResumeGang(usize),
    /// Nothing aboard: the machine may serve the queue.
    Dispatch,
    /// A gang member whose gang is still pinned by other owners.
    Nothing,
}

/// An owner leaves their machine idle again.
fn owner_departure<T: SchedTracer>(
    sim: &mut Sim,
    cal: &mut Calendar<SchedEvent>,
    now: f64,
    m: usize,
    tracer: &mut T,
) {
    if sim.done {
        return;
    }
    if T::ENABLED {
        tracer.record(now, SchedRecord::OwnerDeparture { machine: m as u32 });
    }
    sim.pool.owner_transition(now, m, false);
    let action = if sim.pool.is_down(m) {
        // The machine is crashed: nothing resumes and nothing can be
        // placed until repair.
        Departure::Nothing
    } else if sim.gang_policy.is_on() {
        gang_owner_release(sim, cal, now, m, tracer)
    } else if sim.machines[m].guest.is_some() {
        Departure::ResumeTask
    } else {
        Departure::Dispatch
    };
    let mach = &mut sim.machines[m];
    let think = mach.owner.sample_think(&mut mach.rng);
    cal.post_in(
        SimTime::new(think),
        SchedEvent::OwnerArrival { m: m as u32 },
    )
    .expect("invariant: think time is non-negative");
    match action {
        Departure::ResumeTask => start_segment(sim, cal, m, tracer),
        Departure::ResumeGang(j) => start_gang_segment(sim, cal, j, tracer),
        Departure::Dispatch => dispatch_any(sim, cal, tracer),
        Departure::Nothing => {}
    }
}

/// One failure-process RNG per machine, derived like the owner streams
/// (`machine << 32 | replication`) but under a dedicated label, so
/// enabling failures never perturbs the owner, probe, or placement
/// draws — the no-failure configuration stays bit-identical.
fn failure_streams(
    factory: &StreamFactory,
    on: bool,
    w: usize,
    replication: u64,
) -> Vec<Xoshiro256StarStar> {
    if !on {
        return Vec::new(); // ndslint::allow(no-alloc-in-hot-path, reason = "run setup, before the event loop")
    }
    (0..w)
        .map(|i| factory.labeled_stream("sched-failure", (i as u64) << 32 | replication))
        .collect()
}

/// Draw each machine's first uptime and schedule its initial crash.
/// No-op without a failure model, leaving the calendar exactly as the
/// failure-free engine builds it.
fn seed_failures(sim: &mut Sim, cal: &mut Calendar<SchedEvent>) {
    let Some(model) = sim.failures else { return };
    for m in 0..sim.machines.len() {
        let up = model.mtbf.sample(&mut sim.failure_rngs[m]);
        cal.post(SimTime::new(up), SchedEvent::MachineFailure { m: m as u32 })
            .expect("invariant: sampled lifetime is non-negative");
    }
}

/// Machine `m` crashes: whatever guest work is aboard is destroyed or
/// forced off per the crash semantics ([`crate::failure`]), the machine
/// leaves the pool until repair, and the repair time is drawn from the
/// failure model's MTTR lifetime.
fn machine_failure<T: SchedTracer>(
    sim: &mut Sim,
    cal: &mut Calendar<SchedEvent>,
    now: f64,
    m: usize,
    tracer: &mut T,
) {
    if sim.done {
        return;
    }
    if T::ENABLED {
        tracer.record(now, SchedRecord::MachineFailure { machine: m as u32 });
    }
    sim.acc.crashes += 1;
    sim.crashes_by_machine[m] += 1;
    let outcome = if sim.gang_policy.is_on() {
        gang_crash(sim, cal, now, m, tracer)
    } else {
        ReclaimOutcome {
            redispatch: crash_task(sim, cal, now, m, tracer),
            restart: None,
        }
    };
    sim.pool.set_down(now, m, true);
    if sim.gang_policy.is_on() {
        // The candidate set just shrank: re-snapshot the
        // fragmentation integrand at the post-crash free count.
        frag_update(sim, now);
    }
    let model = sim
        .failures
        .expect("invariant: failure events only fire with a failure model");
    let mttr = model.mttr.sample(&mut sim.failure_rngs[m]);
    cal.post_in(
        SimTime::new(mttr),
        SchedEvent::MachineRepair { m: m as u32 },
    )
    .expect("invariant: sampled repair time is positive");
    if let Some(j) = outcome.restart {
        start_gang_segment(sim, cal, j, tracer);
    }
    if outcome.redispatch {
        dispatch_any(sim, cal, tracer);
    }
}

/// Machine `m` comes back from repair: it rejoins the pool (unless its
/// owner is at the console), the next crash is drawn from the MTBF
/// lifetime, and whatever the repaired machine unblocks — the waiting
/// queue, a pinned gang member — proceeds.
fn machine_repair<T: SchedTracer>(
    sim: &mut Sim,
    cal: &mut Calendar<SchedEvent>,
    now: f64,
    m: usize,
    tracer: &mut T,
) {
    if sim.done {
        return;
    }
    if T::ENABLED {
        tracer.record(now, SchedRecord::MachineRepair { machine: m as u32 });
    }
    sim.pool.set_down(now, m, false);
    if sim.gang_policy.is_on() {
        frag_update(sim, now);
    }
    let model = sim
        .failures
        .expect("invariant: repair events only fire with a failure model");
    let next_up = model.mtbf.sample(&mut sim.failure_rngs[m]);
    cal.post_in(
        SimTime::new(next_up),
        SchedEvent::MachineFailure { m: m as u32 },
    )
    .expect("invariant: sampled lifetime is positive");
    if sim.pool.owner_busy(m) {
        // The owner holds the repaired machine; their eventual
        // departure runs the normal release path.
        return;
    }
    let action = if sim.gang_policy.is_on() {
        // A crash-pinned gang member is released exactly like one
        // whose owner departs: rejoin a degraded gang mid-segment, or
        // wake the gang if the floor is met again.
        gang_owner_release(sim, cal, now, m, tracer)
    } else {
        debug_assert!(
            sim.machines[m].guest.is_none(),
            "a crash leaves no independent guest behind"
        );
        Departure::Dispatch
    };
    match action {
        Departure::ResumeTask => start_segment(sim, cal, m, tracer),
        Departure::ResumeGang(j) => start_gang_segment(sim, cal, j, tracer),
        Departure::Dispatch => dispatch_any(sim, cal, tracer),
        Departure::Nothing => {}
    }
}

/// Crash on machine `m` in independent-task mode: kill whatever guest
/// is aboard — running, or suspended in place beneath its owner — and
/// requeue it. Progress not covered by a durable checkpoint is
/// destroyed; suspension images do not survive a power cycle. Returns
/// whether a task went back to the queue.
fn crash_task<T: SchedTracer>(
    sim: &mut Sim,
    cal: &mut Calendar<SchedEvent>,
    now: f64,
    m: usize,
    tracer: &mut T,
) -> bool {
    let Some(mut guest) = sim.machines[m].guest.take() else {
        return false;
    };
    if let Some(run) = guest.run.take() {
        cal.cancel(run.event);
        if T::ENABLED {
            tracer.record(
                now,
                SchedRecord::SegmentPreempted {
                    machine: m as u32,
                    job: guest.job as u32,
                    task: guest.task,
                    kind: segment_kind(run.segment),
                },
            );
        }
        let elapsed = now - run.slice_start;
        sim.acc.delivered += elapsed;
        match run.segment {
            // A half-done restore was wasted CPU either way.
            Segment::Setup { .. } => sim.acc.wasted += elapsed,
            // The interrupted write is charged as overhead but does
            // NOT commit: `since_ckpt` keeps covering the whole
            // interval, which the crash then destroys.
            Segment::CkptWrite { .. } => sim.acc.ckpt += elapsed,
            Segment::Work { .. } => {
                guest.remaining -= elapsed;
                guest.since_ckpt += elapsed;
            }
        }
    }
    // Everything since the last durable checkpoint is destroyed.
    // Policies that never checkpoint have `since_ckpt` spanning the
    // whole investment, so they lose it all — including suspended
    // [`EvictionPolicy::SuspendResume`] guests.
    let lost = guest.since_ckpt;
    sim.acc.wasted += lost;
    sim.acc.crash_lost += lost;
    sim.pool.set_occupied(now, m, false);
    sim.queue.push(PendingTask {
        job: guest.job,
        task: guest.task,
        demand: guest.demand,
        remaining: guest.remaining + lost,
        setup: 0.0,
        enqueued_at: now,
    });
    true
}

/// Crash on machine `m` under a gang policy: the member is forced off
/// exactly as if its owner had reclaimed the machine — the gang
/// suspends below its floor, degrades above it, or migrates away as a
/// unit — but no eviction is counted (crashes are tallied separately)
/// and the member stays pinned until repair.
fn gang_crash<T: SchedTracer>(
    sim: &mut Sim,
    cal: &mut Calendar<SchedEvent>,
    now: f64,
    m: usize,
    tracer: &mut T,
) -> ReclaimOutcome {
    let Some(j) = sim.machine_gang[m] else {
        frag_update(sim, now);
        return ReclaimOutcome::nothing();
    };
    let policy = sim.gang_policy;
    let outcome = match sim.gangs[j].phase {
        GangPhase::Running { .. } => {
            close_gang_segment(sim, cal, j, now, tracer);
            {
                let gang = &mut sim.gangs[j];
                let idx = member_index(gang, m);
                gang.member_busy[idx] = true;
                gang.member_running[idx] = false;
            }
            match policy {
                GangPolicy::MigrateAll { overhead } => {
                    // A crash-triggered whole-gang migration: the gang
                    // flees to the queue paying the same restore
                    // overhead as an owner-triggered move.
                    sim.gacc.gang_migrations += 1;
                    let gang = &mut sim.gangs[j];
                    gang.phase = GangPhase::Queued;
                    gang.setup_left = overhead;
                    gang.member_running.clear();
                    gang.member_busy.clear();
                    let members = std::mem::take(&mut gang.members);
                    let pending = PendingGang {
                        job: j,
                        tasks: gang.width,
                        min_tasks: gang.floor,
                        demand: gang.demand,
                        remaining: gang.remaining,
                        setup: overhead,
                        enqueued_at: now,
                    };
                    for &mm in &members {
                        sim.pool.set_occupied(now, mm, false);
                        sim.machine_gang[mm] = None;
                    }
                    sim.gang_queue.push(pending);
                    refresh_grower(sim, j);
                    if T::ENABLED {
                        tracer.record(now, SchedRecord::GangMigrated { job: j as u32 });
                    }
                    ReclaimOutcome {
                        redispatch: true,
                        restart: None,
                    }
                }
                GangPolicy::Off => unreachable!("gang paths need a gang policy"),
                _ => {
                    let gang = &mut sim.gangs[j];
                    if running_members(gang) >= gang.floor {
                        gang.phase = GangPhase::Suspended { last_t: now };
                        ReclaimOutcome {
                            redispatch: false,
                            restart: Some(j),
                        }
                    } else {
                        sim.gacc.gang_suspensions += 1;
                        suspend_gang_members(gang);
                        gang.phase = GangPhase::Suspended { last_t: now };
                        if T::ENABLED {
                            tracer.record(now, SchedRecord::GangSuspended { job: j as u32 });
                        }
                        ReclaimOutcome::nothing()
                    }
                }
            }
        }
        GangPhase::Suspended { last_t } => {
            // The gang already sleeps (or runs nothing here): extend
            // the stall bookkeeping and pin the member.
            let gang = &mut sim.gangs[j];
            let k = gang.members.len() as u32;
            let busy = busy_members(gang);
            sim.gacc.barrier_stall += (now - last_t) * f64::from(k - busy);
            let idx = member_index(gang, m);
            gang.member_busy[idx] = true;
            gang.phase = GangPhase::Suspended { last_t: now };
            ReclaimOutcome::nothing()
        }
        GangPhase::Queued | GangPhase::Done => {
            unreachable!("machines only map to placed, unfinished gangs")
        }
    };
    frag_update(sim, now);
    verify_gang_invariants(sim, j);
    outcome
}

/// What an owner reclaim on a gang-mode machine requires once the
/// handler's bookkeeping ends.
struct ReclaimOutcome {
    /// Machines were freed back to the queue (migrate-all), so the
    /// dispatcher should run.
    redispatch: bool,
    /// Restart this gang's segment — it lost a member but stays at or
    /// above its floor, so it continues at a lower rate.
    restart: Option<usize>,
}

impl ReclaimOutcome {
    fn nothing() -> Self {
        Self {
            redispatch: false,
            restart: None,
        }
    }
}

/// Members currently running.
fn running_members(gang: &GangState) -> u32 {
    gang.member_running.iter().filter(|&&on| on).count() as u32
}

/// Members whose machine is currently reclaimed by its owner.
fn busy_members(gang: &GangState) -> u32 {
    gang.member_busy.iter().filter(|&&b| b).count() as u32
}

/// Position of machine `m` within the gang's member list.
fn member_index(gang: &GangState, m: usize) -> usize {
    gang.members
        .iter()
        .position(|&mm| mm == m)
        .expect("invariant: machine maps to a member of this gang")
}

/// Clear every member's run flag — one of the two choke points through
/// which a gang's run/suspend state ever changes.
fn suspend_gang_members(gang: &mut GangState) {
    for r in &mut gang.member_running {
        *r = false;
    }
}

/// Mark every member whose machine is owner-free as running (the other
/// choke point) and return how many run. Under the all-or-nothing
/// policies this only ever fires with zero busy members, so the whole
/// gang flips together.
fn resume_gang_members(gang: &mut GangState) -> u32 {
    let mut running = 0u32;
    for i in 0..gang.member_running.len() {
        let on = !gang.member_busy[i];
        gang.member_running[i] = on;
        running += u32::from(on);
    }
    running
}

/// Whether gang `g` currently violates its co-scheduling invariant:
/// lockstep agreement under the all-or-nothing policies, the
/// `[floor, width]` running-member band under the partial ones.
fn gang_violation(gang: &GangState, partial: bool) -> bool {
    let running = running_members(gang);
    if running == 0 {
        return false;
    }
    if partial {
        running < gang.floor || running > gang.width
    } else {
        running as usize != gang.member_running.len()
    }
}

/// Re-verify the co-scheduling invariant for the gang the current
/// event touched (the only gang whose run/suspend state can have
/// changed): under the all-or-nothing policies, members of one job
/// must agree on their run/suspend state at every event (lockstep);
/// under the partial policies, a running gang must hold at least its
/// `min_running` floor and at most its width. Both violation counters
/// are pinned at zero by the workspace's property tests; a debug
/// assertion still sweeps every gang, so a cross-gang bug cannot hide
/// in release builds' incremental check without first failing the
/// debug suites.
fn verify_gang_invariants(sim: &mut Sim, j: usize) {
    let partial = sim.gang_policy.is_partial();
    if gang_violation(&sim.gangs[j], partial) {
        if partial {
            sim.gacc.floor_violations += 1;
        } else {
            sim.gacc.lockstep_violations += 1;
        }
    }
    debug_assert!(
        sim.gangs.iter().all(|g| !gang_violation(g, partial)),
        "an untouched gang violated its co-scheduling invariant"
    );
}

/// Close gang `j`'s in-flight segment at `now`: cancel its end event
/// and account the elapsed slice — delivered machine-time at the
/// segment's member count, per-task progress at its (possibly
/// degraded) rate, and the effective-parallelism / degraded-mode
/// integrals. Callers then suspend, migrate, or restart the gang at a
/// new rate.
fn close_gang_segment<T: SchedTracer>(
    sim: &mut Sim,
    cal: &mut Calendar<SchedEvent>,
    j: usize,
    now: f64,
    tracer: &mut T,
) {
    let gang = &mut sim.gangs[j];
    let GangPhase::Running {
        is_setup,
        rate,
        slice_start,
        event,
        ..
    } = gang.phase
    else {
        unreachable!("only running gangs carry a segment to close")
    };
    cal.cancel(event);
    if T::ENABLED {
        let kind = if is_setup {
            SegmentKind::Setup
        } else {
            SegmentKind::Work
        };
        for (idx, &m) in gang.members.iter().enumerate() {
            if gang.member_running[idx] {
                tracer.record(
                    now,
                    SchedRecord::SegmentPreempted {
                        machine: m as u32,
                        job: j as u32,
                        task: idx as u32,
                        kind,
                    },
                );
            }
        }
    }
    let elapsed = now - slice_start;
    let r = f64::from(running_members(gang));
    sim.acc.delivered += r * elapsed;
    if is_setup {
        // An interrupted restore is redone in full next time.
        sim.acc.wasted += r * elapsed;
    } else {
        gang.remaining -= rate * elapsed;
        sim.gacc.parallelism_integral += r * elapsed;
        if (r as u32) < gang.width {
            sim.gacc.degraded_time += elapsed;
        }
    }
}

/// Accrue the gang-fragmentation integral over `[frag_t, now]` with the
/// state recorded at the last checkpoint, then re-snapshot. Called
/// after every gang-mode event that can change the free-machine count
/// or the queue's waiting state.
fn frag_update(sim: &mut Sim, now: f64) {
    if sim.frag_waiting {
        sim.gacc.fragmentation += (now - sim.frag_t) * sim.frag_free as f64;
    }
    sim.frag_t = now;
    sim.frag_waiting = !sim.gang_queue.is_empty();
    sim.frag_free = sim.pool.index().len();
}

/// Owner reclaim on machine `m` under a gang policy. The reclaimed
/// member suspends in place beneath its owner; what happens to the
/// rest of the gang is the policy's call — suspend everyone
/// (all-or-nothing, or a partial gang dropping through its floor),
/// keep computing at a degraded rate (partial, at or above the
/// floor), or migrate the whole gang back to the queue.
fn gang_owner_reclaim<T: SchedTracer>(
    sim: &mut Sim,
    cal: &mut Calendar<SchedEvent>,
    now: f64,
    m: usize,
    tracer: &mut T,
) -> ReclaimOutcome {
    let Some(j) = sim.machine_gang[m] else {
        frag_update(sim, now);
        return ReclaimOutcome::nothing();
    };
    let policy = sim.gang_policy;
    let outcome = match sim.gangs[j].phase {
        GangPhase::Running { .. } => {
            close_gang_segment(sim, cal, j, now, tracer);
            let evicted_task = {
                let gang = &mut sim.gangs[j];
                let idx = member_index(gang, m);
                gang.member_busy[idx] = true;
                gang.member_running[idx] = false;
                idx as u32
            };
            sim.acc.evictions += 1;
            if T::ENABLED {
                let action = match policy {
                    GangPolicy::MigrateAll { .. } => EvictionAction::Migrate,
                    _ => EvictionAction::Suspend,
                };
                tracer.record(
                    now,
                    SchedRecord::Eviction {
                        machine: m as u32,
                        job: j as u32,
                        task: evicted_task,
                        action,
                    },
                );
            }
            match policy {
                GangPolicy::MigrateAll { overhead } => {
                    // One eviction event resolved by one (whole-gang)
                    // migration: like `evictions` and `suspensions`,
                    // `migrations` counts events, so the policies stay
                    // comparable (per-task moves = gang_migrations x
                    // gang size).
                    sim.acc.migrations += 1;
                    sim.gacc.gang_migrations += 1;
                    let gang = &mut sim.gangs[j];
                    gang.phase = GangPhase::Queued;
                    gang.setup_left = overhead;
                    gang.member_running.clear();
                    gang.member_busy.clear();
                    let members = std::mem::take(&mut gang.members);
                    let pending = PendingGang {
                        job: j,
                        tasks: gang.width,
                        min_tasks: gang.floor,
                        demand: gang.demand,
                        remaining: gang.remaining,
                        setup: overhead,
                        enqueued_at: now,
                    };
                    for &mm in &members {
                        sim.pool.set_occupied(now, mm, false);
                        sim.machine_gang[mm] = None;
                    }
                    sim.gang_queue.push(pending);
                    refresh_grower(sim, j);
                    if T::ENABLED {
                        tracer.record(now, SchedRecord::GangMigrated { job: j as u32 });
                    }
                    ReclaimOutcome {
                        redispatch: true,
                        restart: None,
                    }
                }
                GangPolicy::Off => unreachable!("gang paths need a gang policy"),
                // Suspend-below-floor semantics, shared by SuspendAll
                // (whose floor is the full width, so any reclaim drops
                // through it) and the partial policies.
                _ => {
                    sim.acc.suspensions += 1;
                    let gang = &mut sim.gangs[j];
                    if running_members(gang) >= gang.floor {
                        // Degraded mode: the survivors keep computing
                        // at a lower rate. The phase parks Suspended
                        // until the caller reopens the segment.
                        gang.phase = GangPhase::Suspended { last_t: now };
                        ReclaimOutcome {
                            redispatch: false,
                            restart: Some(j),
                        }
                    } else {
                        sim.gacc.gang_suspensions += 1;
                        suspend_gang_members(gang);
                        gang.phase = GangPhase::Suspended { last_t: now };
                        if T::ENABLED {
                            tracer.record(now, SchedRecord::GangSuspended { job: j as u32 });
                        }
                        ReclaimOutcome::nothing()
                    }
                }
            }
        }
        GangPhase::Suspended { last_t } => {
            // Another member machine reclaimed while the gang already
            // sleeps: extend the stall bookkeeping, nothing to evict.
            let gang = &mut sim.gangs[j];
            let k = gang.members.len() as u32;
            let busy = busy_members(gang);
            sim.gacc.barrier_stall += (now - last_t) * f64::from(k - busy);
            let idx = member_index(gang, m);
            gang.member_busy[idx] = true;
            gang.phase = GangPhase::Suspended { last_t: now };
            ReclaimOutcome::nothing()
        }
        GangPhase::Queued | GangPhase::Done => {
            unreachable!("machines only map to placed, unfinished gangs")
        }
    };
    frag_update(sim, now);
    verify_gang_invariants(sim, j);
    outcome
}

/// Owner departure on machine `m` under a gang policy: wake the gang
/// once enough members' owners are away (all of them under the
/// all-or-nothing policies, the `min_running` floor under a partial
/// policy), rejoin a degraded partial gang mid-run, or offer the
/// machine to the queue.
fn gang_owner_release<T: SchedTracer>(
    sim: &mut Sim,
    cal: &mut Calendar<SchedEvent>,
    now: f64,
    m: usize,
    tracer: &mut T,
) -> Departure {
    let Some(j) = sim.machine_gang[m] else {
        return Departure::Dispatch;
    };
    match sim.gangs[j].phase {
        GangPhase::Suspended { last_t } => {
            let gang = &mut sim.gangs[j];
            let k = gang.members.len() as u32;
            let busy = busy_members(gang);
            sim.gacc.barrier_stall += (now - last_t) * f64::from(k - busy);
            let idx = member_index(gang, m);
            gang.member_busy[idx] = false;
            if k - (busy - 1) >= gang.floor {
                // Phase flips to Running inside start_gang_segment.
                Departure::ResumeGang(j)
            } else {
                gang.phase = GangPhase::Suspended { last_t: now };
                Departure::Nothing
            }
        }
        // Partial gangs keep computing through member reclaims, so an
        // owner can depart a member machine while the gang runs
        // degraded: the member rejoins and the rate steps back up.
        GangPhase::Running { .. } if sim.gang_policy.is_partial() => {
            {
                let gang = &mut sim.gangs[j];
                let idx = member_index(gang, m);
                gang.member_busy[idx] = false;
            }
            close_gang_segment(sim, cal, j, now, tracer);
            sim.gangs[j].phase = GangPhase::Suspended { last_t: now };
            Departure::ResumeGang(j)
        }
        // Under the all-or-nothing policies a running gang implies
        // every member's owner is away, and a queued/done gang holds
        // no machines: an owner departing a member machine can only
        // find the gang suspended.
        GangPhase::Running { .. } | GangPhase::Queued | GangPhase::Done => {
            unreachable!("owner departs a member machine only while the gang sleeps")
        }
    }
}

/// Match waiting gangs to free machines until nothing more fits.
///
/// Under a partial policy, already-placed gangs still below their full
/// width absorb freed machines first (one per step, lowest job index
/// first — a computing gang completing its placement beats admitting
/// new work), then queued gangs are admitted with `min(free, width)`
/// machines — at least their floor, by [`GangQueue::pop_fitting`]'s
/// contract.
fn gang_dispatch<T: SchedTracer>(sim: &mut Sim, cal: &mut Calendar<SchedEvent>, tracer: &mut T) {
    loop {
        let now = cal.now().as_f64();
        if sim.done {
            frag_update(sim, now);
            return;
        }
        let no_candidates = sim.pool.index().is_empty();
        let grower = if sim.gang_policy.is_partial() && !no_candidates {
            sim.growers.first().copied()
        } else {
            None
        };
        let (j, start) = if let Some(g) = grower {
            // Grow an under-placed gang by one member.
            let was_running = matches!(sim.gangs[g].phase, GangPhase::Running { .. });
            if was_running {
                close_gang_segment(sim, cal, g, now, tracer);
            } else if let GangPhase::Suspended { last_t } = sim.gangs[g].phase {
                // Membership is about to change: settle the stall
                // integral at the old member count.
                let gang = &mut sim.gangs[g];
                let k = gang.members.len() as u32;
                let busy = busy_members(gang);
                sim.gacc.barrier_stall += (now - last_t) * f64::from(k - busy);
                gang.phase = GangPhase::Suspended { last_t: now };
            }
            let m = sim
                .placement
                .choose(sim.pool.index(), &mut sim.placement_rng);
            sim.pool.set_occupied(now, m, true);
            sim.machine_gang[m] = Some(g);
            sim.acc.placements += 1;
            let gang = &mut sim.gangs[g];
            gang.members.push(m);
            gang.member_busy.push(false);
            gang.member_running.push(false);
            if T::ENABLED {
                tracer.record(
                    now,
                    SchedRecord::TaskPlaced {
                        machine: m as u32,
                        job: g as u32,
                        task: (gang.members.len() - 1) as u32,
                    },
                );
            }
            let avail = gang.members.len() as u32 - busy_members(gang);
            let start = was_running || avail >= gang.floor;
            if was_running {
                // Parked until the segment reopens below.
                gang.phase = GangPhase::Suspended { last_t: now };
            }
            refresh_grower(sim, g);
            frag_update(sim, now);
            (g, start)
        } else {
            // Admit the next fitting gang from the queue.
            if no_candidates || sim.gang_queue.is_empty() {
                frag_update(sim, now);
                return;
            }
            let free = sim.pool.index().len();
            let Some(pending) = sim.gang_queue.pop_fitting(sim.discipline, free) else {
                frag_update(sim, now);
                return;
            };
            let j = pending.job;
            let n = (pending.tasks as usize).min(free);
            let mut members = Vec::with_capacity(n);
            for _ in 0..n {
                let m = sim
                    .placement
                    .choose(sim.pool.index(), &mut sim.placement_rng);
                sim.pool.set_occupied(now, m, true);
                sim.machine_gang[m] = Some(j);
                members.push(m);
            }
            sim.acc.placements += n as u64;
            sim.acc.total_wait += n as f64 * (now - pending.enqueued_at);
            sim.gacc.gang_starts += 1;
            sim.gacc.coalloc_wait += now - pending.enqueued_at;
            if T::ENABLED {
                tracer.record(
                    now,
                    SchedRecord::GangAdmitted {
                        job: j as u32,
                        members: n as u32,
                    },
                );
                tracer.observe(now, ObsKind::CoallocWait, now - pending.enqueued_at);
                // Mirror the accounting: every admitted member waited.
                #[allow(clippy::cast_possible_truncation)]
                tracer.observe_n(now, ObsKind::QueueWait, now - pending.enqueued_at, n as u32);
                for (idx, &mm) in members.iter().enumerate() {
                    tracer.record(
                        now,
                        SchedRecord::TaskPlaced {
                            machine: mm as u32,
                            job: j as u32,
                            task: idx as u32,
                        },
                    );
                }
            }
            let gang = &mut sim.gangs[j];
            gang.member_running = vec![false; n];
            gang.member_busy = vec![false; n];
            gang.members = members;
            if (n as u32) < gang.width {
                sim.growers.insert(j);
            }
            frag_update(sim, now);
            (j, true)
        };
        if start {
            start_gang_segment(sim, cal, j, tracer);
        }
    }
}

/// Begin the gang's next segment (setup after a migration, else the
/// whole remaining work — gangs only stop when interrupted). Every
/// member whose machine is owner-free runs; the per-task progress rate
/// is `running / width`, so a full gang computes at rate one and a
/// degraded partial gang proportionally slower.
fn start_gang_segment<T: SchedTracer>(
    sim: &mut Sim,
    cal: &mut Calendar<SchedEvent>,
    j: usize,
    tracer: &mut T,
) {
    let now = cal.now().as_f64();
    let gang = &mut sim.gangs[j];
    let running = resume_gang_members(gang);
    debug_assert!(
        running >= gang.floor,
        "segment starts require the co-scheduling floor"
    );
    let rate = f64::from(running) / f64::from(gang.width);
    let (work, is_setup) = if gang.setup_left > 0.0 {
        (gang.setup_left, true)
    } else {
        (gang.remaining.max(0.0), false)
    };
    let wall = work / rate;
    let event = cal
        .schedule_in(
            SimTime::new(wall),
            SchedEvent::GangSegmentEnd { j: j as u32 },
        )
        .expect("invariant: gang segment length is non-negative");
    gang.phase = GangPhase::Running {
        is_setup,
        work,
        wall,
        rate,
        slice_start: now,
        event,
    };
    if T::ENABLED {
        let kind = if is_setup {
            SegmentKind::Setup
        } else {
            SegmentKind::Work
        };
        for (idx, &m) in gang.members.iter().enumerate() {
            if gang.member_running[idx] {
                tracer.record(
                    now,
                    SchedRecord::SegmentStart {
                        machine: m as u32,
                        job: j as u32,
                        task: idx as u32,
                        kind,
                        wall,
                    },
                );
            }
        }
    }
    verify_gang_invariants(sim, j);
}

/// A gang segment ran to completion undisturbed.
fn gang_segment_end<T: SchedTracer>(
    sim: &mut Sim,
    cal: &mut Calendar<SchedEvent>,
    now: f64,
    j: usize,
    tracer: &mut T,
) {
    let completed = {
        let gang = &mut sim.gangs[j];
        let GangPhase::Running {
            is_setup,
            work,
            wall,
            ..
        } = gang.phase
        else {
            unreachable!("gang segments end only while running")
        };
        if T::ENABLED {
            let kind = if is_setup {
                SegmentKind::Setup
            } else {
                SegmentKind::Work
            };
            for (idx, &m) in gang.members.iter().enumerate() {
                if gang.member_running[idx] {
                    tracer.record(
                        now,
                        SchedRecord::SegmentEnd {
                            machine: m as u32,
                            job: j as u32,
                            task: idx as u32,
                            kind,
                        },
                    );
                }
            }
        }
        let r = f64::from(running_members(gang));
        sim.acc.delivered += r * wall;
        if is_setup {
            // Migration restore: wasted work, then compute for real.
            sim.acc.wasted += r * wall;
            gang.setup_left = 0.0;
            false
        } else {
            gang.remaining -= work;
            sim.gacc.parallelism_integral += r * wall;
            if (r as u32) < gang.width {
                sim.gacc.degraded_time += wall;
            }
            // Work segments span the whole remaining demand, so an
            // undisturbed end is always a completion.
            true
        }
    };
    if !completed {
        start_gang_segment(sim, cal, j, tracer);
        return;
    }
    let gang = &mut sim.gangs[j];
    suspend_gang_members(gang);
    gang.phase = GangPhase::Done;
    gang.member_running.clear();
    gang.member_busy.clear();
    let demand = gang.demand;
    let width = gang.width;
    let members = std::mem::take(&mut gang.members);
    for &m in &members {
        sim.pool.set_occupied(now, m, false);
        sim.machine_gang[m] = None;
    }
    sim.growers.remove(&j);
    // The job completes all `width` tasks' worth of work even if a
    // partial gang never placed its full width (the shared clock
    // already charged the missing members' share via the degraded
    // rate).
    sim.acc.goodput += f64::from(width) * demand;
    sim.acc.completed_tasks += u64::from(width);
    let job = sim.jobs.get_mut(j);
    job.tasks_left = 0;
    job.completion = now;
    sim.jobs_remaining -= 1;
    if T::ENABLED {
        tracer.record(now, SchedRecord::JobCompleted { job: j as u32 });
        let record = job.record();
        let response = record.response_time();
        tracer.observe(now, ObsKind::Response, response);
        if record.demand > 0.0 {
            tracer.observe(now, ObsKind::Slowdown, response / record.demand);
        }
    }
    if sim.jobs_remaining == 0 {
        sim.done = true;
        sim.makespan = now;
    }
    frag_update(sim, now);
    verify_gang_invariants(sim, j);
    if !sim.done {
        gang_dispatch(sim, cal, tracer);
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn owner(u: f64) -> OwnerWorkload {
        OwnerWorkload::continuous_exponential(10.0, u).unwrap()
    }

    fn base_config(eviction: EvictionPolicy) -> SchedConfig {
        let mut cfg = SchedConfig::homogeneous(
            6,
            &owner(0.15),
            vec![JobSpec::at_zero(10, 80.0), JobSpec::at_zero(4, 40.0)],
        );
        cfg.eviction = eviction;
        cfg.seed = 99;
        cfg
    }

    #[test]
    fn suspend_resume_wastes_nothing() {
        let m = base_config(EvictionPolicy::SuspendResume).run().unwrap();
        assert_eq!(m.completed_tasks, 14);
        assert_eq!(m.wasted, 0.0);
        assert_eq!(m.checkpoint_overhead, 0.0);
        assert!((m.goodput - m.total_demand).abs() < 1e-9);
        assert!(m.is_consistent(), "residual {}", m.accounting_residual());
        assert!(m.evictions > 0, "15% utilization must interfere");
        assert_eq!(m.suspensions, m.evictions);
    }

    #[test]
    fn restart_wastes_progress() {
        let m = base_config(EvictionPolicy::Restart).run().unwrap();
        assert!(m.restarts > 0);
        assert!(m.wasted > 0.0, "restarts must lose work");
        assert!(m.is_consistent(), "residual {}", m.accounting_residual());
        assert!((m.goodput - m.total_demand).abs() < 1e-9);
    }

    #[test]
    fn migrate_pays_setup_not_progress() {
        let m = base_config(EvictionPolicy::Migrate { overhead: 3.0 })
            .run()
            .unwrap();
        assert!(m.migrations > 0);
        // Wasted work is exactly the migration setup actually served
        // (interrupted restores re-count only served time).
        assert!(m.wasted <= m.migrations as f64 * 3.0 + 1e-9);
        assert!(m.is_consistent(), "residual {}", m.accounting_residual());
    }

    #[test]
    fn checkpoint_bounds_rollback_by_interval() {
        let m = base_config(EvictionPolicy::Checkpoint {
            interval: 20.0,
            overhead: 0.5,
        })
        .run()
        .unwrap();
        assert!(m.checkpoint_overhead > 0.0);
        assert!(
            m.wasted <= m.evictions as f64 * 20.0 + 1e-9,
            "each eviction loses at most one interval"
        );
        assert!(m.is_consistent(), "residual {}", m.accounting_residual());
    }

    fn failing_config(eviction: EvictionPolicy) -> SchedConfig {
        let mut cfg = base_config(eviction);
        cfg.failures = Some(FailureModel::exponential(120.0, 15.0).unwrap());
        cfg
    }

    #[test]
    fn crashes_destroy_unprotected_progress() {
        let m = failing_config(EvictionPolicy::SuspendResume).run().unwrap();
        assert!(m.crashes > 0, "mtbf 120 on 6 machines must crash");
        assert!(m.crash_lost > 0.0, "suspension images die with the host");
        assert!(
            m.crash_lost <= m.wasted + 1e-9,
            "crash losses are a share of wasted: {} vs {}",
            m.crash_lost,
            m.wasted
        );
        assert!(m.downtime > 0.0);
        assert_eq!(m.crashes_by_machine.len(), 6);
        assert_eq!(m.crashes_by_machine.iter().sum::<u64>(), m.crashes);
        assert_eq!(m.completed_tasks, 14, "jobs still finish through crashes");
        assert!((m.goodput - m.total_demand).abs() < 1e-9);
        assert!(m.is_consistent(), "residual {}", m.accounting_residual());
    }

    #[test]
    fn checkpoints_bound_crash_losses() {
        let m = failing_config(EvictionPolicy::Checkpoint {
            interval: 10.0,
            overhead: 0.4,
        })
        .run()
        .unwrap();
        assert!(m.crashes > 0);
        // `since_ckpt` never exceeds the interval under periodic
        // checkpointing, so neither can any one crash's loss.
        assert!(
            m.crash_lost <= m.crashes as f64 * 10.0 + 1e-9,
            "each crash rolls back at most one interval"
        );
        assert!(m.is_consistent(), "residual {}", m.accounting_residual());
        assert!((m.goodput - m.total_demand).abs() < 1e-9);
    }

    #[test]
    fn crash_during_checkpoint_write_loses_exactly_the_open_interval() {
        // A checkpoint only protects once its write *completes*: a
        // crash landing mid-write charges the served write time as
        // overhead but must NOT commit — the task rolls back to the
        // last durable checkpoint, losing exactly the whole open
        // interval. Reconstruct that accounting from the flight
        // recorder on a quiet pool (no owner evictions, so every
        // preemption is a crash) and demand the engine's `crash_lost`
        // and `checkpoint_overhead` match the replay to round-off.
        use crate::trace::{FlightRecorder, SegmentKind};
        use std::collections::BTreeMap;

        let mut interrupted_writes = 0u32;
        for seed in [1u64, 2, 3, 4] {
            let mut cfg = SchedConfig::homogeneous(
                4,
                &owner(1e-9),
                vec![JobSpec::at_zero(4, 100.0), JobSpec::at_zero(4, 100.0)],
            );
            cfg.eviction = EvictionPolicy::Checkpoint {
                interval: 15.0,
                overhead: 3.0,
            };
            cfg.failures = Some(FailureModel::exponential(50.0, 6.0).unwrap());
            cfg.seed = seed;
            let mut rec = FlightRecorder::new(4, 1e6);
            let (m, _) = cfg.run_traced(&mut rec).unwrap();
            assert_eq!(m.evictions, 0, "quiet owners: every preemption is a crash");
            assert!(m.crashes > 0, "seed {seed} must crash");

            // Replay the segment log: per task, the work accumulated
            // since its last *durable* checkpoint; per machine, the
            // open segment.
            let mut since_ckpt: BTreeMap<(u32, u32), f64> = BTreeMap::new();
            let mut open: BTreeMap<u32, (f64, SegmentKind)> = BTreeMap::new();
            let mut lost = 0.0;
            let mut overhead = 0.0;
            for &(t, ref r) in rec.events() {
                match *r {
                    SchedRecord::SegmentStart { machine, kind, .. } => {
                        open.insert(machine, (t, kind));
                    }
                    SchedRecord::SegmentEnd {
                        machine, job, task, ..
                    } => {
                        let (start, kind) = open.remove(&machine).expect("end without start");
                        match kind {
                            SegmentKind::Work => {
                                *since_ckpt.entry((job, task)).or_insert(0.0) += t - start;
                            }
                            SegmentKind::CkptWrite => {
                                // The write committed: the interval
                                // behind it is durable.
                                overhead += t - start;
                                since_ckpt.insert((job, task), 0.0);
                            }
                            SegmentKind::Setup => {}
                        }
                    }
                    SchedRecord::SegmentPreempted {
                        machine, job, task, ..
                    } => {
                        // Quiet pool: only a crash cuts a segment
                        // short, and it destroys everything since the
                        // last durable commit.
                        let (start, kind) = open.remove(&machine).expect("preempt without start");
                        match kind {
                            SegmentKind::Work => {
                                *since_ckpt.entry((job, task)).or_insert(0.0) += t - start;
                            }
                            SegmentKind::CkptWrite => {
                                // Charged as overhead, NOT committed.
                                overhead += t - start;
                                interrupted_writes += 1;
                            }
                            SegmentKind::Setup => {}
                        }
                        lost += since_ckpt.insert((job, task), 0.0).unwrap_or(0.0);
                    }
                    _ => {}
                }
            }
            assert!(
                (lost - m.crash_lost).abs() <= 1e-9 * m.crash_lost.max(1.0),
                "seed {seed}: trace-reconstructed loss {lost} vs crash_lost {}",
                m.crash_lost
            );
            assert!(
                (overhead - m.checkpoint_overhead).abs() <= 1e-9 * m.checkpoint_overhead.max(1.0),
                "seed {seed}: write time {overhead} vs checkpoint_overhead {}",
                m.checkpoint_overhead
            );
            assert!(m.is_consistent(), "residual {}", m.accounting_residual());
        }
        assert!(
            interrupted_writes > 0,
            "the sweep must crash at least one checkpoint write mid-flight"
        );
    }

    #[test]
    fn rare_failures_leave_sample_paths_untouched() {
        // The failure process draws from its own labeled stream: a
        // model whose first crash lands far past the makespan must
        // reproduce the no-failure run's every float.
        let base = base_config(EvictionPolicy::SuspendResume).run().unwrap();
        let mut cfg = base_config(EvictionPolicy::SuspendResume);
        cfg.failures = Some(FailureModel::exponential(1e12, 10.0).unwrap());
        let m = cfg.run().unwrap();
        assert_eq!(m.crashes, 0, "mtbf 1e12 must not crash inside this run");
        assert_eq!(m.downtime, 0.0);
        assert_eq!(m.makespan, base.makespan);
        assert_eq!(m.delivered, base.delivered);
        assert_eq!(m.jobs, base.jobs);
    }

    #[test]
    fn failure_runs_replay_and_diverge_across_replications() {
        let cfg = failing_config(EvictionPolicy::Restart);
        let a = cfg.run().unwrap();
        assert_eq!(a, cfg.run().unwrap(), "same seed must replay identically");
        let mut cfg2 = cfg.clone();
        cfg2.replication = 1;
        assert_ne!(a.makespan, cfg2.run().unwrap().makespan);
    }

    #[test]
    fn gang_crashes_route_through_the_reclaim_path() {
        let mut cfg = gang_config(GangPolicy::SuspendAll);
        cfg.failures = Some(FailureModel::exponential(150.0, 20.0).unwrap());
        let m = cfg.run().unwrap();
        assert!(m.crashes > 0);
        assert_eq!(m.completed_tasks, 12);
        assert_eq!(
            m.crash_lost, 0.0,
            "gang members freeze at barriers; a member crash suspends, not destroys"
        );
        assert!(m.downtime > 0.0);
        assert_eq!(m.gang.lockstep_violations, 0);
        assert!(m.is_consistent(), "residual {}", m.accounting_residual());

        let mut cfgp = gang_config(GangPolicy::Partial { min_running: 2 });
        cfgp.failures = Some(FailureModel::exponential(150.0, 20.0).unwrap());
        let p = cfgp.run().unwrap();
        assert_eq!(p.completed_tasks, 12);
        assert_eq!(p.gang.floor_violations, 0);
        assert!(p.is_consistent(), "residual {}", p.accounting_residual());
    }

    #[test]
    fn adaptive_brackets_restart_and_checkpoint_bit_for_bit() {
        // Threshold 0 starts checkpointing immediately: every segment,
        // eviction outcome, and counter matches Checkpoint exactly.
        let ck = base_config(EvictionPolicy::Checkpoint {
            interval: 20.0,
            overhead: 0.5,
        })
        .run()
        .unwrap();
        let ad = base_config(EvictionPolicy::Adaptive {
            threshold: 0.0,
            interval: 20.0,
            overhead: 0.5,
        })
        .run()
        .unwrap();
        assert_eq!(ad, ck);
        // An unreachable threshold never protects anything: Restart.
        let rs = base_config(EvictionPolicy::Restart).run().unwrap();
        let ad2 = base_config(EvictionPolicy::Adaptive {
            threshold: f64::MAX,
            interval: 20.0,
            overhead: 0.5,
        })
        .run()
        .unwrap();
        assert_eq!(ad2, rs);
    }

    #[test]
    fn adaptive_checkpoints_once_invested() {
        let m = base_config(EvictionPolicy::Adaptive {
            threshold: 20.0,
            interval: 10.0,
            overhead: 0.4,
        })
        .run()
        .unwrap();
        assert_eq!(m.completed_tasks, 14);
        assert!(
            m.checkpoint_overhead > 0.0,
            "tasks past the threshold must write checkpoints"
        );
        assert!(m.is_consistent(), "residual {}", m.accounting_residual());
    }

    #[test]
    fn streamed_run_with_failures_replays_materialized() {
        use crate::feed::SliceFeed;
        let mut cfg = streaming_config();
        cfg.failures = Some(FailureModel::exponential(200.0, 25.0).unwrap());
        let (want, want_events) = cfg.run_counted().unwrap();
        assert!(want.crashes > 0, "this sweep must actually crash");
        let mut feed = SliceFeed::new(&cfg.jobs);
        let mut records = Vec::new();
        let (mut got, events) = cfg
            .run_streamed(&mut feed, 7, &mut |_, r| records.push(r))
            .unwrap();
        got.jobs = records;
        assert_eq!(got, want, "streamed failure run diverged");
        assert_eq!(events, want_events);
    }

    #[test]
    fn run_replications_matches_manual_loop() {
        let cfg = base_config(EvictionPolicy::SuspendResume);
        let runs = cfg.run_replications(3).unwrap();
        assert_eq!(runs.len(), 3);
        for (rep, run) in runs.iter().enumerate() {
            let mut manual = cfg.clone();
            manual.replication = rep as u64;
            assert_eq!(*run, manual.run().unwrap());
        }
        assert_eq!(cfg.run_replications(0).unwrap().len(), 1, "reps clamp to 1");
    }

    #[test]
    fn deterministic_replay_and_replication_divergence() {
        let cfg = base_config(EvictionPolicy::SuspendResume);
        let a = cfg.run().unwrap();
        let b = cfg.run().unwrap();
        assert_eq!(a, b, "same seed must replay identically");
        let mut cfg2 = cfg.clone();
        cfg2.replication = 1;
        let c = cfg2.run().unwrap();
        assert_ne!(a.makespan, c.makespan, "replications must differ");
    }

    #[test]
    fn placement_policies_all_complete_with_shared_owner_paths() {
        for kind in PlacementKind::ALL {
            let mut cfg = base_config(EvictionPolicy::SuspendResume);
            cfg.placement = kind;
            cfg.calibration_horizon = 5_000.0;
            let m = cfg.run().unwrap();
            assert_eq!(m.completed_tasks, 14, "{}", kind.name());
            assert!(m.is_consistent(), "{}", kind.name());
        }
    }

    #[test]
    fn sjf_backfill_completes_and_orders_short_jobs_first() {
        let short_job = JobSpec::at_zero(2, 10.0);
        let long_job = JobSpec::at_zero(2, 500.0);
        // One machine: strict serialization makes ordering observable.
        let mut cfg = SchedConfig::homogeneous(1, &owner(0.02), vec![long_job, short_job]);
        cfg.discipline = QueueDiscipline::SjfBackfill;
        let m = cfg.run().unwrap();
        assert!(
            m.jobs[1].completion < m.jobs[0].completion,
            "short job must finish first under SJF backfill"
        );
        let mut cfg_fcfs = cfg.clone();
        cfg_fcfs.discipline = QueueDiscipline::Fcfs;
        let f = cfg_fcfs.run().unwrap();
        assert!(
            f.jobs[0].completion < f.jobs[1].completion,
            "FCFS serves the first-submitted job first"
        );
    }

    #[test]
    fn starved_pool_reports_event_cap() {
        let mut cfg = base_config(EvictionPolicy::SuspendResume);
        // Calibrated estimates (~0.15) sit far above the threshold, so
        // no machine is ever admitted and the jobs starve.
        cfg.admission_threshold = 1e-6;
        cfg.calibration_horizon = 20_000.0;
        cfg.max_events = 10_000;
        match cfg.run() {
            Err(SchedError::EventCapExceeded {
                jobs_unfinished, ..
            }) => assert_eq!(jobs_unfinished, 2),
            other => panic!("expected EventCapExceeded, got {other:?}"),
        }
    }

    #[test]
    fn rejects_invalid_configs() {
        let good = base_config(EvictionPolicy::SuspendResume);
        let mut c = good.clone();
        c.owners.clear();
        assert!(c.run().is_err());
        let mut c = good.clone();
        c.jobs[0].task_demand = -1.0;
        assert!(c.run().is_err());
        let mut c = good.clone();
        c.eviction = EvictionPolicy::Checkpoint {
            interval: -5.0,
            overhead: 1.0,
        };
        assert!(c.run().is_err());
        let mut c = good;
        c.admission_threshold = 0.0;
        assert!(c.run().is_err());
    }

    fn gang_config(policy: GangPolicy) -> SchedConfig {
        let mut cfg = SchedConfig::homogeneous(
            8,
            &owner(0.15),
            vec![
                JobSpec::at_zero(4, 60.0),
                JobSpec {
                    tasks: 6,
                    task_demand: 40.0,
                    arrival: 30.0,
                },
                JobSpec {
                    tasks: 2,
                    task_demand: 80.0,
                    arrival: 60.0,
                },
            ],
        );
        cfg.gang = policy;
        cfg.seed = 424;
        cfg
    }

    #[test]
    fn gang_suspend_all_conserves_and_stalls() {
        let m = gang_config(GangPolicy::SuspendAll).run().unwrap();
        assert_eq!(m.completed_tasks, 12);
        assert_eq!(m.wasted, 0.0, "suspend-all never loses work");
        assert!((m.goodput - m.total_demand).abs() < 1e-9);
        assert!(m.is_consistent(), "residual {}", m.accounting_residual());
        assert!(m.gang.gang_suspensions > 0, "15% owners must interfere");
        assert_eq!(m.gang.gang_suspensions, m.suspensions);
        assert!(
            m.gang.barrier_stall > 0.0,
            "peers with free machines must stall behind reclaimed members"
        );
        assert_eq!(m.gang.lockstep_violations, 0);
        assert!(
            m.gang.gang_starts >= 3,
            "each job co-allocates at least once"
        );
        assert_eq!(m.placements, 12, "one placement per task under suspend-all");
    }

    #[test]
    fn gang_migrate_all_moves_as_a_unit() {
        let m = gang_config(GangPolicy::MigrateAll { overhead: 2.0 })
            .run()
            .unwrap();
        assert_eq!(m.completed_tasks, 12);
        assert!(m.gang.gang_migrations > 0);
        assert_eq!(
            m.migrations, m.gang.gang_migrations,
            "migrations count eviction events, one per whole-gang move"
        );
        assert_eq!(
            m.evictions, m.migrations,
            "every reclaim resolves by migrating"
        );
        assert!(m.wasted > 0.0, "migration setup is wasted CPU");
        assert!(m.is_consistent(), "residual {}", m.accounting_residual());
        assert!((m.goodput - m.total_demand).abs() < 1e-9);
        assert_eq!(m.gang.lockstep_violations, 0);
        assert_eq!(
            m.gang.barrier_stall, 0.0,
            "migrate-all never sleeps in place"
        );
        assert!(
            m.gang.gang_starts == m.gang.gang_migrations + 3,
            "every migration re-co-allocates once: {} starts, {} migrations",
            m.gang.gang_starts,
            m.gang.gang_migrations
        );
    }

    // (The gang-of-one bit-for-bit equivalence with the independent
    // engine lives in the workspace suite, tests/gang_invariants.rs,
    // which sweeps every placement policy and queue discipline.)

    #[test]
    fn partial_gang_degrades_instead_of_suspending() {
        let m = gang_config(GangPolicy::Partial { min_running: 2 })
            .run()
            .unwrap();
        assert_eq!(m.completed_tasks, 12);
        assert_eq!(m.wasted, 0.0, "suspend-in-place loses no work");
        assert!((m.goodput - m.total_demand).abs() < 1e-9);
        assert!(m.is_consistent(), "residual {}", m.accounting_residual());
        assert_eq!(m.gang.floor_violations, 0);
        assert_eq!(m.gang.lockstep_violations, 0);
        assert!(
            m.gang.degraded_time > 0.0,
            "15% owners must push some gang below full width"
        );
        // Conservation: the effective-parallelism integral over work
        // segments is exactly the demand served.
        assert!(
            (m.gang.parallelism_integral - m.total_demand).abs() <= 1e-9 * m.total_demand,
            "∫rate·dt = {} vs demand {}",
            m.gang.parallelism_integral,
            m.total_demand
        );
        // Degraded continuation beats freezing: fewer whole-gang
        // suspensions than suspend-all sees on the same sample paths.
        let sa = gang_config(GangPolicy::SuspendAll).run().unwrap();
        assert!(m.gang.gang_suspensions <= sa.gang.gang_suspensions);
    }

    #[test]
    fn partial_floor_at_width_is_bit_for_bit_suspend_all() {
        // min_running clamps to each gang's width, so a huge floor
        // turns Partial into SuspendAll — including every float in
        // every metric (the rate is exactly 1.0 on all paths). The
        // workspace property suite sweeps this across random configs;
        // this is the fast in-crate pin.
        let partial = gang_config(GangPolicy::Partial {
            min_running: u32::MAX,
        })
        .run()
        .unwrap();
        let suspend = gang_config(GangPolicy::SuspendAll).run().unwrap();
        assert_eq!(partial, suspend);
        let frac = gang_config(GangPolicy::PartialFrac {
            min_running_frac: 1.0,
        })
        .run()
        .unwrap();
        assert_eq!(frac, suspend);
    }

    #[test]
    fn partial_gang_wider_than_the_pool_completes_degraded() {
        // 6 tasks on 4 machines can never fully co-allocate, but with a
        // floor of 2 the gang is admitted, runs at rate <= 4/6, and
        // still conserves its full demand.
        let mut cfg = SchedConfig::homogeneous(4, &owner(0.05), vec![JobSpec::at_zero(6, 30.0)]);
        cfg.gang = GangPolicy::Partial { min_running: 2 };
        cfg.seed = 11;
        let m = cfg.run().unwrap();
        assert_eq!(m.completed_tasks, 6);
        assert!((m.goodput - m.total_demand).abs() < 1e-9);
        assert!(m.is_consistent());
        assert_eq!(m.gang.floor_violations, 0);
        assert!(
            m.gang.degraded_time > 0.0,
            "an under-placed gang is degraded by definition"
        );
        assert!(
            m.makespan >= 30.0 * 6.0 / 4.0 - 1e-9,
            "rate cannot exceed pool/width"
        );
        // The same job is rejected under all-or-nothing co-allocation.
        cfg.gang = GangPolicy::SuspendAll;
        assert!(matches!(
            cfg.run(),
            Err(SchedError::InvalidConfig { field: "jobs", .. })
        ));
        // And a floor wider than the pool is rejected for partial too.
        cfg.gang = GangPolicy::Partial { min_running: 5 };
        assert!(matches!(
            cfg.run(),
            Err(SchedError::InvalidConfig { field: "jobs", .. })
        ));
    }

    #[test]
    fn partial_replay_is_deterministic() {
        let cfg = gang_config(GangPolicy::Partial { min_running: 3 });
        let a = cfg.run().unwrap();
        assert_eq!(a, cfg.run().unwrap(), "same seed must replay identically");
        let mut cfg2 = cfg.clone();
        cfg2.replication = 1;
        assert_ne!(a.makespan, cfg2.run().unwrap().makespan);
    }

    #[test]
    fn rejects_invalid_partial_policies() {
        let mut cfg = gang_config(GangPolicy::Partial { min_running: 0 });
        assert!(cfg.run().is_err());
        cfg.gang = GangPolicy::PartialFrac {
            min_running_frac: 0.0,
        };
        assert!(cfg.run().is_err());
        cfg.gang = GangPolicy::PartialFrac {
            min_running_frac: 2.0,
        };
        assert!(cfg.run().is_err());
    }

    #[test]
    fn gang_fragmentation_prices_unusable_free_machines() {
        // One long-running wide gang monopolizes the pool while a
        // second wide gang waits: machines freed by owner cycles stay
        // unusable for the waiting gang.
        let mut cfg = SchedConfig::homogeneous(
            4,
            &owner(0.10),
            vec![JobSpec::at_zero(4, 120.0), JobSpec::at_zero(4, 120.0)],
        );
        cfg.gang = GangPolicy::SuspendAll;
        cfg.seed = 7;
        let m = cfg.run().unwrap();
        assert!(
            m.gang.coalloc_wait > 0.0,
            "the second gang must wait for the first"
        );
        assert!(m.is_consistent());
    }

    #[test]
    fn gang_rejects_jobs_wider_than_the_pool() {
        let mut cfg = SchedConfig::homogeneous(4, &owner(0.10), vec![JobSpec::at_zero(5, 50.0)]);
        cfg.gang = GangPolicy::SuspendAll;
        assert!(matches!(
            cfg.run(),
            Err(SchedError::InvalidConfig { field: "jobs", .. })
        ));
        // The same job is fine without co-allocation.
        cfg.gang = GangPolicy::Off;
        assert!(cfg.run().is_ok());
        // And bad migrate-all overheads are typed errors.
        cfg.gang = GangPolicy::MigrateAll { overhead: -1.0 };
        assert!(cfg.run().is_err());
    }

    #[test]
    fn gang_replay_is_deterministic() {
        let cfg = gang_config(GangPolicy::SuspendAll);
        let a = cfg.run().unwrap();
        let b = cfg.run().unwrap();
        assert_eq!(a, b, "same seed must replay identically");
        let mut cfg2 = cfg.clone();
        cfg2.replication = 1;
        assert_ne!(a.makespan, cfg2.run().unwrap().makespan);
    }

    #[test]
    fn job_records_track_arrivals() {
        let mut cfg = base_config(EvictionPolicy::SuspendResume);
        cfg.jobs = vec![
            JobSpec {
                tasks: 4,
                task_demand: 50.0,
                arrival: 0.0,
            },
            JobSpec {
                tasks: 4,
                task_demand: 50.0,
                arrival: 200.0,
            },
        ];
        let m = cfg.run().unwrap();
        assert_eq!(m.jobs.len(), 2);
        assert!(m.jobs[0].completion >= 50.0);
        assert!(m.jobs[1].completion >= 250.0);
        assert!(m.jobs[1].response_time() >= 50.0);
        assert_eq!(m.makespan, m.jobs[0].completion.max(m.jobs[1].completion));
        assert!(m.mean_available_machines > 0.0);
        assert!(m.mean_available_machines <= 6.0);
    }

    /// A sorted multi-job workload whose arrival instants (multiples of
    /// 13.7) cannot collide with owner events (continuous exponential
    /// draws), so streamed chunk boundaries never hit an exact-time tie.
    fn streaming_config() -> SchedConfig {
        let jobs: Vec<JobSpec> = (0u32..40)
            .map(|i| JobSpec {
                tasks: 1 + (i % 3),
                task_demand: 20.0 + f64::from(i % 5) * 7.5,
                arrival: f64::from(i) * 13.7,
            })
            .collect();
        let mut cfg = SchedConfig::homogeneous(6, &owner(0.15), jobs);
        cfg.seed = 4242;
        cfg
    }

    #[test]
    fn streamed_run_replays_materialized_byte_for_byte() {
        use crate::feed::SliceFeed;
        // The base config, then one knob varied at a time: every
        // placement policy, every eviction policy, both queue
        // disciplines, and a calibrated estimator start.
        let mut grid = vec![streaming_config()];
        for placement in PlacementKind::ALL {
            let mut cfg = streaming_config();
            cfg.placement = placement;
            grid.push(cfg);
        }
        for eviction in [
            EvictionPolicy::SuspendResume,
            EvictionPolicy::Restart,
            EvictionPolicy::Migrate { overhead: 3.0 },
            EvictionPolicy::Checkpoint {
                interval: 10.0,
                overhead: 0.5,
            },
            EvictionPolicy::Adaptive {
                threshold: 15.0,
                interval: 10.0,
                overhead: 0.5,
            },
        ] {
            let mut cfg = streaming_config();
            cfg.eviction = eviction;
            grid.push(cfg);
        }
        for discipline in [QueueDiscipline::Fcfs, QueueDiscipline::SjfBackfill] {
            let mut cfg = streaming_config();
            cfg.discipline = discipline;
            grid.push(cfg);
        }
        let mut calibrated = streaming_config();
        calibrated.calibration_horizon = 500.0;
        calibrated.admission_threshold = 0.2;
        grid.push(calibrated);

        for (case, cfg) in grid.iter().enumerate() {
            let (want, want_events) = cfg.run_counted().unwrap();
            for chunk in [1usize, 7, 1000] {
                let mut feed = SliceFeed::new(&cfg.jobs);
                let mut records = Vec::new();
                let mut next = 0usize;
                let (mut got, events) = cfg
                    .run_streamed(&mut feed, chunk, &mut |j, r| {
                        assert_eq!(j, next, "records retire in submission order");
                        next += 1;
                        records.push(r);
                    })
                    .unwrap();
                assert!(got.jobs.is_empty(), "streamed metrics carry no job table");
                got.jobs = records;
                assert_eq!(
                    got, want,
                    "case {case}, chunk {chunk} diverged from materialized run"
                );
                assert_eq!(
                    events, want_events,
                    "case {case}, chunk {chunk} executed extra events"
                );
            }
        }
    }

    #[test]
    fn streamed_run_rejects_regressing_feeds_and_bad_specs() {
        use crate::feed::{SliceFeed, VecFeed};
        let cfg = streaming_config();
        // Arrival regression across a chunk boundary is a typed error.
        let jobs = vec![
            JobSpec {
                tasks: 1,
                task_demand: 10.0,
                arrival: 50.0,
            },
            JobSpec {
                tasks: 1,
                task_demand: 10.0,
                arrival: 25.0,
            },
        ];
        for chunk in [1usize, 2] {
            let mut feed = VecFeed::new(jobs.clone());
            let err = cfg
                .run_streamed(&mut feed, chunk, &mut |_, _| {})
                .unwrap_err();
            assert!(
                matches!(err, SchedError::InvalidConfig { field: "feed", .. }),
                "chunk {chunk}: {err}"
            );
        }
        // A bad spec is named by its absolute submission index.
        let mut feed = VecFeed::new(vec![
            JobSpec {
                tasks: 1,
                task_demand: 10.0,
                arrival: 0.0,
            },
            JobSpec {
                tasks: 1,
                task_demand: f64::NAN,
                arrival: 1.0,
            },
        ]);
        match cfg.run_streamed(&mut feed, 8, &mut |_, _| {}).unwrap_err() {
            SchedError::InvalidConfig {
                field: "jobs",
                reason,
            } => assert!(reason.contains("job 1"), "{reason}"),
            other => panic!("unexpected error {other}"),
        }
        // Empty feeds, gang configs, and zero chunks are rejected.
        let mut empty = VecFeed::new(Vec::new());
        assert!(matches!(
            cfg.run_streamed(&mut empty, 8, &mut |_, _| {}).unwrap_err(),
            SchedError::InvalidConfig { field: "feed", .. }
        ));
        let mut gang_cfg = cfg.clone();
        gang_cfg.gang = GangPolicy::SuspendAll;
        assert!(matches!(
            gang_cfg
                .run_streamed(&mut SliceFeed::new(&cfg.jobs), 8, &mut |_, _| {})
                .unwrap_err(),
            SchedError::InvalidConfig { field: "gang", .. }
        ));
        assert!(matches!(
            cfg.run_streamed(&mut SliceFeed::new(&cfg.jobs), 0, &mut |_, _| {})
                .unwrap_err(),
            SchedError::InvalidConfig { field: "chunk", .. }
        ));
    }
}
