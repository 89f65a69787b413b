//! The fluent [`Sim`] builder: one entry point for every experiment.
//!
//! ```
//! use nds_core::sim::{poisson, JobShape, Sim};
//! use nds_cluster::owner::OwnerWorkload;
//! use nds_sched::{EvictionPolicy, PlacementKind};
//!
//! let owner = OwnerWorkload::continuous_exponential(10.0, 0.10).unwrap();
//! let report = Sim::pool(16)
//!     .owners(owner)
//!     .placement(PlacementKind::LeastLoaded)
//!     .eviction(EvictionPolicy::Checkpoint { interval: 30.0, overhead: 1.0 })
//!     .workload(poisson(0.01, JobShape::new(4, 60.0)).jobs(80).warmup(16))
//!     .run()
//!     .unwrap();
//! assert!(report.is_consistent());
//! let ss = report.steady_state.expect("open workloads report steady state");
//! assert!(ss.response.mean > 60.0, "response exceeds dedicated task time");
//! ```
//!
//! # Lowering
//!
//! `run()` lowers the description to one of two engines:
//!
//! * the **cluster runner** ([`nds_cluster::job::JobRunner`]) when the
//!   configuration is *degenerate* — a homogeneous pool, one closed job
//!   with one task per station, suspend-resume eviction, nothing fenced
//!   by admission control. This is the paper's exact model, run at a
//!   fraction of the engine's cost. By the workspace's
//!   degenerate-equivalence invariant it reproduces the scheduler
//!   engine's job times bit-for-bit whenever no owner request lands on
//!   a task's completion instant. Integer-time owners (the paper's) can
//!   land there: the cluster runner then completes the task first and
//!   the engine serves the request first, so the engine's job time is
//!   later by at most one owner burst;
//! * the **scheduler engine** ([`nds_sched`]) for everything else:
//!   multi-job and open workloads, non-trivial eviction/placement,
//!   admission thresholds.
//!
//! [`Backend::Sched`] forces the scheduler engine (the equivalence
//! tests do exactly that); [`Backend::Cluster`] demands the fast path
//! and returns [`SimError::UnsupportedBackend`] if the configuration
//! cannot take it.

use crate::sim::error::SimError;
use crate::sim::report::{Report, ResponseStats, SteadyState};
use crate::sim::workload::Workload;
use crate::sweep::parallel_map;
use nds_cluster::job::JobRunner;
use nds_cluster::owner::OwnerWorkload;
use nds_sched::{
    EvictionPolicy, FailureModel, FlightRecorder, GangPolicy, GangStats, JobRecord, JobSpec,
    PlacementKind, ProgressMeter, QueueDiscipline, RecordFilter, SchedConfig, SchedMetrics, Tee,
};
use nds_stats::batch_means::{PAPER_BATCHES, PAPER_CONFIDENCE};

/// Which engine executes the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Pick automatically: the cluster runner for degenerate closed
    /// configurations, the scheduler engine otherwise. The two differ
    /// only when an owner request lands on a task's completion instant
    /// (integer-time owners): Auto then gives the cluster runner's
    /// completion-first job time, not the engine's.
    #[default]
    Auto,
    /// Force the closed-form cluster runner (errors if the
    /// configuration is not degenerate).
    Cluster,
    /// Force the scheduler engine.
    Sched,
}

impl Backend {
    /// Stable name for error messages and tables.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Auto => "auto",
            Self::Cluster => "cluster",
            Self::Sched => "sched",
        }
    }
}

/// Owner populations accepted by [`SimBuilder::owners`]: one workload
/// shared by the whole pool, or one per machine.
#[derive(Debug, Clone)]
pub enum OwnerSpec {
    /// Every machine shares this owner behaviour.
    Homogeneous(OwnerWorkload),
    /// One owner workload per machine (length must equal the pool
    /// size).
    PerMachine(Vec<OwnerWorkload>),
}

impl From<OwnerWorkload> for OwnerSpec {
    fn from(owner: OwnerWorkload) -> Self {
        Self::Homogeneous(owner)
    }
}

impl From<&OwnerWorkload> for OwnerSpec {
    fn from(owner: &OwnerWorkload) -> Self {
        Self::Homogeneous(owner.clone())
    }
}

impl From<Vec<OwnerWorkload>> for OwnerSpec {
    fn from(owners: Vec<OwnerWorkload>) -> Self {
        Self::PerMachine(owners)
    }
}

impl From<&[OwnerWorkload]> for OwnerSpec {
    fn from(owners: &[OwnerWorkload]) -> Self {
        Self::PerMachine(owners.to_vec())
    }
}

/// A validated, runnable experiment. Build one with [`Sim::pool`].
#[derive(Debug)]
pub struct Sim {
    workstations: u32,
    owners: Vec<OwnerWorkload>,
    homogeneous: bool,
    placement: PlacementKind,
    eviction: EvictionPolicy,
    gang: GangPolicy,
    failures: Option<FailureModel>,
    discipline: QueueDiscipline,
    admission_threshold: f64,
    estimator_tau: f64,
    calibration_horizon: f64,
    seed: u64,
    replications: u64,
    max_events: u64,
    backend: Backend,
    confidence: f64,
    batches: usize,
    shards: usize,
    metrics_every: f64,
    progress_every: Option<f64>,
    trace_cheap: bool,
    trace_capacity: usize,
    trace_filter: Option<RecordFilter>,
    stream_chunk: usize,
    workload: Box<dyn Workload>,
}

/// One traced replication: the run's metrics plus its flight-recorder
/// exports. Produced by [`Sim::run_flight`].
#[derive(Debug)]
pub struct Flight {
    /// Which replication this trace observed.
    pub replication: u64,
    /// The run's aggregate metrics (identical to the untraced run's).
    pub metrics: SchedMetrics,
    /// Calendar events the engine executed.
    pub events: u64,
    /// The finished recorder: event log, metrics registry, profiler.
    pub recorder: FlightRecorder,
}

impl Flight {
    /// The structured event log as JSON Lines.
    pub fn to_jsonl(&self) -> String {
        self.recorder.to_jsonl()
    }

    /// The event log as Chrome trace-event JSON (Perfetto-loadable).
    pub fn to_chrome_json(&self) -> String {
        self.recorder.to_chrome_json()
    }

    /// The sim-time metrics series plus per-machine owner activity.
    pub fn metrics_json(&self) -> String {
        self.recorder.metrics_json()
    }

    /// The per-event-class host-time profile.
    pub fn profile_json(&self) -> String {
        self.recorder.profile_json()
    }
}

impl Sim {
    /// Start describing an experiment on a pool of `workstations`
    /// machines.
    pub fn pool(workstations: u32) -> SimBuilder {
        SimBuilder {
            workstations,
            owners: None,
            placement: PlacementKind::LeastLoaded,
            eviction: EvictionPolicy::SuspendResume,
            gang: GangPolicy::Off,
            failures: None,
            discipline: QueueDiscipline::Fcfs,
            admission_threshold: 1.0,
            estimator_tau: 1_000.0,
            calibration_horizon: 0.0,
            seed: 0x5EED,
            replications: 1,
            max_events: 20_000_000,
            backend: Backend::Auto,
            confidence: PAPER_CONFIDENCE,
            batches: PAPER_BATCHES,
            shards: 1,
            metrics_every: 100.0,
            progress_every: None,
            trace_cheap: false,
            trace_capacity: 0,
            trace_filter: None,
            stream_chunk: 0,
            workload: None,
        }
    }

    /// Human-readable experiment description.
    pub fn label(&self) -> String {
        let gang = if self.gang.is_on() {
            format!(", gang {}", self.gang.label())
        } else {
            String::new()
        };
        let faults = match &self.failures {
            Some(model) => format!(", {}", model.label()),
            None => String::new(),
        };
        format!(
            "W={} pool, {} placement, {} eviction{gang}{faults}, {} queue, {}",
            self.workstations,
            self.placement.name(),
            self.eviction.label(),
            self.discipline.name(),
            self.workload.label()
        )
    }

    /// The configured workload.
    pub fn workload(&self) -> &dyn Workload {
        self.workload.as_ref()
    }

    /// Lower this experiment to the scheduler engine's configuration
    /// for one replication — the escape hatch for callers that need the
    /// raw [`SchedConfig`] (the invariant tests compare it against the
    /// builder's own runs).
    pub fn lower(&self, replication: u64) -> Result<SchedConfig, SimError> {
        let jobs = self.workload.generate(self.seed, replication)?;
        Ok(self.lower_with_jobs(jobs, replication))
    }

    fn lower_with_jobs(&self, jobs: Vec<JobSpec>, replication: u64) -> SchedConfig {
        SchedConfig {
            owners: self.owners.clone(),
            jobs,
            placement: self.placement,
            eviction: self.eviction,
            gang: self.gang,
            failures: self.failures,
            discipline: self.discipline,
            admission_threshold: self.admission_threshold,
            estimator_tau: self.estimator_tau,
            calibration_horizon: self.calibration_horizon,
            seed: self.seed,
            replication,
            max_events: self.max_events,
        }
    }

    /// Whether `jobs` makes this the paper's degenerate configuration,
    /// eligible for the closed-form cluster runner: homogeneous owners,
    /// one job at time zero with exactly one task per station,
    /// suspend-resume eviction, and no admission fencing.
    fn is_degenerate(&self, jobs: &[JobSpec]) -> bool {
        self.homogeneous
            && !self.workload.is_open()
            && jobs.len() == 1
            && jobs[0].arrival == 0.0
            && jobs[0].tasks == self.workstations
            && self.eviction == EvictionPolicy::SuspendResume
            && !self.gang.is_on()
            && self.failures.is_none()
            && self.admission_threshold >= 1.0
    }

    /// Run one replication on the cluster runner and express the
    /// result in the unified metrics vocabulary. Valid only for
    /// degenerate configurations (suspend-resume never wastes work, so
    /// delivered CPU equals the job demand exactly).
    fn run_cluster(&self, jobs: &[JobSpec], replication: u64) -> SchedMetrics {
        let spec = jobs[0];
        let result = JobRunner::new(self.seed).run_continuous_job(
            &self.owners[0],
            spec.task_demand,
            spec.tasks,
            replication,
        );
        let makespan = result.job_time();
        let total_demand = spec.total_demand();
        let interruptions = result.total_interruptions();
        SchedMetrics {
            makespan,
            delivered: total_demand,
            goodput: total_demand,
            wasted: 0.0,
            checkpoint_overhead: 0.0,
            evictions: interruptions,
            suspensions: interruptions,
            restarts: 0,
            migrations: 0,
            completed_tasks: u64::from(spec.tasks),
            total_demand,
            placements: u64::from(spec.tasks),
            mean_queue_wait: 0.0,
            // The closed-form runner has no pool to gauge: every
            // station is pinned to its task for the whole run.
            mean_available_machines: 0.0,
            gang: GangStats::default(),
            jobs: vec![JobRecord {
                arrival: 0.0,
                completion: makespan,
                demand: total_demand,
            }],
            crashes: 0,
            crash_lost: 0.0,
            downtime: 0.0,
            crashes_by_machine: Vec::new(),
        }
    }

    /// Execute one replication on the backend the configuration
    /// resolves to. Returns the run's metrics plus, for streamed runs
    /// only, the post-warmup response times collected at the sink (the
    /// streamed engine does not materialize `metrics.jobs`).
    fn run_one(&self, replication: u64) -> Result<(SchedMetrics, Option<Vec<f64>>), SimError> {
        if self.stream_chunk > 0 {
            return self
                .run_one_streamed(replication)
                .map(|(metrics, responses)| (metrics, Some(responses)));
        }
        self.run_one_materialized(replication)
            .map(|metrics| (metrics, None))
    }

    /// One replication through the streaming job feed: the workload's
    /// [`Workload::feed`] is pulled in `stream_chunk`-sized batches and
    /// completed jobs are retired as soon as they finish, so peak
    /// memory is O(chunk + pool), independent of the job count.
    fn run_one_streamed(&self, replication: u64) -> Result<(SchedMetrics, Vec<f64>), SimError> {
        let cfg = self.lower_with_jobs(Vec::new(), replication);
        let mut feed = self.workload.feed(self.seed, replication)?;
        let warmup = self.workload.warmup_jobs();
        let mut responses = Vec::new();
        let mut sink = |job: usize, record: JobRecord| {
            if job >= warmup {
                responses.push(record.response_time());
            }
        };
        let (metrics, _events) = cfg.run_streamed(feed.as_mut(), self.stream_chunk, &mut sink)?;
        Ok((metrics, responses))
    }

    fn run_one_materialized(&self, replication: u64) -> Result<SchedMetrics, SimError> {
        let jobs = self.workload.generate(self.seed, replication)?;
        let degenerate = self.is_degenerate(&jobs);
        match self.backend {
            Backend::Cluster if !degenerate => Err(SimError::UnsupportedBackend {
                backend: "cluster",
                reason: "the closed-form runner serves only the degenerate \
                         configuration (homogeneous pool, one closed job with \
                         one task per station, suspend-resume eviction, no gang \
                         policy, no failure model, admission threshold >= 1)"
                    .into(),
            }),
            Backend::Cluster => Ok(self.run_cluster(&jobs, replication)),
            Backend::Auto if degenerate => Ok(self.run_cluster(&jobs, replication)),
            Backend::Auto | Backend::Sched => {
                let cfg = self.lower_with_jobs(jobs, replication);
                if let Some(every) = self.progress_every {
                    // The meter is ENABLED, so the engine takes the
                    // traced path — metrics stay bit-identical to the
                    // untraced run (pinned by the trace invariants).
                    let mut meter = self.meter(every, replication, &cfg.jobs);
                    Ok(cfg.run_traced(&mut meter)?.0)
                } else {
                    Ok(cfg.run()?)
                }
            }
        }
    }

    /// A progress heartbeat for one replication, with the workload's
    /// last scheduled arrival as the sim-time horizon (a lower bound
    /// on the makespan — 100% means all jobs are in, drain follows).
    fn meter(&self, every: f64, replication: u64, jobs: &[JobSpec]) -> ProgressMeter {
        let horizon = jobs.iter().map(|j| j.arrival).fold(0.0, f64::max);
        ProgressMeter::new(every)
            .with_label(format!("rep{replication}"))
            .with_horizon(horizon)
    }

    /// Execute every replication and assemble the unified report.
    ///
    /// With [`SimBuilder::shards`] above one, replications fan out
    /// across [`crate::sweep`]'s scoped threads — each replication is an
    /// independent experiment with its own seeded streams and the
    /// results are spliced back in replication order, so the report is
    /// byte-identical to the serial path (the engine itself stays
    /// single-threaded).
    pub fn run(&self) -> Result<Report, SimError> {
        let reps: Vec<u64> = (0..self.replications).collect();
        type RepResult = Result<(SchedMetrics, Option<Vec<f64>>), SimError>;
        let results: Vec<RepResult> = if self.shards > 1 {
            parallel_map(&reps, self.shards, |&replication| self.run_one(replication))
        } else {
            reps.iter().map(|&r| self.run_one(r)).collect()
        };
        let mut runs = Vec::with_capacity(self.replications as usize);
        let mut per_rep: Vec<Vec<f64>> = Vec::with_capacity(self.replications as usize);
        let warmup = self.workload.warmup_jobs();
        for result in results {
            let (metrics, streamed) = result?;
            per_rep.push(match streamed {
                // Streamed runs already dropped warmup at the sink.
                Some(responses) => responses,
                None => metrics
                    .jobs
                    .iter()
                    .skip(warmup)
                    .map(JobRecord::response_time)
                    .collect(),
            });
            runs.push(metrics);
        }
        // Batch means are formed within each replication (no batch ever
        // straddles a replication boundary); `warmup` is dropped from
        // every replication independently.
        let steady_state = if self.workload.is_open() {
            Some(SteadyState::from_replications(
                &per_rep,
                self.batches,
                self.confidence,
                warmup,
            )?)
        } else {
            None
        };
        let responses: Vec<f64> = per_rep.into_iter().flatten().collect();
        Ok(Report {
            label: self.label(),
            workstations: self.workstations,
            response: ResponseStats::from_responses(&responses),
            runs,
            steady_state,
        })
    }

    /// Run every replication under the flight recorder and return one
    /// [`Flight`] per replication, in replication order.
    ///
    /// Tracing always lowers to the scheduler engine — the closed-form
    /// cluster runner has no event loop to observe — so a degenerate
    /// configuration's traced metrics match its untraced run
    /// bit-for-bit (by the workspace's degenerate-equivalence
    /// invariant) unless an integer-time owner's request lands on a
    /// task's completion instant; see [`Backend::Auto`]. Like [`Sim::run`], replications shard across scoped
    /// threads when [`SimBuilder::shards`] exceeds one; the recorder
    /// only ever observes simulation state, so the traces are
    /// byte-identical to the serial path's.
    pub fn run_flight(&self) -> Result<Vec<Flight>, SimError> {
        let trace_one = |&replication: &u64| -> Result<Flight, SimError> {
            let cfg = self.lower(replication)?;
            let machines = self.workstations as usize;
            let mut recorder = if self.trace_cheap {
                FlightRecorder::cheap(machines, self.metrics_every)
            } else {
                FlightRecorder::new(machines, self.metrics_every)
            };
            if let Some(filter) = &self.trace_filter {
                recorder = recorder.with_filter(filter.clone());
            }
            if self.trace_capacity > 0 {
                recorder = recorder.with_capacity(self.trace_capacity);
            }
            let (metrics, events) = if let Some(every) = self.progress_every {
                let meter = self.meter(every, replication, &cfg.jobs);
                let mut tee = Tee(recorder, meter);
                let out = cfg.run_traced(&mut tee)?;
                recorder = tee.0;
                out
            } else {
                cfg.run_traced(&mut recorder)?
            };
            recorder.finish(metrics.makespan);
            Ok(Flight {
                replication,
                metrics,
                events,
                recorder,
            })
        };
        let reps: Vec<u64> = (0..self.replications).collect();
        let results: Vec<Result<Flight, SimError>> = if self.shards > 1 {
            parallel_map(&reps, self.shards, trace_one)
        } else {
            reps.iter().map(trace_one).collect()
        };
        results.into_iter().collect()
    }
}

/// Accumulates an experiment description; `build()` validates it into
/// a [`Sim`]. Every setter is infallible — all errors surface as typed
/// [`SimError`]s at build time, never as panics.
#[derive(Debug)]
pub struct SimBuilder {
    workstations: u32,
    owners: Option<OwnerSpec>,
    placement: PlacementKind,
    eviction: EvictionPolicy,
    gang: GangPolicy,
    failures: Option<FailureModel>,
    discipline: QueueDiscipline,
    admission_threshold: f64,
    estimator_tau: f64,
    calibration_horizon: f64,
    seed: u64,
    replications: u64,
    max_events: u64,
    backend: Backend,
    confidence: f64,
    batches: usize,
    shards: usize,
    metrics_every: f64,
    progress_every: Option<f64>,
    trace_cheap: bool,
    trace_capacity: usize,
    trace_filter: Option<RecordFilter>,
    stream_chunk: usize,
    workload: Option<Box<dyn Workload>>,
}

impl SimBuilder {
    /// Owner population: pass one [`OwnerWorkload`] for a homogeneous
    /// pool or a `Vec` with one workload per machine.
    #[must_use]
    pub fn owners(mut self, owners: impl Into<OwnerSpec>) -> Self {
        self.owners = Some(owners.into());
        self
    }

    /// Task placement policy (default: least-loaded).
    #[must_use]
    pub fn placement(mut self, placement: PlacementKind) -> Self {
        self.placement = placement;
        self
    }

    /// Owner-return policy (default: suspend-resume, the paper's
    /// model).
    #[must_use]
    pub fn eviction(mut self, eviction: EvictionPolicy) -> Self {
        self.eviction = eviction;
        self
    }

    /// Gang scheduling / co-allocation policy (default: off —
    /// independent tasks). When on, jobs are admitted as gangs, run in
    /// lockstep (the paper's barrier-synchronized picture), and the
    /// gang policy supersedes [`SimBuilder::eviction`] on owner
    /// returns. `SuspendAll`/`MigrateAll` are all-or-nothing;
    /// [`GangPolicy::Partial`] admits once its `min_running` floor
    /// fits and keeps computing at a degraded rate while at least the
    /// floor holds owner-free machines — `min_running: 1` behaves like
    /// independent tasks sharing one clock, `min_running: tasks` is
    /// exactly `SuspendAll` (bit-for-bit, per the workspace property
    /// tests). Composes with both closed and open workloads.
    #[must_use]
    pub fn gang(mut self, gang: GangPolicy) -> Self {
        self.gang = gang;
        self
    }

    /// Machine failure injection (default: none). With a
    /// [`FailureModel`], every machine alternates between up intervals
    /// drawn from the model's MTBF lifetime and down intervals drawn
    /// from its MTTR lifetime, on RNG streams independent of the owner
    /// and placement streams — a run without a model is bit-identical
    /// to an engine that has never heard of failures. A crash kills the
    /// running guest regardless of [`SimBuilder::eviction`] (only
    /// checkpointed progress survives, rolled back to the last durable
    /// checkpoint), destroys any suspended-in-place guest's progress,
    /// routes gang members through the gang reclaim path, and removes
    /// the machine from the candidate pool until repair. Failure
    /// injection lowers to the scheduler engine (the closed-form
    /// cluster runner has no machines to crash).
    #[must_use]
    pub fn failures(mut self, model: FailureModel) -> Self {
        self.failures = Some(model);
        self
    }

    /// Central-queue discipline (default: FCFS).
    #[must_use]
    pub fn discipline(mut self, discipline: QueueDiscipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// Maximum estimated owner utilization at which a machine is still
    /// offered to the scheduler (default 1.0 admits every idle
    /// machine).
    #[must_use]
    pub fn admission_threshold(mut self, threshold: f64) -> Self {
        self.admission_threshold = threshold;
        self
    }

    /// Averaging window of the per-machine utilization estimators.
    #[must_use]
    pub fn estimator_tau(mut self, tau: f64) -> Self {
        self.estimator_tau = tau;
        self
    }

    /// Pre-run probe horizon seeding the load estimators (0 disables).
    #[must_use]
    pub fn calibration(mut self, horizon: f64) -> Self {
        self.calibration_horizon = horizon;
        self
    }

    /// Master seed for every stream in the run.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Independent replications to run (default 1).
    #[must_use]
    pub fn replications(mut self, replications: u64) -> Self {
        self.replications = replications;
        self
    }

    /// Safety cap on executed engine events.
    #[must_use]
    pub fn max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }

    /// Force a specific execution engine (default: automatic).
    #[must_use]
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Confidence level of the steady-state interval (default: the
    /// paper's 90%).
    #[must_use]
    pub fn confidence(mut self, confidence: f64) -> Self {
        self.confidence = confidence;
        self
    }

    /// Batch count of the steady-state interval (default: the paper's
    /// 20).
    #[must_use]
    pub fn batches(mut self, batches: usize) -> Self {
        self.batches = batches;
        self
    }

    /// Shard replications across up to this many scoped threads
    /// (default 1 = serial). Sharding happens at the experiment level —
    /// each replication keeps its own seeded streams and the engine
    /// stays single-threaded — so the report is byte-identical to the
    /// serial path.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sim-time interval of the flight recorder's metrics snapshots
    /// (default 100.0). Only [`Sim::run_flight`] reads it — untraced
    /// runs sample nothing.
    #[must_use]
    pub fn metrics_every(mut self, every: f64) -> Self {
        self.metrics_every = every;
        self
    }

    /// Emit a live progress heartbeat on stderr every `every` host
    /// seconds: events handled, events/sec, the sim clock (with % of
    /// the arrival horizon and an ETA when the workload schedules
    /// arrivals), and which event classes moved. Runs lower to the
    /// scheduler engine (the closed-form runner has no event loop to
    /// observe); simulation outputs are bit-identical with or without
    /// the heartbeat.
    #[must_use]
    pub fn progress(mut self, every: f64) -> Self {
        self.progress_every = Some(every);
        self
    }

    /// Trace at the bounded-cost tier: counters and quantile sketches
    /// stay exact, but [`Sim::run_flight`]'s recorder filters the
    /// per-segment record firehose to job/gang lifecycle, throttles
    /// state samples to the metrics grid, and turns the per-event host
    /// clock off (see `FlightRecorder::cheap`).
    #[must_use]
    pub fn trace_cheap(mut self, on: bool) -> Self {
        self.trace_cheap = on;
        self
    }

    /// Bound [`Sim::run_flight`]'s record buffer to a ring of the
    /// newest `capacity` admitted records (0 = unbounded, the
    /// default). Overwrites are counted, never silent.
    #[must_use]
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Replace [`Sim::run_flight`]'s record filter (applied on top of
    /// the tier picked by [`SimBuilder::trace_cheap`]).
    #[must_use]
    pub fn trace_filter(mut self, filter: RecordFilter) -> Self {
        self.trace_filter = Some(filter);
        self
    }

    /// Stream the workload through the engine in chunks of `chunk`
    /// jobs instead of materializing every [`JobSpec`] up front
    /// (default 0 = materialized). The engine pulls the workload's
    /// [`Workload::feed`] lazily and retires each job's record the
    /// moment it completes, so peak memory is O(chunk + pool) — the
    /// path that makes million-job traces tractable. Results are
    /// byte-identical to the materialized run (pinned by the workspace
    /// replay tests), with one caveat: streamed runs deliver per-job
    /// records through the internal sink, so `Report::runs[..].jobs`
    /// stays empty (response statistics and steady state are
    /// unaffected). Streaming requires the scheduler engine and is
    /// incompatible with gang policies and the progress heartbeat;
    /// [`Sim::run_flight`] ignores it and materializes.
    #[must_use]
    pub fn stream_chunk(mut self, chunk: usize) -> Self {
        self.stream_chunk = chunk;
        self
    }

    /// The workload to submit — see [`crate::sim::workload`] for the
    /// closed and open implementations.
    #[must_use]
    pub fn workload(mut self, workload: impl Workload + 'static) -> Self {
        self.workload = Some(Box::new(workload));
        self
    }

    /// Validate the description into a runnable [`Sim`].
    pub fn build(self) -> Result<Sim, SimError> {
        if self.workstations == 0 {
            return Err(SimError::InvalidPool {
                field: "workstations",
                reason: "pool needs at least one machine".into(),
            });
        }
        let (owners, homogeneous) = match self.owners {
            None => {
                return Err(SimError::InvalidPool {
                    field: "owners",
                    reason: "no owner workload configured: call .owners(...)".into(),
                })
            }
            Some(OwnerSpec::Homogeneous(owner)) => (vec![owner; self.workstations as usize], true),
            Some(OwnerSpec::PerMachine(owners)) => {
                if owners.len() != self.workstations as usize {
                    return Err(SimError::InvalidPool {
                        field: "owners",
                        reason: format!(
                            "{} owner workloads for a pool of {}",
                            owners.len(),
                            self.workstations
                        ),
                    });
                }
                (owners, false)
            }
        };
        let workload = self.workload.ok_or(SimError::MissingWorkload)?;
        workload.validate()?;
        self.eviction
            .validate()
            .map_err(|(field, reason)| SimError::InvalidPolicy { field, reason })?;
        self.gang
            .validate()
            .map_err(|(field, reason)| SimError::InvalidPolicy { field, reason })?;
        if let Some(model) = &self.failures {
            model
                .validate()
                .map_err(|(field, reason)| SimError::InvalidPolicy { field, reason })?;
        }
        if self.shards == 0 {
            return Err(SimError::InvalidPool {
                field: "shards",
                reason: "need at least one shard".into(),
            });
        }
        if !(self.admission_threshold.is_finite() && self.admission_threshold > 0.0) {
            return Err(SimError::InvalidPool {
                field: "admission_threshold",
                reason: format!("{} not finite > 0", self.admission_threshold),
            });
        }
        if !(self.estimator_tau.is_finite() && self.estimator_tau > 0.0) {
            return Err(SimError::InvalidPool {
                field: "estimator_tau",
                reason: format!("{} not finite > 0", self.estimator_tau),
            });
        }
        if !(self.calibration_horizon.is_finite() && self.calibration_horizon >= 0.0) {
            return Err(SimError::InvalidPool {
                field: "calibration_horizon",
                reason: format!("{} not finite >= 0", self.calibration_horizon),
            });
        }
        if self.replications == 0 {
            return Err(SimError::InvalidPool {
                field: "replications",
                reason: "need at least one replication".into(),
            });
        }
        if self.max_events == 0 {
            return Err(SimError::InvalidPool {
                field: "max_events",
                reason: "must be positive".into(),
            });
        }
        if !(self.metrics_every.is_finite() && self.metrics_every > 0.0) {
            return Err(SimError::InvalidPool {
                field: "metrics_every",
                reason: format!("{} not finite > 0", self.metrics_every),
            });
        }
        if let Some(every) = self.progress_every {
            if !(every.is_finite() && every > 0.0) {
                return Err(SimError::InvalidPool {
                    field: "progress",
                    reason: format!("{every} not finite > 0"),
                });
            }
        }
        if !(self.confidence > 0.0 && self.confidence < 1.0) {
            return Err(SimError::InvalidWorkload {
                field: "confidence",
                reason: format!("{} not in (0, 1)", self.confidence),
            });
        }
        if workload.is_open() && self.batches < 2 {
            return Err(SimError::InvalidWorkload {
                field: "batches",
                reason: format!(
                    "{} batches cannot form an interval (need >= 2)",
                    self.batches
                ),
            });
        }
        if self.stream_chunk > 0 {
            if self.gang.is_on() {
                return Err(SimError::InvalidPolicy {
                    field: "gang",
                    reason: "gang scheduling needs the whole job set resident and \
                             cannot combine with .stream_chunk(...)"
                        .into(),
                });
            }
            if self.progress_every.is_some() {
                return Err(SimError::InvalidPool {
                    field: "progress",
                    reason: "the progress heartbeat needs a materialized run; drop \
                             .progress(...) or .stream_chunk(...)"
                        .into(),
                });
            }
            if self.backend == Backend::Cluster {
                return Err(SimError::UnsupportedBackend {
                    backend: "cluster",
                    reason: "streamed runs execute on the scheduler engine; drop \
                             .stream_chunk(...) or use Backend::Auto / Backend::Sched"
                        .into(),
                });
            }
        }
        Ok(Sim {
            workstations: self.workstations,
            owners,
            homogeneous,
            placement: self.placement,
            eviction: self.eviction,
            gang: self.gang,
            failures: self.failures,
            discipline: self.discipline,
            admission_threshold: self.admission_threshold,
            estimator_tau: self.estimator_tau,
            calibration_horizon: self.calibration_horizon,
            seed: self.seed,
            replications: self.replications,
            max_events: self.max_events,
            backend: self.backend,
            confidence: self.confidence,
            batches: self.batches,
            shards: self.shards,
            metrics_every: self.metrics_every,
            progress_every: self.progress_every,
            trace_cheap: self.trace_cheap,
            trace_capacity: self.trace_capacity,
            trace_filter: self.trace_filter,
            stream_chunk: self.stream_chunk,
            workload,
        })
    }

    /// Build and run in one call.
    pub fn run(self) -> Result<Report, SimError> {
        self.build()?.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::workload::{closed, poisson, single_job, JobShape};

    fn owner(u: f64) -> OwnerWorkload {
        OwnerWorkload::continuous_exponential(10.0, u).unwrap()
    }

    /// A closed workload that counts its `generate` calls.
    #[derive(Debug)]
    struct CountingWorkload {
        jobs: Vec<JobSpec>,
        calls: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }

    impl Workload for CountingWorkload {
        fn generate(&self, _seed: u64, _replication: u64) -> Result<Vec<JobSpec>, SimError> {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(self.jobs.clone())
        }

        fn label(&self) -> String {
            "counting".into()
        }

        fn validate(&self) -> Result<(), SimError> {
            Ok(())
        }
    }

    #[test]
    fn materialized_runs_generate_each_replication_once() {
        for backend in [Backend::Auto, Backend::Sched] {
            let calls = std::sync::Arc::default();
            let report = Sim::pool(4)
                .owners(owner(0.10))
                .workload(CountingWorkload {
                    jobs: vec![JobSpec::at_zero(2, 30.0), JobSpec::at_zero(3, 20.0)],
                    calls: std::sync::Arc::clone(&calls),
                })
                .replications(3)
                .backend(backend)
                .run()
                .unwrap();
            assert_eq!(report.runs.len(), 3);
            assert_eq!(
                calls.load(std::sync::atomic::Ordering::Relaxed),
                3,
                "{backend:?}: one generate call per replication"
            );
        }
    }

    #[test]
    fn degenerate_auto_matches_forced_sched_engine() {
        let build = |backend| {
            Sim::pool(6)
                .owners(owner(0.10))
                .workload(single_job(6, 250.0))
                .seed(11)
                .backend(backend)
                .run()
                .unwrap()
        };
        let auto = build(Backend::Auto);
        let sched = build(Backend::Sched);
        let cluster = build(Backend::Cluster);
        assert_eq!(auto.mean_makespan(), sched.mean_makespan());
        assert_eq!(auto.mean_makespan(), cluster.mean_makespan());
        assert_eq!(
            auto.runs[0].jobs[0].response_time(),
            sched.runs[0].jobs[0].response_time()
        );
        assert_eq!(auto.runs[0].evictions, sched.runs[0].evictions);
        assert!(auto.is_consistent() && sched.is_consistent());
    }

    #[test]
    fn cluster_backend_rejects_non_degenerate_configs() {
        let base = || Sim::pool(4).owners(owner(0.10)).backend(Backend::Cluster);
        // Two jobs: not degenerate.
        let err = base()
            .workload(closed(vec![
                JobSpec::at_zero(4, 50.0),
                JobSpec::at_zero(4, 50.0),
            ]))
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::UnsupportedBackend { .. }));
        // Restart eviction: not degenerate.
        let err = base()
            .workload(single_job(4, 50.0))
            .eviction(EvictionPolicy::Restart)
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::UnsupportedBackend { .. }));
        // Open workload: not degenerate.
        let err = base()
            .workload(poisson(0.01, JobShape::new(4, 50.0)).jobs(10).warmup(0))
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::UnsupportedBackend { .. }));
    }

    #[test]
    fn open_workload_reports_steady_state() {
        let report = Sim::pool(8)
            .owners(owner(0.05))
            .workload(poisson(0.02, JobShape::new(2, 30.0)).jobs(120).warmup(20))
            .batches(10)
            .seed(3)
            .run()
            .unwrap();
        let ss = report.steady_state.expect("open => steady state");
        assert_eq!(report.response.jobs, 100);
        assert_eq!(ss.warmup_dropped, 20);
        assert_eq!(ss.response.batches, 10);
        assert!(ss.response.mean >= 30.0, "response >= dedicated demand");
        assert!(ss.response.contains(report.response.mean));
        assert!(report.is_consistent());
    }

    #[test]
    fn closed_workload_has_no_steady_state() {
        let report = Sim::pool(4)
            .owners(owner(0.05))
            .workload(closed(vec![JobSpec::at_zero(8, 40.0)]))
            .run()
            .unwrap();
        assert!(report.steady_state.is_none());
        assert_eq!(report.response.jobs, 1);
    }

    #[test]
    fn replications_pool_every_job() {
        let report = Sim::pool(4)
            .owners(owner(0.10))
            .workload(closed(vec![JobSpec::at_zero(4, 60.0)]))
            .replications(3)
            .backend(Backend::Sched)
            .run()
            .unwrap();
        assert_eq!(report.replications(), 3);
        assert_eq!(report.response.jobs, 3);
        assert_ne!(
            report.runs[0].makespan, report.runs[1].makespan,
            "replications must diverge"
        );
    }

    #[test]
    fn build_rejects_bad_pools() {
        let err = Sim::pool(0)
            .owners(owner(0.1))
            .workload(single_job(1, 10.0))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::InvalidPool {
                field: "workstations",
                ..
            }
        ));
        let err = Sim::pool(4)
            .workload(single_job(4, 10.0))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::InvalidPool {
                field: "owners",
                ..
            }
        ));
        let err = Sim::pool(4).owners(owner(0.1)).build().unwrap_err();
        assert!(matches!(err, SimError::MissingWorkload));
        let err = Sim::pool(4)
            .owners(owner(0.1))
            .workload(single_job(4, 10.0))
            .progress(0.0)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::InvalidPool {
                field: "progress",
                ..
            }
        ));
        let err = Sim::pool(4)
            .owners(vec![owner(0.1); 3])
            .workload(single_job(4, 10.0))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::InvalidPool {
                field: "owners",
                ..
            }
        ));
    }

    #[test]
    fn build_rejects_bad_policies_and_knobs() {
        let base = || {
            Sim::pool(4)
                .owners(owner(0.1))
                .workload(single_job(4, 10.0))
        };
        let err = base()
            .eviction(EvictionPolicy::Checkpoint {
                interval: -5.0,
                overhead: 1.0,
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidPolicy { .. }));
        assert!(base().admission_threshold(0.0).build().is_err());
        assert!(base().admission_threshold(f64::NAN).build().is_err());
        assert!(base().estimator_tau(-1.0).build().is_err());
        assert!(base().calibration(f64::INFINITY).build().is_err());
        assert!(base().replications(0).build().is_err());
        assert!(base().max_events(0).build().is_err());
        assert!(base().confidence(1.5).build().is_err());
    }

    #[test]
    fn lower_exposes_the_sched_config() {
        let sim = Sim::pool(5)
            .owners(owner(0.1))
            .workload(single_job(5, 100.0))
            .seed(77)
            .build()
            .unwrap();
        let cfg = sim.lower(2).unwrap();
        assert_eq!(cfg.owners.len(), 5);
        assert_eq!(cfg.seed, 77);
        assert_eq!(cfg.replication, 2);
        assert_eq!(cfg.jobs, vec![JobSpec::at_zero(5, 100.0)]);
        cfg.validate().unwrap();
    }

    #[test]
    fn gang_knob_lowers_and_blocks_the_fast_path() {
        let sim = Sim::pool(4)
            .owners(owner(0.1))
            .gang(GangPolicy::SuspendAll)
            .workload(single_job(4, 100.0))
            .seed(5)
            .build()
            .unwrap();
        assert_eq!(sim.lower(0).unwrap().gang, GangPolicy::SuspendAll);
        assert!(sim.label().contains("gang suspend-all"));
        // A gang policy disqualifies the closed-form cluster runner.
        let err = Sim::pool(4)
            .owners(owner(0.1))
            .gang(GangPolicy::SuspendAll)
            .workload(single_job(4, 100.0))
            .backend(Backend::Cluster)
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::UnsupportedBackend { .. }));
        // Invalid gang parameters are typed errors.
        let err = Sim::pool(4)
            .owners(owner(0.1))
            .gang(GangPolicy::MigrateAll { overhead: -3.0 })
            .workload(single_job(4, 100.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidPolicy { .. }));
    }

    #[test]
    fn partial_gang_knob_lowers_and_validates() {
        let sim = Sim::pool(4)
            .owners(owner(0.1))
            .gang(GangPolicy::Partial { min_running: 2 })
            .workload(single_job(4, 100.0))
            .build()
            .unwrap();
        assert_eq!(
            sim.lower(0).unwrap().gang,
            GangPolicy::Partial { min_running: 2 }
        );
        assert!(
            sim.label().contains("gang partial(min=2)"),
            "{}",
            sim.label()
        );
        // A partial floor wider than any job clamps per job, so jobs
        // wider than the pool are fine as long as the floor fits...
        let report = Sim::pool(4)
            .owners(owner(0.1))
            .gang(GangPolicy::Partial { min_running: 2 })
            .workload(single_job(6, 40.0))
            .run()
            .unwrap();
        assert!(report.is_consistent());
        assert_eq!(report.runs[0].completed_tasks, 6);
        assert_eq!(report.runs[0].gang.floor_violations, 0);
        // ...but invalid floors are typed errors.
        let err = Sim::pool(4)
            .owners(owner(0.1))
            .gang(GangPolicy::Partial { min_running: 0 })
            .workload(single_job(4, 100.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidPolicy { .. }));
        let err = Sim::pool(4)
            .owners(owner(0.1))
            .gang(GangPolicy::PartialFrac {
                min_running_frac: 1.5,
            })
            .workload(single_job(4, 100.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidPolicy { .. }));
    }

    #[test]
    fn gang_runs_conserve_work_and_report_gang_metrics() {
        let report = Sim::pool(6)
            .owners(owner(0.15))
            .gang(GangPolicy::SuspendAll)
            .workload(closed(vec![
                JobSpec::at_zero(4, 60.0),
                JobSpec::at_zero(4, 60.0),
            ]))
            .seed(9)
            .run()
            .unwrap();
        assert!(report.is_consistent());
        let m = &report.runs[0];
        assert_eq!(m.gang.lockstep_violations, 0);
        assert!(m.gang.gang_starts >= 2);
        assert!(
            report.mean_coalloc_wait() > 0.0,
            "two 4-wide gangs on 6 machines must queue"
        );
    }

    #[test]
    fn failures_knob_lowers_validates_and_blocks_the_fast_path() {
        use nds_sched::FailureModel;
        let model = FailureModel::exponential(150.0, 20.0).unwrap();
        let sim = Sim::pool(4)
            .owners(owner(0.1))
            .failures(model)
            .workload(single_job(4, 100.0))
            .build()
            .unwrap();
        assert_eq!(sim.lower(0).unwrap().failures, Some(model));
        assert!(sim.label().contains("mtbf"), "{}", sim.label());
        // A failure model disqualifies the closed-form cluster runner...
        let err = Sim::pool(4)
            .owners(owner(0.1))
            .failures(model)
            .workload(single_job(4, 100.0))
            .backend(Backend::Cluster)
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::UnsupportedBackend { .. }));
        // ...and the auto backend routes to the scheduler engine, which
        // reports the crash-side metrics.
        let report = Sim::pool(4)
            .owners(owner(0.1))
            .failures(FailureModel::exponential(40.0, 5.0).unwrap())
            .workload(single_job(4, 100.0))
            .seed(31)
            .run()
            .unwrap();
        assert!(report.is_consistent());
        assert!(report.runs[0].crashes > 0, "mtbf 40 over a >100s run");
        assert!(report.runs[0].downtime > 0.0);
    }

    #[test]
    fn no_failure_model_is_bit_identical_to_the_pre_failure_engine() {
        // `.failures(...)` absent must leave every sample path exactly
        // where it was: the builder lowers `failures: None` and the
        // engine draws nothing from the failure streams.
        let build = |with_rare_failures: bool| {
            let mut b = Sim::pool(5)
                .owners(owner(0.12))
                .eviction(EvictionPolicy::Restart)
                .workload(closed(vec![JobSpec::at_zero(7, 45.0)]))
                .seed(17)
                .backend(Backend::Sched);
            if with_rare_failures {
                // So rare the horizon never reaches the first crash.
                b = b.failures(nds_sched::FailureModel::exponential(1e12, 1.0).unwrap());
            }
            b.run().unwrap()
        };
        let plain = build(false);
        let rare = build(true);
        assert_eq!(plain.runs[0].makespan, rare.runs[0].makespan);
        assert_eq!(plain.runs[0].delivered, rare.runs[0].delivered);
        assert_eq!(plain.runs[0].evictions, rare.runs[0].evictions);
        assert_eq!(rare.runs[0].crashes, 0);
    }

    #[test]
    fn failure_models_validate_at_the_constructors() {
        use nds_sched::{FailureModel, Lifetime};
        // Bad parameters never reach build(): the stats constructors
        // are the only way to make a Lifetime, and they reject up
        // front. build() re-validates anyway (defense in depth for the
        // non_exhaustive enum) and accepts every constructible model.
        assert!(FailureModel::exponential(0.0, 5.0).is_err());
        assert!(Lifetime::exponential(f64::NAN).is_err());
        let ok = Sim::pool(2)
            .owners(owner(0.1))
            .failures(FailureModel::exponential(100.0, 10.0).unwrap())
            .workload(single_job(2, 10.0))
            .build();
        assert!(ok.is_ok());
    }

    #[test]
    fn sharded_replications_are_byte_identical_to_serial() {
        let build = |shards| {
            Sim::pool(6)
                .owners(owner(0.12))
                .eviction(EvictionPolicy::Migrate { overhead: 2.0 })
                .workload(closed(vec![
                    JobSpec::at_zero(8, 70.0),
                    JobSpec::at_zero(4, 35.0),
                ]))
                .seed(13)
                .replications(6)
                .shards(shards)
                .run()
                .unwrap()
        };
        assert_eq!(build(1), build(4), "sharding must not change the report");
        assert!(Sim::pool(4)
            .owners(owner(0.1))
            .workload(single_job(4, 10.0))
            .shards(0)
            .build()
            .is_err());
    }

    #[test]
    fn streamed_runs_match_materialized_reports() {
        let build = |chunk: usize| {
            let mut b = Sim::pool(8)
                .owners(owner(0.08))
                .workload(poisson(0.02, JobShape::new(2, 30.0)).jobs(120).warmup(20))
                .batches(10)
                .seed(77)
                .replications(2);
            if chunk > 0 {
                b = b.stream_chunk(chunk);
            }
            b.run().unwrap()
        };
        let materialized = build(0);
        for chunk in [1, 7, 1000] {
            let streamed = build(chunk);
            assert_eq!(materialized.response, streamed.response, "chunk {chunk}");
            assert_eq!(materialized.steady_state, streamed.steady_state);
            for (m, s) in materialized.runs.iter().zip(&streamed.runs) {
                assert_eq!(m.makespan, s.makespan);
                assert_eq!(m.evictions, s.evictions);
                assert_eq!(m.delivered, s.delivered);
                assert!(
                    s.jobs.is_empty(),
                    "streamed runs deliver records through the sink only"
                );
            }
        }
    }

    #[test]
    fn trace_workloads_stream_shard_and_replay_identically() {
        let gen = crate::sim::SyntheticTrace::datacenter(12, 400).warmup(40);
        let owners = gen.owners(21, 0).unwrap();
        let build = |shards: usize| {
            Sim::pool(gen.machines())
                .owners(owners.clone())
                .workload(gen)
                .stream_chunk(64)
                .seed(21)
                .replications(4)
                .shards(shards)
                .run()
                .unwrap()
        };
        let serial = build(1);
        assert_eq!(serial, build(4), "sharding must not change the report");
        assert_eq!(serial, build(1), "replay must be byte-identical");
        assert!(serial.steady_state.is_some(), "traces are open workloads");
        assert!(serial.is_consistent());
    }

    #[test]
    fn stream_chunk_rejects_incompatible_knobs() {
        let base = || {
            Sim::pool(4)
                .owners(owner(0.1))
                .workload(poisson(0.05, JobShape::new(2, 20.0)).jobs(40).warmup(4))
                .stream_chunk(8)
        };
        let err = base().gang(GangPolicy::SuspendAll).build().unwrap_err();
        assert!(matches!(err, SimError::InvalidPolicy { field: "gang", .. }));
        let err = base().progress(1.0).build().unwrap_err();
        assert!(matches!(
            err,
            SimError::InvalidPool {
                field: "progress",
                ..
            }
        ));
        let err = base().backend(Backend::Cluster).build().unwrap_err();
        assert!(matches!(err, SimError::UnsupportedBackend { .. }));
        // The compatible configuration builds and runs.
        assert!(base().run().unwrap().is_consistent());
    }

    #[test]
    fn heterogeneous_pools_run_on_the_sched_engine() {
        let owners: Vec<OwnerWorkload> = (0..4)
            .map(|i| owner(if i < 2 { 0.02 } else { 0.30 }))
            .collect();
        let report = Sim::pool(4)
            .owners(owners)
            .workload(single_job(4, 80.0))
            .run()
            .unwrap();
        // Heterogeneous => never the cluster fast path; the pool gauge
        // is only maintained by the scheduler engine.
        assert!(report.runs[0].mean_available_machines > 0.0);
        assert!(report.is_consistent());
    }
}
