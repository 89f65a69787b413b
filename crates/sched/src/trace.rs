//! The scheduler's flight recorder: zero-cost structured tracing,
//! sim-time metrics, and per-event-type wall-clock profiling.
//!
//! # Architecture
//!
//! The simulator's event handlers are generic over [`SchedTracer`]:
//! every emission site is guarded by
//! `if T::ENABLED`, and the zero-sized [`nds_des::NoTrace`] (the
//! default everywhere) sets `ENABLED = false`, so the untraced engine
//! monomorphizes to exactly the pre-tracing hot path — bit-identical
//! outputs, no measurable overhead (pinned by `perf_core --smoke`
//! against `BENCH_core.json`).
//!
//! [`FlightRecorder`] is the everything-on implementation:
//!
//! * a [`SchedRecord`] event log (placements, segments, evictions,
//!   owner activity, gang lifecycle), exportable as JSONL
//!   ([`FlightRecorder::to_jsonl`]) and as Chrome trace-event JSON
//!   loadable in Perfetto ([`FlightRecorder::to_chrome_json`]) — one
//!   track per machine, spans for job segments, instants for
//!   arrivals/reclaims/evictions;
//! * a [`MetricsRegistry`] sampling queue depth, free machines,
//!   running/degraded gangs, and the accounting totals on a fixed
//!   sim-time grid ([`FlightRecorder::metrics_json`]), plus per-machine
//!   owner-reclaim activity;
//! * a [`Profiler`] attributing host (wall-clock) nanoseconds and
//!   counts to each scheduler event type
//!   ([`FlightRecorder::profile_json`]).
//!
//! Records are emitted in event-execution order and carry only
//! simulation state, so two runs of one replication produce
//! byte-identical JSONL regardless of host timing or replication
//! sharding (the workspace's trace determinism test pins this). Host
//! time appears *only* in the profile export.

use nds_des::registry::{json_num, json_str};
use nds_des::{MetricsRegistry, NoTrace, QuantileSketch, SeriesId, SimTime};
use std::fmt::Write as _;

/// Observer of the scheduler engine's event handling. All hooks
/// default to no-ops; [`NoTrace`] additionally sets `ENABLED = false`,
/// which removes the hook sites at monomorphization time.
pub trait SchedTracer {
    /// Guard constant checked at every emission site.
    const ENABLED: bool = true;

    /// A structured scheduling occurrence at sim time `now`.
    #[inline]
    fn record(&mut self, now: f64, record: SchedRecord) {
        let _ = (now, record);
    }

    /// The engine's aggregate state after handling the event at `now`.
    /// Only called when [`SchedTracer::wants_state`] returned `true`
    /// for `now` — gathering the sample walks the gang table, so
    /// cheap-tier tracers throttle it to the metrics grid.
    #[inline]
    fn state(&mut self, now: f64, sample: &StateSample) {
        let _ = (now, sample);
    }

    /// One calendar event of class `class` was handled at sim time
    /// `now`, in `nanos` host nanoseconds (`0` when
    /// [`SchedTracer::profile_enabled`] is `false` — the engine skips
    /// the wall-clock reads entirely).
    #[inline]
    fn handled(&mut self, now: f64, class: EventClass, nanos: u64) {
        let _ = (now, class, nanos);
    }

    /// A per-job scalar observation (response time, queue wait, ...)
    /// at sim time `now`, for bounded-memory quantile sketches.
    #[inline]
    fn observe(&mut self, now: f64, kind: ObsKind, value: f64) {
        let _ = (now, kind, value);
    }

    /// `n` identical observations at once (a gang admitting `n` tasks
    /// reports one wait `n` times). Semantically `n` calls to
    /// [`SchedTracer::observe`] — which is the default — but foldable
    /// in O(1) by sketch-backed tracers.
    #[inline]
    fn observe_n(&mut self, now: f64, kind: ObsKind, value: f64, n: u32) {
        for _ in 0..n {
            self.observe(now, kind, value);
        }
    }

    /// Whether the engine should pay for the two `Instant::now()`
    /// reads per event that feed [`SchedTracer::handled`]'s `nanos`.
    /// At multi-million-events/sec rates the clock alone exceeds the
    /// cheap tier's overhead budget, so bounded-cost tracers say no.
    #[inline]
    fn profile_enabled(&self) -> bool {
        true
    }

    /// Whether this tracer wants a [`StateSample`] at sim time `now`.
    /// Returning `false` skips gathering entirely.
    #[inline]
    fn wants_state(&self, now: f64) -> bool {
        let _ = now;
        true
    }
}

/// Tracing disabled: the scheduler's hot path compiles exactly as if
/// the hooks did not exist.
impl SchedTracer for NoTrace {
    const ENABLED: bool = false;
}

/// The scalar observation streams the engine feeds into quantile
/// sketches via [`SchedTracer::observe`] — one per headline
/// per-job/per-placement latency signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsKind {
    /// Job completion time minus arrival time.
    Response,
    /// Time a task (or admitted gang member) spent queued before
    /// being placed.
    QueueWait,
    /// Response divided by the job's processing demand.
    Slowdown,
    /// Time a gang spent waiting for atomic co-allocation.
    CoallocWait,
}

impl ObsKind {
    /// Every kind, in stable export order.
    pub const ALL: [ObsKind; 4] = [
        Self::Response,
        Self::QueueWait,
        Self::Slowdown,
        Self::CoallocWait,
    ];

    /// Stable snake_case name used as the histogram series name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Response => "response",
            Self::QueueWait => "queue_wait",
            Self::Slowdown => "slowdown",
            Self::CoallocWait => "coalloc_wait",
        }
    }

    fn index(self) -> usize {
        match self {
            Self::Response => 0,
            Self::QueueWait => 1,
            Self::Slowdown => 2,
            Self::CoallocWait => 3,
        }
    }
}

/// The scheduler's event vocabulary, as seen by the profiler — one
/// class per `SchedEvent` variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventClass {
    /// An owner returned to their workstation.
    OwnerArrival,
    /// An owner left their workstation idle.
    OwnerDeparture,
    /// A job reached the central queue.
    JobArrival,
    /// An independent task's segment ran out.
    SegmentEnd,
    /// A gang's job-level segment ran out.
    GangSegmentEnd,
    /// A machine crashed (fault injection).
    MachineFailure,
    /// A crashed machine came back up.
    MachineRepair,
}

impl EventClass {
    /// Every class, in stable export order.
    pub const ALL: [EventClass; 7] = [
        Self::OwnerArrival,
        Self::OwnerDeparture,
        Self::JobArrival,
        Self::SegmentEnd,
        Self::GangSegmentEnd,
        Self::MachineFailure,
        Self::MachineRepair,
    ];

    /// Stable snake_case name used in exports.
    pub fn name(&self) -> &'static str {
        match self {
            Self::OwnerArrival => "owner_arrival",
            Self::OwnerDeparture => "owner_departure",
            Self::JobArrival => "job_arrival",
            Self::SegmentEnd => "segment_end",
            Self::GangSegmentEnd => "gang_segment_end",
            Self::MachineFailure => "machine_failure",
            Self::MachineRepair => "machine_repair",
        }
    }

    fn index(self) -> usize {
        match self {
            Self::OwnerArrival => 0,
            Self::OwnerDeparture => 1,
            Self::JobArrival => 2,
            Self::SegmentEnd => 3,
            Self::GangSegmentEnd => 4,
            Self::MachineFailure => 5,
            Self::MachineRepair => 6,
        }
    }
}

/// What kind of work a guest segment performs (mirrors the simulator's
/// internal segment split).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Migration restore (wasted work by definition).
    Setup,
    /// Real progress.
    Work,
    /// Checkpoint write (overhead).
    CkptWrite,
}

impl SegmentKind {
    /// Stable snake_case name used in exports.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Setup => "setup",
            Self::Work => "work",
            Self::CkptWrite => "ckpt_write",
        }
    }
}

/// How an owner reclaim was resolved for the displaced guest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionAction {
    /// Suspended in place beneath the owner.
    Suspend,
    /// Killed; all progress lost.
    Restart,
    /// Re-queued with a migration setup debt.
    Migrate,
    /// Rolled back to the last checkpoint and re-queued.
    Rollback,
}

impl EvictionAction {
    /// Stable snake_case name used in exports.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Suspend => "suspend",
            Self::Restart => "restart",
            Self::Migrate => "migrate",
            Self::Rollback => "rollback",
        }
    }
}

/// One structured scheduling occurrence. `Copy`, fixed-size — the
/// recorder buffers these raw and renders text only at export time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedRecord {
    /// Job `job` reached the central queue.
    JobArrival { job: u32 },
    /// A task (or gang member `task` of a gang job) was placed on
    /// `machine`.
    TaskPlaced { machine: u32, job: u32, task: u32 },
    /// A segment opened on `machine`, scheduled to run `wall` sim-time
    /// units.
    SegmentStart {
        machine: u32,
        job: u32,
        task: u32,
        kind: SegmentKind,
        wall: f64,
    },
    /// The segment on `machine` ran to completion.
    SegmentEnd {
        machine: u32,
        job: u32,
        task: u32,
        kind: SegmentKind,
    },
    /// The segment on `machine` was cut short (owner reclaim, gang
    /// rate change).
    SegmentPreempted {
        machine: u32,
        job: u32,
        task: u32,
        kind: SegmentKind,
    },
    /// Task `task` of `job` finished on `machine`.
    TaskCompleted { machine: u32, job: u32, task: u32 },
    /// Every task of `job` finished.
    JobCompleted { job: u32 },
    /// The owner of `machine` returned.
    OwnerArrival { machine: u32 },
    /// The owner of `machine` left again.
    OwnerDeparture { machine: u32 },
    /// The owner's return displaced the guest on `machine`, resolved
    /// by `action`.
    Eviction {
        machine: u32,
        job: u32,
        task: u32,
        action: EvictionAction,
    },
    /// Gang `job` was co-allocated onto `members` machines.
    GangAdmitted { job: u32, members: u32 },
    /// Gang `job` dropped below its floor and froze in place.
    GangSuspended { job: u32 },
    /// Gang `job` was migrated back to the co-allocation queue.
    GangMigrated { job: u32 },
    /// `machine` crashed: its guest (running or suspended) loses
    /// progress per the crash semantics and the machine leaves the
    /// pool until repair.
    MachineFailure { machine: u32 },
    /// `machine` was repaired and rejoined the pool.
    MachineRepair { machine: u32 },
}

impl SchedRecord {
    /// Number of record classes (variants).
    pub const COUNT: usize = 15;

    /// Class index of [`SchedRecord::OwnerArrival`], for mask math.
    pub const OWNER_ARRIVAL_INDEX: usize = 7;

    /// Class index of [`SchedRecord::Eviction`], for mask math.
    pub const EVICTION_INDEX: usize = 9;

    /// This record's class index, in declaration order — the position
    /// of its [`SchedRecord::kind_name`] in [`RecordFilter::KINDS`].
    #[inline]
    pub fn class_index(&self) -> usize {
        match self {
            Self::JobArrival { .. } => 0,
            Self::TaskPlaced { .. } => 1,
            Self::SegmentStart { .. } => 2,
            Self::SegmentEnd { .. } => 3,
            Self::SegmentPreempted { .. } => 4,
            Self::TaskCompleted { .. } => 5,
            Self::JobCompleted { .. } => 6,
            Self::OwnerArrival { .. } => 7,
            Self::OwnerDeparture { .. } => 8,
            Self::Eviction { .. } => 9,
            Self::GangAdmitted { .. } => 10,
            Self::GangSuspended { .. } => 11,
            Self::GangMigrated { .. } => 12,
            Self::MachineFailure { .. } => 13,
            Self::MachineRepair { .. } => 14,
        }
    }

    /// Stable snake_case name of the record type.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Self::JobArrival { .. } => "job_arrival",
            Self::TaskPlaced { .. } => "task_placed",
            Self::SegmentStart { .. } => "segment_start",
            Self::SegmentEnd { .. } => "segment_end",
            Self::SegmentPreempted { .. } => "segment_preempted",
            Self::TaskCompleted { .. } => "task_completed",
            Self::JobCompleted { .. } => "job_completed",
            Self::OwnerArrival { .. } => "owner_arrival",
            Self::OwnerDeparture { .. } => "owner_departure",
            Self::Eviction { .. } => "eviction",
            Self::GangAdmitted { .. } => "gang_admitted",
            Self::GangSuspended { .. } => "gang_suspended",
            Self::GangMigrated { .. } => "gang_migrated",
            Self::MachineFailure { .. } => "machine_failure",
            Self::MachineRepair { .. } => "machine_repair",
        }
    }
}

/// Which [`SchedRecord`] classes a recorder keeps, plus deterministic
/// 1-in-N sampling. Admission is keyed on a per-class sequence number
/// — never on RNG or host state — so two runs of one replication admit
/// exactly the same records and filtered traces stay byte-identical
/// across hosts and sharding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordFilter {
    /// Bit `i` set ⇔ class `i` (declaration order) is kept.
    mask: u16,
    /// Keep every `every`-th admitted-class record (1 = keep all).
    every: u32,
    /// Per-class occurrence counters driving the 1-in-N sampling.
    seq: [u32; SchedRecord::COUNT],
}

impl RecordFilter {
    /// Every record class's stable snake_case name, in declaration
    /// order — index `i` names class `i` of
    /// [`SchedRecord::class_index`]. The nds-lint `event-coverage`
    /// rule cross-checks this array against the `SchedRecord` enum, so
    /// adding a variant without extending the filter fails CI.
    pub const KINDS: [&'static str; SchedRecord::COUNT] = [
        "job_arrival",
        "task_placed",
        "segment_start",
        "segment_end",
        "segment_preempted",
        "task_completed",
        "job_completed",
        "owner_arrival",
        "owner_departure",
        "eviction",
        "gang_admitted",
        "gang_suspended",
        "gang_migrated",
        "machine_failure",
        "machine_repair",
    ];

    /// Keep every record of every class.
    pub fn all() -> Self {
        Self {
            mask: (1 << SchedRecord::COUNT) - 1,
            every: 1,
            seq: [0; SchedRecord::COUNT],
        }
    }

    /// Drop every record.
    pub fn none() -> Self {
        Self {
            mask: 0,
            ..Self::all()
        }
    }

    /// The cheap tier's default: job- and gang-lifecycle records plus
    /// evictions and machine failure/repair, with the per-segment
    /// firehose (placements, segment start/end/preempt, task
    /// completions, owner activity) dropped.
    pub fn cheap() -> Self {
        Self::none().with(&[
            "job_arrival",
            "job_completed",
            "eviction",
            "gang_admitted",
            "gang_suspended",
            "gang_migrated",
            "machine_failure",
            "machine_repair",
        ])
    }

    /// Additionally keep the named classes.
    ///
    /// # Panics
    ///
    /// If a name is not one of [`RecordFilter::KINDS`].
    #[must_use]
    pub fn with(mut self, kinds: &[&str]) -> Self {
        for kind in kinds {
            self.mask |= 1 << Self::index_of(kind);
        }
        self
    }

    /// Drop the named classes.
    ///
    /// # Panics
    ///
    /// If a name is not one of [`RecordFilter::KINDS`].
    #[must_use]
    pub fn without(mut self, kinds: &[&str]) -> Self {
        for kind in kinds {
            self.mask &= !(1 << Self::index_of(kind));
        }
        self
    }

    /// Keep only every `n`-th record of each admitted class (the
    /// first, the `n+1`-th, ... — counted per class).
    ///
    /// # Panics
    ///
    /// If `n` is zero.
    #[must_use]
    pub fn sample_every(mut self, n: u32) -> Self {
        assert!(n > 0, "sampling period must be at least 1, got {n}");
        self.every = n;
        self
    }

    /// Whether records of the named class are currently kept.
    ///
    /// # Panics
    ///
    /// If the name is not one of [`RecordFilter::KINDS`].
    pub fn keeps(&self, kind: &str) -> bool {
        self.mask & (1 << Self::index_of(kind)) != 0
    }

    /// Admit or drop `record`, advancing the per-class sequence. The
    /// sequence counts every *offered* record of an admitted class, so
    /// admission depends only on the record stream itself.
    pub fn admit(&mut self, record: &SchedRecord) -> bool {
        let i = record.class_index();
        if self.mask & (1 << i) == 0 {
            return false;
        }
        let s = self.seq[i];
        self.seq[i] = s.wrapping_add(1);
        s.is_multiple_of(self.every)
    }

    fn index_of(kind: &str) -> usize {
        Self::KINDS
            .iter()
            .position(|k| *k == kind)
            .unwrap_or_else(|| panic!("unknown SchedRecord class `{kind}`"))
    }
}

impl Default for RecordFilter {
    fn default() -> Self {
        Self::all()
    }
}

/// The engine's aggregate state, gathered after each handled event
/// (only when tracing is enabled — gathering walks the gang table).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StateSample {
    /// Tasks waiting in the central queue plus gangs waiting for
    /// co-allocation.
    pub queue_depth: u32,
    /// Machines currently idle, unoccupied, and admitted.
    pub free_machines: u32,
    /// Gangs currently in their running phase.
    pub running_gangs: u32,
    /// Running gangs below their full width (degraded rate).
    pub degraded_gangs: u32,
    /// Events pending in the calendar (live horizon).
    pub pending_events: u32,
    /// CPU time granted to guest work so far.
    pub delivered: f64,
    /// CPU time that became completed-task progress so far.
    pub goodput: f64,
    /// CPU time destroyed (evictions, migration setup) so far.
    pub wasted: f64,
}

/// Number of [`EventClass`] variants, sizing the per-class arrays.
const N_CLASSES: usize = EventClass::ALL.len();

/// Host-time attribution per scheduler event class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Profiler {
    counts: [u64; N_CLASSES],
    nanos: [u64; N_CLASSES],
    mins: [u64; N_CLASSES],
    maxs: [u64; N_CLASSES],
}

impl Default for Profiler {
    fn default() -> Self {
        Self {
            counts: [0; N_CLASSES],
            nanos: [0; N_CLASSES],
            mins: [u64::MAX; N_CLASSES],
            maxs: [0; N_CLASSES],
        }
    }
}

impl Profiler {
    /// Record one handled event.
    #[inline]
    pub fn observe(&mut self, class: EventClass, nanos: u64) {
        let i = class.index();
        self.counts[i] += 1;
        self.nanos[i] += nanos;
        if nanos < self.mins[i] {
            self.mins[i] = nanos;
        }
        if nanos > self.maxs[i] {
            self.maxs[i] = nanos;
        }
    }

    /// Events handled of `class`.
    pub fn count(&self, class: EventClass) -> u64 {
        self.counts[class.index()]
    }

    /// Host nanoseconds attributed to `class`.
    pub fn nanos(&self, class: EventClass) -> u64 {
        self.nanos[class.index()]
    }

    /// Fastest single handling of `class`, if any was observed.
    pub fn min_ns(&self, class: EventClass) -> Option<u64> {
        (self.counts[class.index()] > 0).then(|| self.mins[class.index()])
    }

    /// Slowest single handling of `class`, if any was observed.
    pub fn max_ns(&self, class: EventClass) -> Option<u64> {
        (self.counts[class.index()] > 0).then(|| self.maxs[class.index()])
    }

    /// Total events handled.
    pub fn total_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total attributed host nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Render as one JSON object (count, total nanos, and
    /// mean/min/max ns per event for each class; min/max are `null`
    /// for classes never observed).
    pub fn to_json(&self) -> String {
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |n| n.to_string());
        let mut out = String::from("{\"by_event\":[");
        for (i, class) in EventClass::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let count = self.count(*class);
            let nanos = self.nanos(*class);
            let mean = if count == 0 {
                0.0
            } else {
                nanos as f64 / count as f64
            };
            let _ = write!(
                out,
                "{{\"class\":\"{}\",\"count\":{count},\"nanos\":{nanos},\"mean_ns\":{},\
                 \"min_ns\":{},\"max_ns\":{}}}",
                class.name(),
                json_num(mean),
                opt(self.min_ns(*class)),
                opt(self.max_ns(*class)),
            );
        }
        let _ = write!(
            out,
            "],\"total_count\":{},\"total_nanos\":{}}}",
            self.total_count(),
            self.total_nanos()
        );
        out
    }
}

/// The everything-on [`SchedTracer`]: buffers every [`SchedRecord`],
/// samples a [`MetricsRegistry`], tallies per-machine owner activity,
/// and profiles host time per event class. One recorder observes one
/// replication.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    events: Vec<(f64, SchedRecord)>,
    registry: MetricsRegistry,
    s_queue: SeriesId,
    s_free: SeriesId,
    s_running: SeriesId,
    s_degraded: SeriesId,
    s_pending: SeriesId,
    s_goodput: SeriesId,
    s_wasted: SeriesId,
    /// Histogram series indexed by [`ObsKind::index`].
    s_obs: [SeriesId; 4],
    owner_arrivals: Vec<u64>,
    evictions: Vec<u64>,
    profiler: Profiler,
    last: Option<StateSample>,
    machines: usize,
    /// Optional user-facing machine labels for the Chrome export
    /// (escaped at render time; hostile names stay valid JSON).
    machine_names: Option<Vec<String>>,
    filter: RecordFilter,
    /// Record-buffer capacity: 0 = unbounded, else a ring keeping the
    /// newest `capacity` admitted records.
    capacity: usize,
    /// Ring write position (index of the oldest record when full).
    head: usize,
    /// Admitted records overwritten by the ring.
    overwritten: u64,
    /// Whether the engine should feed the host-time profiler.
    profile: bool,
    /// Whether state samples are throttled to the metrics grid.
    grid_state: bool,
    /// Next sim time at which a throttled state sample is due.
    next_state: f64,
}

impl FlightRecorder {
    /// Classes tallied per machine even when the filter drops them
    /// from the log: owner arrivals (bit 7) and evictions (bit 9).
    const TALLY_MASK: u16 =
        (1 << SchedRecord::OWNER_ARRIVAL_INDEX) | (1 << SchedRecord::EVICTION_INDEX);

    /// The filtered-in (or tallied) remainder of
    /// [`SchedTracer::record`], out of line to keep the hot reject
    /// path a single test.
    fn record_slow(&mut self, now: f64, record: SchedRecord) {
        // Per-machine tallies count every occurrence, before any
        // filtering — dropping a record from the log never skews the
        // aggregate counters.
        match record {
            SchedRecord::OwnerArrival { machine } => {
                self.owner_arrivals[machine as usize] += 1;
            }
            SchedRecord::Eviction { machine, .. } => {
                self.evictions[machine as usize] += 1;
            }
            _ => {}
        }
        if !self.filter.admit(&record) {
            return;
        }
        if self.capacity != 0 && self.events.len() == self.capacity {
            self.events[self.head] = (now, record);
            self.head = (self.head + 1) % self.capacity;
            self.overwritten += 1;
        } else {
            self.events.push((now, record));
        }
    }

    /// A recorder for a pool of `machines`, snapshotting its metrics
    /// every `metrics_every` sim-time units. Full fidelity: every
    /// record kept unbounded, state sampled after every event, and
    /// the host-time profiler on.
    pub fn new(machines: usize, metrics_every: f64) -> Self {
        let mut registry = MetricsRegistry::new(metrics_every);
        let s_queue = registry.gauge("queue_depth");
        let s_free = registry.gauge("free_machines");
        let s_running = registry.gauge("running_gangs");
        let s_degraded = registry.gauge("degraded_gangs");
        let s_pending = registry.gauge("pending_events");
        let s_goodput = registry.counter("goodput");
        let s_wasted = registry.counter("wasted");
        let s_obs = ObsKind::ALL.map(|k| registry.histogram(k.name()));
        Self {
            events: Vec::new(),
            registry,
            s_queue,
            s_free,
            s_running,
            s_degraded,
            s_pending,
            s_goodput,
            s_wasted,
            s_obs,
            owner_arrivals: vec![0; machines],
            evictions: vec![0; machines],
            profiler: Profiler::default(),
            last: None,
            machines,
            machine_names: None,
            filter: RecordFilter::all(),
            capacity: 0,
            head: 0,
            overwritten: 0,
            profile: true,
            grid_state: false,
            next_state: 0.0,
        }
    }

    /// The bounded-cost tier: counters and sketches stay exact, but
    /// the per-segment record firehose is filtered to job/gang
    /// lifecycle ([`RecordFilter::cheap`]), state samples are
    /// throttled to the metrics grid, and the per-event host clock is
    /// off — suitable for runs too big to trace at full fidelity.
    pub fn cheap(machines: usize, metrics_every: f64) -> Self {
        Self::new(machines, metrics_every)
            .with_filter(RecordFilter::cheap())
            .with_profile(false)
            .with_state_on_grid(true)
    }

    /// Replace the record filter.
    #[must_use]
    pub fn with_filter(mut self, filter: RecordFilter) -> Self {
        self.filter = filter;
        self
    }

    /// Bound the record buffer to a ring of the newest `capacity`
    /// admitted records (0 = unbounded). Overwritten records are
    /// counted in [`FlightRecorder::overwritten`] — the cap is never
    /// silent.
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Turn the per-event host-time profiler on or off. Off also
    /// removes the engine's two `Instant::now()` reads per event.
    #[must_use]
    pub fn with_profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// Throttle state samples to the metrics grid instead of sampling
    /// after every event (the gridded series then hold the state at
    /// the first event at-or-after each tick rather than every
    /// intermediate change; summary extrema are correspondingly
    /// coarser).
    #[must_use]
    pub fn with_state_on_grid(mut self, on: bool) -> Self {
        self.grid_state = on;
        self
    }

    /// Label machines in the Chrome export (defaults to
    /// `machine {i}`). Names are JSON-escaped at render time.
    #[must_use]
    pub fn with_machine_names(mut self, names: Vec<String>) -> Self {
        self.machine_names = Some(names);
        self
    }

    /// Close the metrics grid at the run's makespan and rotate the
    /// ring so [`FlightRecorder::events`] is chronological. Call once
    /// after the run; exports taken before this miss the trailing
    /// snapshots.
    pub fn finish(&mut self, makespan: f64) {
        self.registry.finish(SimTime::new(makespan.max(0.0)));
        self.events.rotate_left(self.head);
        self.head = 0;
    }

    /// The buffered records, in event-execution order (for a bounded
    /// recorder, the newest `capacity` admitted records; chronological
    /// after [`FlightRecorder::finish`]).
    pub fn events(&self) -> &[(f64, SchedRecord)] {
        &self.events
    }

    /// The buffered records in chronological order regardless of ring
    /// rotation.
    fn events_in_order(&self) -> impl Iterator<Item = &(f64, SchedRecord)> {
        self.events[self.head..]
            .iter()
            .chain(self.events[..self.head].iter())
    }

    /// Admitted records overwritten by the bounded ring (0 when
    /// unbounded or never full).
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// The record filter in effect.
    pub fn filter(&self) -> &RecordFilter {
        &self.filter
    }

    /// The quantile sketch behind observation stream `kind`.
    pub fn sketch(&self, kind: ObsKind) -> &QuantileSketch {
        self.registry
            .sketch(self.s_obs[kind.index()])
            .expect("invariant: observation series are histograms")
    }

    /// The metrics registry (grid samples + time-weighted summaries).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The host-time profiler.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// The last state sample observed (the engine's closing state),
    /// or `None` if no event was handled. Its accounting totals
    /// reconcile exactly with the run's `SchedMetrics`.
    pub fn final_sample(&self) -> Option<&StateSample> {
        self.last.as_ref()
    }

    /// Owner arrivals observed per machine.
    pub fn owner_arrivals(&self) -> &[u64] {
        &self.owner_arrivals
    }

    /// Guest-displacing reclaims observed per machine.
    pub fn evictions_by_machine(&self) -> &[u64] {
        &self.evictions
    }

    /// Render the record log as JSON Lines: one object per record,
    /// `{"t":...,"type":...,...}`, in event-execution order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 64);
        for (t, rec) in self.events_in_order() {
            render_record_json(&mut out, *t, rec);
            out.push('\n');
        }
        out
    }

    /// Render the record log as Chrome trace-event JSON (the
    /// `{"traceEvents": [...]}` format Perfetto and `chrome://tracing`
    /// load): one named track per machine, `B`/`E` spans for guest
    /// segments, instants for arrivals, owner activity, evictions, and
    /// gang lifecycle. Timestamps are sim time scaled to microseconds.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut push = |s: &str, out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push_str(s);
        };
        // Track names: one thread per machine plus a scheduler track.
        // Labels go through json_str so hostile names (quotes,
        // backslashes, control characters) cannot break the export.
        for m in 0..self.machines {
            let label = match &self.machine_names {
                Some(names) if m < names.len() => json_str(&names[m]),
                _ => json_str(&format!("machine {m}")),
            };
            push(
                &format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{m},\
                     \"args\":{{\"name\":{label}}}}}"
                ),
                &mut out,
            );
        }
        let sched_tid = self.machines;
        push(
            &format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{sched_tid},\
                 \"args\":{{\"name\":\"scheduler\"}}}}"
            ),
            &mut out,
        );
        for (t, rec) in self.events_in_order() {
            let ts = json_num(t * 1e6);
            let ev = match *rec {
                SchedRecord::SegmentStart {
                    machine,
                    job,
                    task,
                    kind,
                    wall,
                } => format!(
                    "{{\"name\":\"{}\",\"cat\":\"segment\",\"ph\":\"B\",\"ts\":{ts},\
                     \"pid\":0,\"tid\":{machine},\"args\":{{\"job\":{job},\"task\":{task},\
                     \"wall\":{}}}}}",
                    kind.name(),
                    json_num(wall)
                ),
                SchedRecord::SegmentEnd { machine, kind, .. }
                | SchedRecord::SegmentPreempted { machine, kind, .. } => format!(
                    "{{\"name\":\"{}\",\"cat\":\"segment\",\"ph\":\"E\",\"ts\":{ts},\
                     \"pid\":0,\"tid\":{machine}}}",
                    kind.name()
                ),
                SchedRecord::TaskCompleted { machine, job, task } => format!(
                    "{{\"name\":\"task_completed\",\"cat\":\"task\",\"ph\":\"i\",\"ts\":{ts},\
                     \"pid\":0,\"tid\":{machine},\"s\":\"t\",\
                     \"args\":{{\"job\":{job},\"task\":{task}}}}}"
                ),
                SchedRecord::OwnerArrival { machine } => format!(
                    "{{\"name\":\"owner_arrival\",\"cat\":\"owner\",\"ph\":\"i\",\"ts\":{ts},\
                     \"pid\":0,\"tid\":{machine},\"s\":\"t\"}}"
                ),
                SchedRecord::OwnerDeparture { machine } => format!(
                    "{{\"name\":\"owner_departure\",\"cat\":\"owner\",\"ph\":\"i\",\"ts\":{ts},\
                     \"pid\":0,\"tid\":{machine},\"s\":\"t\"}}"
                ),
                SchedRecord::Eviction {
                    machine,
                    job,
                    task,
                    action,
                } => format!(
                    "{{\"name\":\"eviction_{}\",\"cat\":\"eviction\",\"ph\":\"i\",\"ts\":{ts},\
                     \"pid\":0,\"tid\":{machine},\"s\":\"t\",\
                     \"args\":{{\"job\":{job},\"task\":{task}}}}}",
                    action.name()
                ),
                SchedRecord::TaskPlaced { machine, job, task } => format!(
                    "{{\"name\":\"task_placed\",\"cat\":\"placement\",\"ph\":\"i\",\"ts\":{ts},\
                     \"pid\":0,\"tid\":{machine},\"s\":\"t\",\
                     \"args\":{{\"job\":{job},\"task\":{task}}}}}"
                ),
                SchedRecord::JobArrival { job } => format!(
                    "{{\"name\":\"job_arrival\",\"cat\":\"job\",\"ph\":\"i\",\"ts\":{ts},\
                     \"pid\":0,\"tid\":{sched_tid},\"s\":\"t\",\"args\":{{\"job\":{job}}}}}"
                ),
                SchedRecord::JobCompleted { job } => format!(
                    "{{\"name\":\"job_completed\",\"cat\":\"job\",\"ph\":\"i\",\"ts\":{ts},\
                     \"pid\":0,\"tid\":{sched_tid},\"s\":\"t\",\"args\":{{\"job\":{job}}}}}"
                ),
                SchedRecord::GangAdmitted { job, members } => format!(
                    "{{\"name\":\"gang_admitted\",\"cat\":\"gang\",\"ph\":\"i\",\"ts\":{ts},\
                     \"pid\":0,\"tid\":{sched_tid},\"s\":\"t\",\
                     \"args\":{{\"job\":{job},\"members\":{members}}}}}"
                ),
                SchedRecord::GangSuspended { job } => format!(
                    "{{\"name\":\"gang_suspended\",\"cat\":\"gang\",\"ph\":\"i\",\"ts\":{ts},\
                     \"pid\":0,\"tid\":{sched_tid},\"s\":\"t\",\"args\":{{\"job\":{job}}}}}"
                ),
                SchedRecord::GangMigrated { job } => format!(
                    "{{\"name\":\"gang_migrated\",\"cat\":\"gang\",\"ph\":\"i\",\"ts\":{ts},\
                     \"pid\":0,\"tid\":{sched_tid},\"s\":\"t\",\"args\":{{\"job\":{job}}}}}"
                ),
                SchedRecord::MachineFailure { machine } => format!(
                    "{{\"name\":\"machine_failure\",\"cat\":\"failure\",\"ph\":\"i\",\"ts\":{ts},\
                     \"pid\":0,\"tid\":{machine},\"s\":\"t\"}}"
                ),
                SchedRecord::MachineRepair { machine } => format!(
                    "{{\"name\":\"machine_repair\",\"cat\":\"failure\",\"ph\":\"i\",\"ts\":{ts},\
                     \"pid\":0,\"tid\":{machine},\"s\":\"t\"}}"
                ),
            };
            push(&ev, &mut out);
        }
        out.push_str("]}");
        out
    }

    /// Render the metrics registry plus per-machine owner activity as
    /// one JSON object.
    pub fn metrics_json(&self) -> String {
        let mut out = String::from("{\"registry\":");
        out.push_str(&self.registry.to_json());
        out.push_str(",\"per_machine\":{\"owner_arrivals\":[");
        for (i, v) in self.owner_arrivals.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v}");
        }
        out.push_str("],\"evictions\":[");
        for (i, v) in self.evictions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v}");
        }
        out.push_str("]}");
        // The ring's cap is never silent: the export says how many
        // admitted records it overwrote.
        let _ = write!(out, ",\"records_overwritten\":{}", self.overwritten);
        out.push('}');
        out
    }

    /// Render the host-time profile as one JSON object.
    pub fn profile_json(&self) -> String {
        self.profiler.to_json()
    }
}

impl SchedTracer for FlightRecorder {
    #[inline(always)]
    fn record(&mut self, now: f64, record: SchedRecord) {
        // Fast reject: with a narrowed filter (the cheap tier) most
        // offered records are dropped, and a dropped record of a
        // non-tallied class needs nothing beyond this one mask test —
        // at a monomorphized call site the class index is a constant,
        // so the whole call folds to load-test-branch.
        if (self.filter.mask | Self::TALLY_MASK) & (1 << record.class_index()) == 0 {
            return;
        }
        self.record_slow(now, record);
    }

    #[inline]
    fn state(&mut self, now: f64, sample: &StateSample) {
        let t = SimTime::new(now);
        self.registry
            .set(t, self.s_queue, f64::from(sample.queue_depth));
        self.registry
            .set(t, self.s_free, f64::from(sample.free_machines));
        self.registry
            .set(t, self.s_running, f64::from(sample.running_gangs));
        self.registry
            .set(t, self.s_degraded, f64::from(sample.degraded_gangs));
        self.registry
            .set(t, self.s_pending, f64::from(sample.pending_events));
        self.registry.set(t, self.s_goodput, sample.goodput);
        self.registry.set(t, self.s_wasted, sample.wasted);
        self.last = Some(*sample);
        if self.grid_state {
            // Next sample is due at the first grid tick after `now`.
            let every = self.registry.every();
            while self.next_state <= now {
                self.next_state += every;
            }
        }
    }

    #[inline]
    fn handled(&mut self, now: f64, class: EventClass, nanos: u64) {
        let _ = now;
        if self.profile {
            self.profiler.observe(class, nanos);
        }
    }

    #[inline]
    fn observe(&mut self, now: f64, kind: ObsKind, value: f64) {
        self.registry
            .observe(SimTime::new(now), self.s_obs[kind.index()], value);
    }

    #[inline]
    fn observe_n(&mut self, now: f64, kind: ObsKind, value: f64, n: u32) {
        self.registry
            .observe_n(SimTime::new(now), self.s_obs[kind.index()], value, n);
    }

    #[inline]
    fn profile_enabled(&self) -> bool {
        self.profile
    }

    #[inline]
    fn wants_state(&self, now: f64) -> bool {
        !self.grid_state || now >= self.next_state
    }
}

/// An opt-in stderr heartbeat for long runs: every `every` host
/// seconds it prints events handled, events/sec, the sim-time clock
/// (with % of horizon and an ETA when a horizon is known), and which
/// event classes moved since the last beat.
///
/// The meter is a pure consumer of the sanctioned profiler clock — it
/// never reads wall time itself, only accumulates the `nanos` the
/// engine already attributes per event — so composing it (via
/// [`Tee`]) with a recorder whose profiler is off simply turns the
/// clock back on; it adds no second timing source. Sim outputs are
/// untouched: the meter writes to stderr only.
#[derive(Debug, Clone)]
pub struct ProgressMeter {
    /// Beat period, in host nanoseconds.
    every_nanos: u64,
    /// Sim-time horizon for % / ETA, when known (e.g. the last
    /// scheduled arrival).
    horizon: Option<f64>,
    /// Prefix distinguishing replications in sharded runs.
    label: String,
    total_nanos: u64,
    total_events: u64,
    counts: [u64; N_CLASSES],
    last_nanos: u64,
    last_events: u64,
    last_counts: [u64; N_CLASSES],
}

impl ProgressMeter {
    /// A meter beating every `every` host seconds.
    ///
    /// # Panics
    ///
    /// If `every` is not finite and positive.
    pub fn new(every: f64) -> Self {
        assert!(
            every.is_finite() && every > 0.0,
            "progress period must be finite and positive, got {every}"
        );
        // Saturating: absurd periods just never beat.
        let every_nanos = if every >= 1e10 {
            u64::MAX
        } else {
            // Value is positive and bounded; the cast is exact enough
            // for a heartbeat period.
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            {
                (every * 1e9) as u64
            }
        };
        Self {
            every_nanos,
            horizon: None,
            label: String::new(),
            total_nanos: 0,
            total_events: 0,
            counts: [0; N_CLASSES],
            last_nanos: 0,
            last_events: 0,
            last_counts: [0; N_CLASSES],
        }
    }

    /// Report progress as a percentage of sim-time `horizon`, with an
    /// ETA extrapolated from the observed sim-time rate.
    #[must_use]
    pub fn with_horizon(mut self, horizon: f64) -> Self {
        if horizon.is_finite() && horizon > 0.0 {
            self.horizon = Some(horizon);
        }
        self
    }

    /// Prefix each beat with `label` (e.g. `rep3`).
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Events seen so far.
    pub fn events_seen(&self) -> u64 {
        self.total_events
    }

    fn beat(&mut self, now: f64) {
        let dt = self.total_nanos - self.last_nanos;
        let devents = self.total_events - self.last_events;
        // Casts: nanosecond deltas and event counts are far below 2^53.
        #[allow(clippy::cast_precision_loss)]
        let rate = if dt == 0 {
            0.0
        } else {
            devents as f64 * 1e9 / dt as f64
        };
        let mut line = format!(
            "[nds{}{}] {} events ({}/s) sim t={now:.3}",
            if self.label.is_empty() { "" } else { " " },
            self.label,
            self.total_events,
            fmt_compact(rate),
        );
        if let Some(h) = self.horizon {
            let pct = (now / h * 100.0).min(100.0);
            let _ = write!(line, " {pct:.1}% of horizon {h:.3}");
            #[allow(clippy::cast_precision_loss)]
            let elapsed = self.total_nanos as f64 / 1e9;
            if now > 0.0 && now < h {
                let eta = elapsed * (h - now) / now;
                let _ = write!(line, " eta ~{eta:.1}s");
            }
        }
        let mut sep = " |";
        for class in EventClass::ALL {
            let i = class.index();
            let d = self.counts[i] - self.last_counts[i];
            if d > 0 {
                let _ = write!(line, "{sep} {} +{d}", class.name());
                sep = "";
            }
        }
        eprintln!("{line}");
        self.last_nanos = self.total_nanos;
        self.last_events = self.total_events;
        self.last_counts = self.counts;
    }
}

impl SchedTracer for ProgressMeter {
    #[inline]
    fn handled(&mut self, now: f64, class: EventClass, nanos: u64) {
        self.total_nanos += nanos;
        self.total_events += 1;
        self.counts[class.index()] += 1;
        if self.total_nanos - self.last_nanos >= self.every_nanos {
            self.beat(now);
        }
    }

    /// The meter needs the per-event clock — that is its only input.
    #[inline]
    fn profile_enabled(&self) -> bool {
        true
    }

    /// The meter never looks at state samples.
    #[inline]
    fn wants_state(&self, _now: f64) -> bool {
        false
    }
}

/// Format a rate compactly (`4.2M`, `13k`, `950`).
fn fmt_compact(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.0}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

/// Fan the engine's hooks out to two tracers — e.g. a
/// [`FlightRecorder`] plus a [`ProgressMeter`]. Gating predicates OR:
/// the clock runs if either side wants it, state is gathered if
/// either side wants it (and delivered to both).
#[derive(Debug, Clone)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: SchedTracer, B: SchedTracer> SchedTracer for Tee<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline]
    fn record(&mut self, now: f64, record: SchedRecord) {
        self.0.record(now, record);
        self.1.record(now, record);
    }

    #[inline]
    fn state(&mut self, now: f64, sample: &StateSample) {
        self.0.state(now, sample);
        self.1.state(now, sample);
    }

    #[inline]
    fn handled(&mut self, now: f64, class: EventClass, nanos: u64) {
        self.0.handled(now, class, nanos);
        self.1.handled(now, class, nanos);
    }

    #[inline]
    fn observe(&mut self, now: f64, kind: ObsKind, value: f64) {
        self.0.observe(now, kind, value);
        self.1.observe(now, kind, value);
    }

    #[inline]
    fn observe_n(&mut self, now: f64, kind: ObsKind, value: f64, n: u32) {
        self.0.observe_n(now, kind, value, n);
        self.1.observe_n(now, kind, value, n);
    }

    #[inline]
    fn profile_enabled(&self) -> bool {
        self.0.profile_enabled() || self.1.profile_enabled()
    }

    #[inline]
    fn wants_state(&self, now: f64) -> bool {
        self.0.wants_state(now) || self.1.wants_state(now)
    }
}

/// Append one record's JSONL object (no trailing newline) to `out`.
fn render_record_json(out: &mut String, t: f64, rec: &SchedRecord) {
    let _ = write!(out, "{{\"t\":{},\"type\":", json_num(t));
    out.push_str(&json_str(rec.kind_name()));
    match *rec {
        SchedRecord::JobArrival { job } | SchedRecord::JobCompleted { job } => {
            let _ = write!(out, ",\"job\":{job}");
        }
        SchedRecord::TaskPlaced { machine, job, task }
        | SchedRecord::TaskCompleted { machine, job, task } => {
            let _ = write!(out, ",\"machine\":{machine},\"job\":{job},\"task\":{task}");
        }
        SchedRecord::SegmentStart {
            machine,
            job,
            task,
            kind,
            wall,
        } => {
            let _ = write!(
                out,
                ",\"machine\":{machine},\"job\":{job},\"task\":{task},\"kind\":\"{}\",\"wall\":{}",
                kind.name(),
                json_num(wall)
            );
        }
        SchedRecord::SegmentEnd {
            machine,
            job,
            task,
            kind,
        }
        | SchedRecord::SegmentPreempted {
            machine,
            job,
            task,
            kind,
        } => {
            let _ = write!(
                out,
                ",\"machine\":{machine},\"job\":{job},\"task\":{task},\"kind\":\"{}\"",
                kind.name()
            );
        }
        SchedRecord::OwnerArrival { machine }
        | SchedRecord::OwnerDeparture { machine }
        | SchedRecord::MachineFailure { machine }
        | SchedRecord::MachineRepair { machine } => {
            let _ = write!(out, ",\"machine\":{machine}");
        }
        SchedRecord::Eviction {
            machine,
            job,
            task,
            action,
        } => {
            let _ = write!(
                out,
                ",\"machine\":{machine},\"job\":{job},\"task\":{task},\"action\":\"{}\"",
                action.name()
            );
        }
        SchedRecord::GangAdmitted { job, members } => {
            let _ = write!(out, ",\"job\":{job},\"members\":{members}");
        }
        SchedRecord::GangSuspended { job } | SchedRecord::GangMigrated { job } => {
            let _ = write!(out, ",\"job\":{job}");
        }
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_trace_is_disabled_for_sched() {
        const { assert!(!<NoTrace as SchedTracer>::ENABLED) };
        const { assert!(<FlightRecorder as SchedTracer>::ENABLED) };
    }

    #[test]
    fn profiler_attributes_per_class() {
        let mut p = Profiler::default();
        p.observe(EventClass::SegmentEnd, 100);
        p.observe(EventClass::SegmentEnd, 50);
        p.observe(EventClass::JobArrival, 10);
        assert_eq!(p.count(EventClass::SegmentEnd), 2);
        assert_eq!(p.nanos(EventClass::SegmentEnd), 150);
        assert_eq!(p.total_count(), 3);
        assert_eq!(p.total_nanos(), 160);
        let json = p.to_json();
        assert!(json.contains("\"class\":\"segment_end\",\"count\":2,\"nanos\":150"));
        assert!(json.contains("\"total_count\":3"));
    }

    #[test]
    fn recorder_buffers_and_renders_records() {
        let mut rec = FlightRecorder::new(2, 10.0);
        rec.record(0.0, SchedRecord::JobArrival { job: 0 });
        rec.record(
            1.5,
            SchedRecord::SegmentStart {
                machine: 1,
                job: 0,
                task: 3,
                kind: SegmentKind::Work,
                wall: 4.25,
            },
        );
        rec.record(
            5.75,
            SchedRecord::Eviction {
                machine: 1,
                job: 0,
                task: 3,
                action: EvictionAction::Suspend,
            },
        );
        rec.record(5.75, SchedRecord::OwnerArrival { machine: 1 });
        assert_eq!(rec.events().len(), 4);
        assert_eq!(rec.owner_arrivals(), &[0, 1]);
        assert_eq!(rec.evictions_by_machine(), &[0, 1]);
        let jsonl = rec.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "{\"t\":0,\"type\":\"job_arrival\",\"job\":0}");
        assert!(lines[1].contains("\"kind\":\"work\",\"wall\":4.25"));
        assert!(lines[2].contains("\"action\":\"suspend\""));
    }

    #[test]
    fn chrome_trace_has_tracks_spans_and_instants() {
        let mut rec = FlightRecorder::new(1, 10.0);
        rec.record(
            0.0,
            SchedRecord::SegmentStart {
                machine: 0,
                job: 0,
                task: 0,
                kind: SegmentKind::Work,
                wall: 2.0,
            },
        );
        rec.record(
            2.0,
            SchedRecord::SegmentEnd {
                machine: 0,
                job: 0,
                task: 0,
                kind: SegmentKind::Work,
            },
        );
        rec.record(2.0, SchedRecord::JobCompleted { job: 0 });
        let json = rec.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"M\""), "thread names present");
        assert!(json.contains("\"ph\":\"B\"") && json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ts\":2000000"), "sim time in microseconds");
        assert!(json.contains("\"name\":\"machine 0\""));
        assert!(json.contains("\"name\":\"scheduler\""));
    }

    #[test]
    fn profiler_tracks_min_and_max() {
        let mut p = Profiler::default();
        assert_eq!(p.min_ns(EventClass::SegmentEnd), None);
        assert_eq!(p.max_ns(EventClass::SegmentEnd), None);
        p.observe(EventClass::SegmentEnd, 100);
        p.observe(EventClass::SegmentEnd, 40);
        p.observe(EventClass::SegmentEnd, 70);
        assert_eq!(p.min_ns(EventClass::SegmentEnd), Some(40));
        assert_eq!(p.max_ns(EventClass::SegmentEnd), Some(100));
        let json = p.to_json();
        assert!(json.contains("\"min_ns\":40") && json.contains("\"max_ns\":100"));
        // Never-observed classes export null, not u64::MAX.
        assert!(json.contains("\"min_ns\":null"));
    }

    #[test]
    fn filter_masks_classes_and_samples_deterministically() {
        let mut f = RecordFilter::cheap().sample_every(3);
        assert!(f.keeps("job_arrival") && !f.keeps("segment_start"));
        // Blocked class: never admitted, sequence untouched.
        assert!(!f.admit(&SchedRecord::TaskPlaced {
            machine: 0,
            job: 0,
            task: 0
        }));
        // 1-in-3 sampling per class: indices 0, 3, 6, ... are kept.
        let kept: Vec<bool> = (0..7)
            .map(|j| f.admit(&SchedRecord::JobArrival { job: j }))
            .collect();
        assert_eq!(kept, [true, false, false, true, false, false, true]);
        // A different class has its own sequence.
        assert!(f.admit(&SchedRecord::JobCompleted { job: 0 }));
    }

    #[test]
    #[should_panic(expected = "unknown SchedRecord class")]
    fn filter_rejects_unknown_class_names() {
        let _ = RecordFilter::none().with(&["job_arival"]);
    }

    #[test]
    fn kinds_match_class_indices() {
        // KINDS[i] names the class whose class_index() is i.
        let probes = [
            SchedRecord::JobArrival { job: 0 },
            SchedRecord::TaskPlaced {
                machine: 0,
                job: 0,
                task: 0,
            },
            SchedRecord::JobCompleted { job: 0 },
            SchedRecord::OwnerArrival { machine: 0 },
            SchedRecord::GangMigrated { job: 0 },
            SchedRecord::MachineFailure { machine: 0 },
            SchedRecord::MachineRepair { machine: 0 },
        ];
        for rec in probes {
            assert_eq!(RecordFilter::KINDS[rec.class_index()], rec.kind_name());
        }
    }

    #[test]
    fn ring_buffer_keeps_newest_and_counts_overwrites() {
        let mut rec = FlightRecorder::new(1, 10.0).with_capacity(3);
        for j in 0..5 {
            rec.record(f64::from(j), SchedRecord::JobArrival { job: j as u32 });
        }
        assert_eq!(rec.overwritten(), 2);
        // Exports are chronological even before finish() rotates.
        let jsonl = rec.to_jsonl();
        let ts: Vec<&str> = jsonl.lines().map(|l| &l[..7]).collect();
        assert_eq!(ts, ["{\"t\":2,", "{\"t\":3,", "{\"t\":4,"]);
        rec.finish(5.0);
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].0, 2.0);
        assert_eq!(events[2].0, 4.0);
        assert!(rec.metrics_json().contains("\"records_overwritten\":2"));
    }

    #[test]
    fn cheap_recorder_drops_firehose_but_keeps_tallies() {
        let mut rec = FlightRecorder::cheap(2, 10.0);
        assert!(!rec.profile_enabled());
        rec.record(0.0, SchedRecord::JobArrival { job: 0 });
        rec.record(1.0, SchedRecord::OwnerArrival { machine: 1 });
        rec.record(
            1.0,
            SchedRecord::TaskPlaced {
                machine: 0,
                job: 0,
                task: 0,
            },
        );
        // Owner activity and placements are filtered from the log...
        assert_eq!(rec.events().len(), 1);
        // ...but the per-machine tallies still count every occurrence.
        assert_eq!(rec.owner_arrivals(), &[0, 1]);
        // Profiler stays empty even if handled() is called (a Tee
        // partner may have turned the clock on).
        rec.handled(1.0, EventClass::JobArrival, 55);
        assert_eq!(rec.profiler().total_count(), 0);
    }

    #[test]
    fn grid_state_throttles_sampling() {
        let mut rec = FlightRecorder::new(1, 10.0).with_state_on_grid(true);
        assert!(rec.wants_state(0.0));
        rec.state(0.0, &StateSample::default());
        // Next sample is due at the next grid tick, not before.
        assert!(!rec.wants_state(3.0));
        assert!(rec.wants_state(10.0));
        rec.state(12.5, &StateSample::default());
        assert!(!rec.wants_state(19.0));
        assert!(rec.wants_state(20.0));
    }

    #[test]
    fn observations_feed_sketches() {
        let mut rec = FlightRecorder::new(1, 10.0);
        rec.observe(1.0, ObsKind::Response, 4.0);
        rec.observe(2.0, ObsKind::Response, 8.0);
        rec.observe(2.0, ObsKind::QueueWait, 0.5);
        assert_eq!(rec.sketch(ObsKind::Response).count(), 2);
        assert_eq!(rec.sketch(ObsKind::QueueWait).count(), 1);
        assert_eq!(rec.sketch(ObsKind::Slowdown).count(), 0);
        rec.finish(5.0);
        let json = rec.metrics_json();
        assert!(json.contains("\"name\":\"response\",\"kind\":\"histogram\""));
        assert!(json.contains("\"sketch\":{\"count\":2"));
    }

    #[test]
    fn hostile_machine_names_stay_valid_json() {
        let rec = FlightRecorder::new(2, 10.0)
            .with_machine_names(vec!["evil\"node\\1".into(), "tab\there".into()]);
        let json = rec.to_chrome_json();
        assert!(json.contains("\"name\":\"evil\\\"node\\\\1\""));
        assert!(json.contains("\"name\":\"tab\\there\""));
        // A short name list falls back to the default label.
        let rec = FlightRecorder::new(2, 10.0).with_machine_names(vec!["only one".into()]);
        assert!(rec.to_chrome_json().contains("\"name\":\"machine 1\""));
    }

    #[test]
    fn tee_fans_out_and_ors_predicates() {
        let mut tee = Tee(FlightRecorder::cheap(1, 10.0), FlightRecorder::new(1, 10.0));
        assert!(tee.profile_enabled(), "full side wants the clock");
        tee.record(0.0, SchedRecord::OwnerArrival { machine: 0 });
        // Cheap side filters it out of the log; full side keeps it.
        assert_eq!(tee.0.events().len(), 0);
        assert_eq!(tee.1.events().len(), 1);
        assert_eq!(tee.0.owner_arrivals(), &[1]);
        tee.handled(0.0, EventClass::OwnerArrival, 9);
        assert_eq!(tee.0.profiler().total_count(), 0);
        assert_eq!(tee.1.profiler().total_count(), 1);
    }

    #[test]
    fn progress_meter_counts_through_the_profiler_clock() {
        let mut meter = ProgressMeter::new(1000.0).with_horizon(100.0);
        assert!(meter.profile_enabled());
        assert!(!meter.wants_state(0.0));
        for i in 0..10 {
            meter.handled(f64::from(i), EventClass::SegmentEnd, 100);
        }
        assert_eq!(meter.events_seen(), 10);
    }

    #[test]
    fn failure_records_render_and_stay_in_the_cheap_tier() {
        let mut rec = FlightRecorder::new(2, 10.0);
        rec.record(3.0, SchedRecord::MachineFailure { machine: 1 });
        rec.record(9.5, SchedRecord::MachineRepair { machine: 1 });
        let jsonl = rec.to_jsonl();
        assert!(jsonl.contains("{\"t\":3,\"type\":\"machine_failure\",\"machine\":1}"));
        assert!(jsonl.contains("{\"t\":9.5,\"type\":\"machine_repair\",\"machine\":1}"));
        let chrome = rec.to_chrome_json();
        assert!(chrome.contains("\"name\":\"machine_failure\",\"cat\":\"failure\""));
        assert!(chrome.contains("\"name\":\"machine_repair\",\"cat\":\"failure\""));
        // Crashes are rare and load-bearing: the cheap tier keeps them.
        let f = RecordFilter::cheap();
        assert!(f.keeps("machine_failure") && f.keeps("machine_repair"));
    }

    #[test]
    fn state_samples_feed_the_registry() {
        let mut rec = FlightRecorder::new(4, 5.0);
        rec.state(
            0.0,
            &StateSample {
                queue_depth: 3,
                free_machines: 4,
                goodput: 0.0,
                ..StateSample::default()
            },
        );
        rec.state(
            7.0,
            &StateSample {
                queue_depth: 1,
                free_machines: 2,
                goodput: 12.5,
                ..StateSample::default()
            },
        );
        rec.finish(9.0);
        assert_eq!(rec.final_sample().unwrap().goodput, 12.5);
        let json = rec.metrics_json();
        assert!(json.contains("\"registry\":{"));
        assert!(json.contains("\"queue_depth\""));
        assert!(json.contains("\"per_machine\""));
        assert!(json.contains("\"owner_arrivals\":[0,0,0,0]"));
    }
}
