//! Per-layer instruments shared by the workloads: the profile-only
//! `SchedTracer`, the counting/timing job feed, the owner-draw timer,
//! the simulated statistics a perf change must leave bit-identical,
//! and the generic untraced pass loop.

use crate::measure::{median, peak_rss_mib, quartiles, time_setups, Digest};
use crate::output::Outcome;
use crate::spans::Spans;
use nds_cluster::owner::OwnerWorkload;
use nds_sched::{
    EventClass, JobFeed, JobRecord, JobSpec, Profiler, SchedError, SchedMetrics, SchedTracer,
};
use nds_stats::rng::Xoshiro256StarStar;
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// A tracer that only attributes host time per event class: no
/// records, no state samples, no sketches.
#[derive(Debug, Default)]
pub struct ClassProfile(pub Profiler);

impl SchedTracer for ClassProfile {
    #[inline]
    fn handled(&mut self, _now: f64, class: EventClass, nanos: u64) {
        self.0.observe(class, nanos);
    }

    #[inline]
    fn wants_state(&self, _now: f64) -> bool {
        false
    }
}

/// Record the per-class event counts and each class's share of the
/// profiled host time. Shares rather than nanoseconds: a class the
/// workload never raises reads 0 on every run, which is a fact about
/// the workload, not a time.
pub(crate) fn class_metrics(out: &mut Outcome, profile: &Profiler) {
    let total = profile.total_nanos().max(1) as f64;
    for class in EventClass::ALL {
        let name = class.name();
        out.metric(
            format!("sched.{name}.count"),
            profile.count(class) as f64,
            "count",
        );
        out.metric(
            format!("sched.{name}.share"),
            profile.nanos(class) as f64 / total,
            "fraction",
        );
    }
    out.metric(
        "sched.profiled_ns_per_event",
        profile.total_nanos() as f64 / profile.total_count().max(1) as f64,
        "ns",
    );
}

/// A [`JobFeed`] wrapper that counts the jobs and tasks it hands the
/// engine and, given a span recorder, times every `next_chunk` as a
/// `core.feed` span.
pub(crate) struct TallyFeed<'a> {
    inner: &'a mut dyn JobFeed,
    spans: Option<&'a RefCell<Spans>>,
    /// Jobs delivered so far.
    pub jobs: u64,
    /// Tasks delivered so far.
    pub tasks: u64,
}

impl<'a> TallyFeed<'a> {
    /// Wrap `inner`; `spans` turns on per-chunk spans.
    pub(crate) fn new(inner: &'a mut dyn JobFeed, spans: Option<&'a RefCell<Spans>>) -> Self {
        Self {
            inner,
            spans,
            jobs: 0,
            tasks: 0,
        }
    }
}

impl JobFeed for TallyFeed<'_> {
    fn next_chunk(&mut self, max: usize, buf: &mut Vec<JobSpec>) -> Result<usize, SchedError> {
        let before = buf.len();
        if let Some(spans) = self.spans {
            spans.borrow_mut().enter("core.feed");
        }
        let n = self.inner.next_chunk(max, buf);
        if let Some(spans) = self.spans {
            spans.borrow_mut().exit();
        }
        let n = n?;
        self.jobs += n as u64;
        self.tasks += buf[before..]
            .iter()
            .map(|j| u64::from(j.tasks))
            .sum::<u64>();
        Ok(n)
    }
}

/// Drain `workload`'s job feed for one replication into a vector.
pub(crate) fn drain(
    workload: &dyn nds_core::sim::Workload,
    seed: u64,
    replication: u64,
) -> Result<Vec<JobSpec>, nds_core::sim::SimError> {
    let mut feed = workload.feed(seed, replication)?;
    let mut jobs = Vec::new();
    while feed.next_chunk(4_096, &mut jobs)? > 0 {}
    Ok(jobs)
}

/// Host nanoseconds per owner-cycle draw pair (`sample_think` +
/// `sample_service`), cycling over `owners`.
pub(crate) fn owner_draw_ns(owners: &[OwnerWorkload], pairs: u64, seed: u64) -> f64 {
    let mut rng = Xoshiro256StarStar::new(seed);
    let start = Instant::now();
    let mut acc = 0.0;
    for (_, owner) in (0..pairs).zip(owners.iter().cycle()) {
        acc += owner.sample_think(&mut rng) + owner.sample_service(&mut rng);
    }
    black_box(acc);
    start.elapsed().as_nanos() as f64 / pairs.max(1) as f64
}

/// Record `stats.owner_draw_ns` and its computed share of the engine's
/// host time: one draw pair per owner cycle, one owner cycle per
/// `owner_arrival` event.
pub(crate) fn owner_draw_metrics(
    out: &mut Outcome,
    draw_ns: f64,
    owner_arrivals: u64,
    engine_s: f64,
) {
    out.metric("stats.owner_draw_ns", draw_ns, "ns");
    out.metric(
        "stats.owner_draw_share_computed",
        draw_ns * 1e-9 * owner_arrivals as f64 / engine_s.max(f64::MIN_POSITIVE),
        "fraction",
    );
}

/// `log(ns/event at the large pool ÷ ns/event at the small pool) /
/// log(pool size ratio)`: 0 when per-event cost is flat in pool size,
/// 1 when it grows linearly.
pub(crate) fn scaling_exponent(
    large_ns_per_event: f64,
    small_ns_per_event: f64,
    ratio: f64,
) -> f64 {
    (large_ns_per_event / small_ns_per_event).ln() / ratio.ln()
}

/// The simulated statistics of a set of engine runs. A perf change
/// must leave every one bit-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// Engine runs folded in.
    pub runs: u64,
    /// Task placements.
    pub placements: u64,
    /// Owner evictions of guest work.
    pub evictions: u64,
    /// Machine crashes.
    pub crashes: u64,
    /// Sum over runs of the mean queue wait.
    pub queue_wait_sum: f64,
    /// Sum over runs of the makespan.
    pub makespan_sum: f64,
    /// Useful work.
    pub goodput: f64,
    /// Work delivered.
    pub delivered: f64,
}

impl SimStats {
    /// Fold in one run.
    pub fn add(&mut self, m: &SchedMetrics) {
        self.runs += 1;
        self.placements += m.placements;
        self.evictions += m.evictions;
        self.crashes += m.crashes;
        self.queue_wait_sum += m.mean_queue_wait;
        self.makespan_sum += m.makespan;
        self.goodput += m.goodput;
        self.delivered += m.delivered;
    }

    /// Fold every field into `digest`.
    pub fn digest(&self, digest: &mut Digest) {
        for word in [self.runs, self.placements, self.evictions, self.crashes] {
            digest.u64(word);
        }
        for x in [
            self.queue_wait_sum,
            self.makespan_sum,
            self.goodput,
            self.delivered,
        ] {
            digest.f64(x);
        }
    }

    /// Record the `sched.*` simulated-statistic metrics.
    pub fn metrics(&self, out: &mut Outcome) {
        let runs = self.runs.max(1) as f64;
        out.metric("sched.placements", self.placements as f64, "count");
        out.metric("sched.evictions", self.evictions as f64, "count");
        out.metric("sched.crashes", self.crashes as f64, "count");
        out.metric(
            "sched.mean_queue_wait",
            self.queue_wait_sum / runs,
            "simtime",
        );
        out.metric("sched.makespan", self.makespan_sum / runs, "simtime");
        out.metric(
            "sched.goodput_fraction",
            self.goodput / self.delivered.max(f64::MIN_POSITIVE),
            "fraction",
        );
    }

    /// One report line.
    pub fn line(&self) -> String {
        format!(
            "simulated: runs {} placements {} evictions {} crashes {} mean queue wait {:.6} mean makespan {:.6} goodput fraction {:.9}",
            self.runs,
            self.placements,
            self.evictions,
            self.crashes,
            self.queue_wait_sum / self.runs.max(1) as f64,
            self.makespan_sum / self.runs.max(1) as f64,
            self.goodput / self.delivered.max(f64::MIN_POSITIVE),
        )
    }
}

/// Consumes a run's per-job records in submission order: counts them,
/// sums their demand, digests them and checks each one.
#[derive(Debug, Clone, Default)]
pub struct RecordSink {
    /// Records seen.
    pub jobs: u64,
    /// Their summed demand.
    pub demand: f64,
    /// Digest of `(index, arrival, completion, demand)` per record.
    pub digest: Digest,
    /// The first bad record, if any.
    pub bad: Option<String>,
}

impl RecordSink {
    /// A sink that took every record of a materialized run.
    pub fn of(records: &[JobRecord]) -> Self {
        let mut sink = Self::default();
        for (i, r) in records.iter().enumerate() {
            sink.record(i, *r);
        }
        sink
    }

    /// Take the record of job `index`.
    pub fn record(&mut self, index: usize, r: JobRecord) {
        if self.bad.is_none()
            && (index as u64 != self.jobs || r.completion.is_nan() || r.completion < r.arrival)
        {
            self.bad = Some(format!(
                "job {index} (record {}) completed at {} before arriving at {}, or out of order",
                self.jobs, r.completion, r.arrival
            ));
        }
        self.jobs += 1;
        self.demand += r.demand;
        self.digest.u64(index as u64);
        for x in [r.arrival, r.completion, r.demand] {
            self.digest.f64(x);
        }
    }

    /// The output checks of one engine run that fed `jobs` jobs of
    /// `tasks` tasks: work is conserved, every fed job and task
    /// completed, and all of the jobs' demand became goodput.
    pub fn check(&self, m: &SchedMetrics, jobs: u64, tasks: u64) -> Result<(), String> {
        if let Some(bad) = &self.bad {
            return Err(bad.clone());
        }
        if !m.is_consistent() {
            return Err(format!(
                "work not conserved (residual {})",
                m.accounting_residual()
            ));
        }
        if self.jobs != jobs {
            return Err(format!("{} of {jobs} fed jobs completed", self.jobs));
        }
        if m.completed_tasks != tasks {
            return Err(format!(
                "{} of {tasks} fed tasks completed",
                m.completed_tasks
            ));
        }
        let tolerance = 1e-9 * m.total_demand.max(1.0);
        if (self.demand - m.total_demand).abs() > tolerance
            || (m.goodput - m.total_demand).abs() > tolerance
        {
            return Err(format!(
                "demand {} of completed jobs, goodput {}, total demand {}",
                self.demand, m.goodput, m.total_demand
            ));
        }
        Ok(())
    }

    /// The digest of one run: every scalar of `m`, the event count when
    /// the caller has it, and every record.
    pub fn run_digest(&self, m: &SchedMetrics, events: Option<u64>) -> u64 {
        let mut d = self.digest;
        for word in [
            m.evictions,
            m.suspensions,
            m.restarts,
            m.migrations,
            m.completed_tasks,
            m.placements,
            m.crashes,
            m.gang.gang_starts,
            m.gang.gang_suspensions,
            events.unwrap_or(0),
        ] {
            d.u64(word);
        }
        for x in [
            m.makespan,
            m.delivered,
            m.goodput,
            m.wasted,
            m.checkpoint_overhead,
            m.total_demand,
            m.mean_queue_wait,
            m.mean_available_machines,
            m.crash_lost,
            m.downtime,
            m.gang.coalloc_wait,
            m.gang.degraded_time,
        ] {
            d.f64(x);
        }
        d.value()
    }
}

/// What a traced run learned besides its spans and class profile.
#[derive(Debug, Clone, Default)]
pub struct LayerFacts {
    /// Calendar events of the span pass's engine runs.
    pub events: u64,
    /// Jobs delivered through `JobFeed::next_chunk`.
    pub feed_jobs: u64,
    /// Simulated statistics of the span pass.
    pub stats: SimStats,
    /// Host ns per owner draw pair.
    pub draw_ns: f64,
    /// Engine seconds of the runs the profile pass repeats, untraced.
    pub untraced_engine_s: f64,
    /// Engine seconds of the profile pass.
    pub profiled_engine_s: f64,
    /// `sched.scaling_exponent`.
    pub scaling: f64,
}

impl LayerFacts {
    /// Record the `core.*`, `sched.*`, `stats.*` and `trace.*` metrics
    /// from the span pass (root span `pass`) and the class profile.
    pub fn report(&self, out: &mut Outcome, spans: &Spans, profile: &Profiler) {
        let engine_s = spans.self_under("pass", "sched.run");
        let events = self.events as f64;
        out.metric("core.build_s", spans.busy_under("pass", "core.build"), "s");
        out.metric(
            "core.generate_s",
            spans.busy_under("pass", "core.generate"),
            "s",
        );
        out.metric("core.feed_s", spans.busy_under("pass", "core.feed"), "s");
        out.metric("core.feed_jobs", self.feed_jobs as f64, "count");
        out.metric("sched.self_s", engine_s, "s");
        out.metric("sched.sink_s", spans.busy_under("pass", "bench.sink"), "s");
        out.metric("sched.events", events, "count");
        out.metric("sched.ns_per_event", engine_s * 1e9 / events.max(1.0), "ns");
        out.metric(
            "sched.events_per_s",
            events / engine_s.max(f64::MIN_POSITIVE),
            "1/s",
        );
        class_metrics(out, profile);
        out.metric("sched.scaling_exponent", self.scaling, "ratio");
        self.stats.metrics(out);
        owner_draw_metrics(
            out,
            self.draw_ns,
            profile.count(EventClass::OwnerArrival),
            engine_s,
        );
        out.metric(
            "trace.overhead",
            self.profiled_engine_s / self.untraced_engine_s.max(f64::MIN_POSITIVE),
            "ratio",
        );
    }
}

/// What one untraced pass over a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Jobs completed (paper_sweep: replications).
    pub jobs: u64,
    /// Engine runs attempted.
    pub runs: u64,
    /// Engine runs that errored or failed their output check.
    pub failed: u64,
    /// Why runs failed.
    pub failures: Vec<String>,
    /// Digest of every simulated output of the pass.
    pub digest: u64,
    /// Aggregate simulated statistics.
    pub stats: SimStats,
    /// Per-configuration job times (paper_sweep's grid points), for
    /// checks that need the samples.
    pub samples: Vec<Vec<f64>>,
}

impl Pass {
    /// Check and digest one engine run's outputs (see
    /// [`RecordSink::check`]).
    pub fn finish(
        &mut self,
        m: &SchedMetrics,
        events: Option<u64>,
        sink: &RecordSink,
        jobs: u64,
        tasks: u64,
    ) {
        if let Err(why) = sink.check(m, jobs, tasks) {
            self.fail(why);
        }
        self.jobs += sink.jobs;
        self.stats.add(m);
        self.digest = sink.run_digest(m, events);
    }

    /// Count one failed engine run.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why.into());
        }
    }
}

/// A benchmark workload: seeded set-up, a repeatable timed pass, and a
/// traced run that yields the per-layer metrics.
pub trait Workload {
    /// What [`Workload::setup`] builds for the passes.
    type State;

    /// Set-ups timed back to back as one `setup_s` sample: enough for
    /// a sample of a few milliseconds.
    const SETUP_BATCH: usize;

    /// Everything before the first engine call.
    fn setup(&self, seed: u64) -> Result<Self::State, String>;

    /// One timed pass over the workload's inputs.
    fn pass(&self, state: &Self::State) -> Pass;

    /// Checks over the first pass's outputs beyond the per-run ones:
    /// each returned `(runs, why)` fails `runs` runs of every pass.
    fn verify(&self, _seed: u64, _state: &Self::State, _first: &Pass) -> Vec<(u64, String)> {
        Vec::new()
    }

    /// The traced run: per-layer metrics and spans.
    fn traced(&self, seed: u64) -> Outcome;
}

/// Fold a pass's accounting into the outcome.
pub(crate) fn absorb(out: &mut Outcome, pass: &Pass, what: &str) {
    out.attempted += pass.runs;
    out.failed += pass.failed;
    out.failures
        .extend(pass.failures.iter().map(|f| format!("{what}: {f}")));
}

/// `setup_s` samples (batches of [`Workload::SETUP_BATCH`] set-ups)
/// timed before each pass.
const SETUP_SAMPLES: usize = 10;
/// Passes run at least this many times, however long they take.
const MIN_PASSES: usize = 3;
const MAX_PASSES: usize = 10_000;

/// The untraced run: for about `seconds`, time batches of set-ups and
/// run one pass with the last set-up, over and over; check every
/// output and report the end-to-end metrics. Set-up samples are spread
/// across the run like the passes, so both medians see the same
/// machine.
pub fn run_untraced<W: Workload>(workload: &W, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    let mut setup_times = Vec::new();
    let mut first_state = None;
    let mut first_rss = None;
    let mut passes: Vec<(f64, Pass)> = Vec::new();
    loop {
        let state = match time_setups(SETUP_SAMPLES, W::SETUP_BATCH, || workload.setup(seed)) {
            Ok((times, state)) => {
                setup_times.extend(times);
                state
            }
            Err(why) => {
                out.fail(1, format!("set-up failed: {why}"));
                out.attempted += 1;
                return out;
            }
        };
        let t = Instant::now();
        let mut pass = workload.pass(&state);
        let secs = t.elapsed().as_secs_f64();
        if first_state.is_none() {
            first_state = Some(state);
            // The peak of set-up plus one pass: the workload's own
            // footprint. Later identical passes add only allocator
            // churn, which lands the peak a few MiB higher on some
            // runs and not others.
            first_rss = peak_rss_mib();
        } else {
            // Only the first pass's samples are checked; later passes
            // must match its digest, so holding theirs would only
            // inflate the peak RSS being measured.
            pass.samples = Vec::new();
        }
        passes.push((secs, pass));
        let secs: Vec<f64> = passes.iter().map(|(s, _)| *s).collect();
        let next_end = start.elapsed().as_secs_f64() + median(&secs);
        if passes.len() >= MAX_PASSES || (passes.len() >= MIN_PASSES && next_end > seconds) {
            break;
        }
    }
    let measured = start.elapsed().as_secs_f64();
    let first = passes[0].1.clone();
    out.digest = Some(first.digest);
    for (i, (_, pass)) in passes.iter().enumerate() {
        out.attempted += pass.runs;
        out.failed += pass.failed;
        out.failures.extend(pass.failures.iter().cloned());
        if pass.digest != first.digest {
            out.fail(
                pass.runs - pass.failed,
                format!(
                    "pass {i} digest {:#018x} differs from pass 0's {:#018x}",
                    pass.digest, first.digest
                ),
            );
        }
    }
    let state = first_state.expect("at least one pass ran");
    for (runs, why) in workload.verify(seed, &state, &first) {
        out.fail(runs * passes.len() as u64, why);
    }

    let rates: Vec<f64> = passes
        .iter()
        .map(|(s, p)| p.jobs as f64 / s.max(f64::MIN_POSITIVE))
        .collect();
    let [r1, rate, r3] = quartiles(&rates);
    let [s1, setup, s3] = quartiles(&setup_times);
    out.metric("jobs_per_s", rate, "1/s");
    out.metric("setup_s", setup, "s");
    match first_rss {
        Some(mib) => out.metric("peak_rss_mib", mib, "MiB"),
        None => out.fail(0, "peak RSS unavailable (no VmHWM in /proc/self/status)"),
    }
    out.line(format!(
        "passes: {} in {measured:.2} s, {} jobs each",
        passes.len(),
        first.jobs
    ));
    out.line(format!(
        "jobs_per_s: median {rate:.1}  q1 {r1:.1}  q3 {r3:.1}  (1/s, over {} passes)",
        passes.len()
    ));
    out.line(format!(
        "pass rates (1/s): {}",
        rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.line(format!(
        "setup_s: median {setup:.9}  q1 {s1:.9}  q3 {s3:.9}  (s per set-up, over {} batches of {})",
        setup_times.len(),
        W::SETUP_BATCH
    ));
    if let Some(mib) = out.get("peak_rss_mib") {
        out.line(format!(
            "peak_rss_mib: {mib:.1} (MiB, VmHWM after set-up and the first pass; {:.1} at the end)",
            peak_rss_mib().unwrap_or(f64::NAN)
        ));
    }
    out.line(format!(
        "fail_frac: {} / {} = {} (failed / attempted engine runs)",
        out.failed,
        out.attempted,
        out.failed as f64 / out.attempted.max(1) as f64
    ));
    out.line(format!(
        "digest: {:#018x} (identical across {} passes: {})",
        first.digest,
        passes.len(),
        passes.iter().all(|(_, p)| p.digest == first.digest)
    ));
    out.line(first.stats.line());
    out
}
