//! `datacenter_day`: a streamed synthetic datacenter day on 4,000
//! machines, the repository's headline run.
//!
//! `ext_trace`'s job shape (bounded-Pareto demands on [5, 500) with
//! α = 1.5, up to 8 tasks per job) at its load of 1,000 jobs per
//! machine per day: 1M jobs over a 21,600-unit day. Least-loaded
//! placement, suspend-resume, no gang, no failures, through
//! `SchedConfig::run_streamed` — the only streamed workload, so it is
//! where the feed, the sink and bounded memory show.

use crate::layers::{
    absorb, owner_draw_ns, scaling_exponent, ClassProfile, LayerFacts, Pass, RecordSink, TallyFeed,
    Workload,
};
use crate::output::Outcome;
use crate::paper_sweep::{paper_layers, PaperSweep};
use crate::spans::Spans;
use nds_cluster::owner::OwnerWorkload;
use nds_core::sim::{SyntheticTrace, Workload as _};
use nds_sched::{
    EvictionPolicy, GangPolicy, JobRecord, PlacementKind, QueueDiscipline, SchedConfig,
};
use std::cell::RefCell;

/// Jobs per machine per day in `ext_trace`'s 1,000-machine × 1M-job
/// day (its day is 86,400 units).
const JOBS_PER_MACHINE_DAY: f64 = 1_000.0;
const EXT_TRACE_DAY: f64 = 86_400.0;

/// The day's size.
#[derive(Debug, Clone)]
pub struct DatacenterDay {
    /// Pool size.
    pub machines: u32,
    /// Jobs in the day.
    pub jobs: usize,
    /// Jobs pulled from the feed per chunk.
    pub chunk: usize,
    /// Per-run event cap.
    pub max_events: u64,
    /// The paper grid the traced run measures for the `cluster.*` and
    /// `model.*` layer metrics: every traced run reports every
    /// per-layer metric `BENCHMARK.json` lists.
    pub paper: PaperSweep,
}

impl DatacenterDay {
    /// The benchmark's size.
    pub fn full() -> Self {
        Self {
            machines: 4_000,
            jobs: 1_000_000,
            chunk: 8_192,
            max_events: 2_000_000_000,
            paper: PaperSweep::full(),
        }
    }

    /// A small day for self-tests.
    pub fn tiny() -> Self {
        Self {
            machines: 64,
            jobs: 4_000,
            chunk: 256,
            max_events: 2_000_000_000,
            paper: PaperSweep::tiny(),
        }
    }

    /// The same day shape on a pool a quarter the size.
    pub fn quarter(&self) -> Self {
        Self {
            machines: self.machines / 4,
            jobs: self.jobs / 4,
            ..self.clone()
        }
    }

    /// The day's length: `jobs` arrive at `ext_trace`'s jobs per
    /// machine per day.
    pub fn day(&self) -> f64 {
        self.jobs as f64 * EXT_TRACE_DAY / (f64::from(self.machines) * JOBS_PER_MACHINE_DAY)
    }

    /// The synthetic trace.
    pub fn trace(&self) -> SyntheticTrace {
        SyntheticTrace::datacenter(self.machines, self.jobs)
            .day(self.day())
            .demands(1.5, 5.0, 500.0)
            .max_tasks(8)
    }

    /// The engine configuration around `owners`.
    pub fn config(&self, owners: Vec<OwnerWorkload>, seed: u64) -> SchedConfig {
        SchedConfig {
            owners,
            jobs: Vec::new(),
            placement: PlacementKind::LeastLoaded,
            eviction: EvictionPolicy::SuspendResume,
            gang: GangPolicy::Off,
            failures: None,
            discipline: QueueDiscipline::Fcfs,
            admission_threshold: 1.0,
            estimator_tau: 1_000.0,
            calibration_horizon: 0.0,
            seed,
            replication: 0,
            max_events: self.max_events,
        }
    }
}

/// Set-up output: the trace, its seed and the engine configuration.
#[derive(Debug)]
pub struct DayState {
    trace: SyntheticTrace,
    seed: u64,
    config: SchedConfig,
}

impl DatacenterDay {
    fn state(&self, seed: u64) -> Result<DayState, String> {
        let trace = self.trace();
        let owners = trace.owners(seed, 0).map_err(|e| e.to_string())?;
        Ok(DayState {
            trace,
            seed,
            config: self.config(owners, seed),
        })
    }

    /// One streamed pass; with `spans`, feed chunks, the engine run and
    /// every sink call are recorded under the innermost open span.
    fn streamed(&self, state: &DayState, spans: Option<&RefCell<Spans>>) -> (Pass, u64) {
        let mut pass = Pass {
            runs: 1,
            ..Pass::default()
        };
        let mut inner = match state.trace.feed(state.seed, 0) {
            Ok(feed) => feed,
            Err(e) => {
                pass.fail(e.to_string());
                return (pass, 0);
            }
        };
        let mut feed = TallyFeed::new(inner.as_mut(), spans);
        let mut sink = RecordSink::default();
        let mut on_job = |index: usize, record: JobRecord| match spans {
            Some(spans) => {
                spans.borrow_mut().enter("bench.sink");
                sink.record(index, record);
                spans.borrow_mut().exit();
            }
            None => sink.record(index, record),
        };
        if let Some(spans) = spans {
            spans.borrow_mut().enter("sched.run");
        }
        let run = state
            .config
            .run_streamed(&mut feed, self.chunk, &mut on_job);
        if let Some(spans) = spans {
            spans.borrow_mut().exit();
        }
        let events = match run {
            Ok((m, events)) => {
                pass.finish(&m, Some(events), &sink, feed.jobs, feed.tasks);
                events
            }
            Err(e) => {
                pass.fail(e.to_string());
                0
            }
        };
        (pass, events)
    }
}

impl Workload for DatacenterDay {
    type State = DayState;
    /// About 1.2 ms per day.
    const SETUP_BATCH: usize = 4;

    fn setup(&self, seed: u64) -> Result<DayState, String> {
        self.state(seed)
    }

    fn pass(&self, state: &DayState) -> Pass {
        self.streamed(state, None).0
    }

    fn traced(&self, seed: u64) -> Outcome {
        let mut out = Outcome::default();
        let untraced = match self.state(seed) {
            Ok(state) => self.pass(&state),
            Err(why) => {
                out.fail(1, why);
                return out;
            }
        };
        absorb(&mut out, &untraced, "untraced pass");
        let mut facts = LayerFacts::default();
        let spans = RefCell::new(Spans::new());

        // Span pass: the streamed day, then the materialized copy's
        // generation.
        spans.borrow_mut().enter("pass");
        let built = spans.borrow_mut().time("core.build", || self.state(seed));
        let state = match built {
            Ok(state) => state,
            Err(why) => {
                out.fail(1, why);
                return out;
            }
        };
        let (pass, events) = self.streamed(&state, Some(&spans));
        absorb(&mut out, &pass, "span pass");
        if pass.digest != untraced.digest {
            out.fail(1, "span pass digest differs from the untraced pass");
        }
        facts.events = events;
        facts.feed_jobs = pass.jobs;
        facts.stats = pass.stats;
        let generated = spans
            .borrow_mut()
            .time("core.generate", || state.trace.generate(seed, 0));
        spans.borrow_mut().exit();
        let mut spans = spans.into_inner();

        // The materialized copy: `run_streamed` accepts no tracer, so
        // the class profile comes from the same day run materialized,
        // untraced and traced, both checked against the streamed digest.
        let mut profile = ClassProfile::default();
        match generated {
            Ok(jobs) => {
                let tasks = jobs.iter().map(|j| u64::from(j.tasks)).sum();
                let fed = jobs.len() as u64;
                let mut config = state.config.clone();
                config.jobs = jobs;
                for (root, span) in [
                    ("materialized", "sched.run"),
                    ("profile", "sched.run_traced"),
                ] {
                    out.attempted += 1;
                    spans.enter(root);
                    let run = spans.time(span, || {
                        if root == "profile" {
                            config.run_traced(&mut profile)
                        } else {
                            config.run_counted()
                        }
                    });
                    spans.exit();
                    match run {
                        Ok((m, events)) => {
                            let mut copy = Pass::default();
                            copy.finish(&m, Some(events), &RecordSink::of(&m.jobs), fed, tasks);
                            absorb(&mut out, &copy, root);
                            if copy.digest != untraced.digest {
                                out.fail(
                                    1,
                                    format!("{root} copy digest differs from the streamed day"),
                                );
                            }
                        }
                        Err(e) => out.fail(1, format!("{root} copy: {e}")),
                    }
                }
            }
            Err(e) => out.fail(1, format!("materialized copy: {e}")),
        }
        facts.untraced_engine_s = spans.busy_under("materialized", "sched.run");
        facts.profiled_engine_s = spans.busy_under("profile", "sched.run_traced");

        // The same day shape on a quarter-size pool.
        let quarter = self.quarter();
        let spans = RefCell::new(spans);
        spans.borrow_mut().enter("quarter");
        match quarter.state(seed) {
            Ok(q) => {
                let (pass, q_events) = quarter.streamed(&q, Some(&spans));
                absorb(&mut out, &pass, "quarter pass");
                let spans = spans.borrow();
                let q_ns = spans.self_under("quarter", "sched.run") * 1e9 / q_events.max(1) as f64;
                let ns = spans.self_under("pass", "sched.run") * 1e9 / events.max(1) as f64;
                facts.scaling = scaling_exponent(ns, q_ns, 4.0);
            }
            Err(why) => out.fail(1, why),
        }
        spans.borrow_mut().exit();
        let mut spans = spans.into_inner();

        facts.draw_ns = spans.time("stats.owner_draws", || {
            owner_draw_ns(&state.config.owners, 2_000_000, seed)
        });
        facts.report(&mut out, &spans, &profile.0);
        paper_layers(&self.paper, seed, &mut out, &mut spans);
        out.spans = Some(spans);
        out
    }
}
