//! `gang_faults`: an open Poisson stream of 8-task × 25-unit gangs on
//! 64 machines under crash/repair faults.
//!
//! U = 0.15, O = 10 owners (exponential think and demand), arrivals at
//! 0.2 jobs per unit time (about 75% of the pool's spare capacity),
//! `GangPolicy::Partial { min_running: 4 }`,
//! `FailureModel::exponential(1200, 15)`, run materialized through
//! `Sim::run` with the report's steady-state batch means. It drives the
//! gang engine, crash/repair and the `nds-core` report path, none of
//! which `datacenter_day` touches, on a pool small enough that
//! placement cost is negligible. Gang members suspend on a crash, so
//! the workload sets no eviction policy.

use crate::layers::{
    absorb, drain, owner_draw_ns, scaling_exponent, ClassProfile, LayerFacts, Pass, RecordSink,
    Workload,
};
use crate::output::Outcome;
use crate::paper_sweep::{paper_layers, PaperSweep};
use crate::spans::Spans;
use nds_cluster::owner::OwnerWorkload;
use nds_core::sim::{poisson, JobShape, Report, Sim};
use nds_sched::{FailureModel, GangPolicy, SchedMetrics};

/// Tasks per gang.
pub const GANG_WIDTH: u32 = 8;
/// Demand per task.
pub const TASK_DEMAND: f64 = 25.0;

/// The stream's size.
#[derive(Debug, Clone)]
pub struct GangFaults {
    /// Pool size.
    pub workstations: u32,
    /// Job arrival rate.
    pub rate: f64,
    /// Jobs in the stream.
    pub jobs: usize,
    /// Per-run event cap override (self-tests force it low).
    pub max_events: Option<u64>,
    /// The paper grid the traced run measures for the `cluster.*` and
    /// `model.*` layer metrics: every traced run reports every
    /// per-layer metric `BENCHMARK.json` lists.
    pub paper: PaperSweep,
}

impl GangFaults {
    /// The benchmark's size.
    pub fn full() -> Self {
        Self {
            workstations: 64,
            rate: 0.2,
            jobs: 300_000,
            max_events: None,
            paper: PaperSweep::full(),
        }
    }

    /// A short stream for self-tests.
    pub fn tiny() -> Self {
        Self {
            jobs: 3_000,
            paper: PaperSweep::tiny(),
            ..Self::full()
        }
    }

    /// The same stream shape on a pool a quarter the size, at a quarter
    /// of the rate (the same load per machine).
    pub fn quarter(&self) -> Self {
        Self {
            workstations: self.workstations / 4,
            rate: self.rate / 4.0,
            jobs: self.jobs / 4,
            ..self.clone()
        }
    }

    /// The validated experiment.
    pub fn sim(&self, seed: u64) -> Result<Sim, String> {
        let owner = OwnerWorkload::continuous_exponential(10.0, 0.15).map_err(|e| e.to_string())?;
        let failures = FailureModel::exponential(1_200.0, 15.0).map_err(|e| e.to_string())?;
        let mut builder = Sim::pool(self.workstations)
            .owners(owner)
            .gang(GangPolicy::Partial { min_running: 4 })
            .failures(failures)
            .workload(poisson(self.rate, JobShape::new(GANG_WIDTH, TASK_DEMAND)).jobs(self.jobs))
            .seed(seed);
        if let Some(cap) = self.max_events {
            builder = builder.max_events(cap);
        }
        builder.build().map_err(|e| e.to_string())
    }

    fn fed(&self) -> (u64, u64) {
        let jobs = self.jobs as u64;
        (jobs, jobs * u64::from(GANG_WIDTH))
    }

    /// Check one run's outputs (digest without the event count, which
    /// `Sim::run` does not return).
    fn check(&self, pass: &mut Pass, m: &SchedMetrics) {
        let (jobs, tasks) = self.fed();
        pass.finish(m, None, &RecordSink::of(&m.jobs), jobs, tasks);
        if m.gang.floor_violations != 0 || m.gang.lockstep_violations != 0 {
            pass.fail(format!(
                "gang invariants broken: {} floor, {} lockstep violations",
                m.gang.floor_violations, m.gang.lockstep_violations
            ));
        }
    }

    fn check_report(&self, pass: &mut Pass, report: &Report) {
        match (report.runs.first(), &report.steady_state) {
            (Some(m), Some(ss)) if report.runs.len() == 1 => {
                self.check(pass, m);
                if !(ss.response.mean.is_finite() && ss.response.mean >= TASK_DEMAND) {
                    pass.fail(format!("steady-state mean response {}", ss.response.mean));
                }
            }
            _ => pass.fail("report lacks its run or its steady-state estimate"),
        }
    }
}

impl Workload for GangFaults {
    type State = Sim;
    /// About 4 µs per `Sim`.
    const SETUP_BATCH: usize = 500;

    fn setup(&self, seed: u64) -> Result<Sim, String> {
        self.sim(seed)
    }

    fn pass(&self, sim: &Sim) -> Pass {
        let mut pass = Pass {
            runs: 1,
            ..Pass::default()
        };
        match sim.run() {
            Ok(report) => self.check_report(&mut pass, &report),
            Err(e) => pass.fail(e.to_string()),
        }
        pass
    }

    fn traced(&self, seed: u64) -> Outcome {
        let mut out = Outcome::default();
        let untraced = match self.sim(seed) {
            Ok(sim) => self.pass(&sim),
            Err(why) => {
                out.fail(1, why);
                return out;
            }
        };
        absorb(&mut out, &untraced, "untraced pass");
        let mut facts = LayerFacts::default();
        let mut spans = Spans::new();

        // Span pass: build, generate, feed, lower and run through the
        // crates' public calls.
        spans.enter("pass");
        let sim = spans.time("core.build", || self.sim(seed));
        let lowered = sim.and_then(|sim| {
            let generated = spans.time("core.generate", || sim.workload().generate(seed, 0));
            let fed = spans.time("core.feed", || drain(sim.workload(), seed, 0));
            let cfg = spans.time("core.lower", || sim.lower(0));
            match (generated, fed, cfg) {
                (Ok(g), Ok(f), Ok(c)) if g == f && g == c.jobs => Ok(c),
                (Ok(_), Ok(_), Ok(_)) => Err("feed, generate and lower disagree".to_string()),
                (g, f, c) => Err(format!(
                    "lowering failed: {:?} {:?} {:?}",
                    g.err(),
                    f.err(),
                    c.err()
                )),
            }
        });
        let cfg = match lowered {
            Ok(cfg) => cfg,
            Err(why) => {
                spans.exit();
                out.fail(1, why);
                return out;
            }
        };
        facts.feed_jobs = cfg.jobs.len() as u64;
        out.attempted += 1;
        let run = spans.time("sched.run", || cfg.run_counted());
        spans.enter("bench.sink");
        let mut traced_pass = Pass::default();
        match run {
            Ok((m, events)) => {
                self.check(&mut traced_pass, &m);
                facts.events = events;
                facts.stats = traced_pass.stats;
            }
            Err(e) => traced_pass.fail(e.to_string()),
        }
        spans.exit();
        spans.exit();
        absorb(&mut out, &traced_pass, "span pass");
        if traced_pass.digest != untraced.digest {
            out.fail(1, "span pass digest differs from the untraced pass");
        }

        // Profile pass over the same configuration.
        let mut profile = ClassProfile::default();
        out.attempted += 1;
        spans.enter("profile");
        let run = spans.time("sched.run_traced", || cfg.run_traced(&mut profile));
        spans.exit();
        let mut profiled = Pass::default();
        match run {
            Ok((m, _)) => self.check(&mut profiled, &m),
            Err(e) => profiled.fail(e.to_string()),
        }
        absorb(&mut out, &profiled, "profile pass");
        if profiled.digest != untraced.digest {
            out.fail(1, "profiled pass digest differs from the untraced pass");
        }
        facts.untraced_engine_s = spans.busy_under("pass", "sched.run");
        facts.profiled_engine_s = spans.busy_under("profile", "sched.run_traced");

        // The same stream on a quarter-size pool.
        let quarter = self.quarter();
        spans.enter("quarter");
        let q = spans
            .time("core.build", || quarter.sim(seed))
            .and_then(|sim| sim.lower(0).map_err(|e| e.to_string()));
        match q {
            Ok(qcfg) => {
                out.attempted += 1;
                match spans.time("sched.run", || qcfg.run_counted()) {
                    Ok((m, q_events)) => {
                        let mut q_pass = Pass::default();
                        quarter.check(&mut q_pass, &m);
                        absorb(&mut out, &q_pass, "quarter pass");
                        let q_ns =
                            spans.busy_under("quarter", "sched.run") * 1e9 / q_events.max(1) as f64;
                        let ns = facts.untraced_engine_s * 1e9 / facts.events.max(1) as f64;
                        facts.scaling = scaling_exponent(ns, q_ns, 4.0);
                    }
                    Err(e) => out.fail(1, format!("quarter pass: {e}")),
                }
            }
            Err(why) => out.fail(1, why),
        }
        spans.exit();

        let owners = cfg.owners[..1].to_vec();
        facts.draw_ns = spans.time("stats.owner_draws", || {
            owner_draw_ns(&owners, 2_000_000, seed)
        });
        facts.report(&mut out, &spans, &profile.0);
        paper_layers(&self.paper, seed, &mut out, &mut spans);
        out.spans = Some(spans);
        out
    }
}
