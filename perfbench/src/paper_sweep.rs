//! `paper_sweep`: the paper's §2.2 validation grid, run the way a user
//! of the builder runs it.
//!
//! O = 10, J = 1000, U ∈ {0.01, 0.05, 0.10, 0.20} × W ∈ {1, 10, 25,
//! 50, 100}. Each replication is one perfectly parallel
//! `single_job(W, J/W)` under suspend-resume with the paper's owner
//! (geometric think time, deterministic demand O), through
//! `Sim::pool(W)…run()` with the default `Backend::Auto`. Thousands of
//! tiny runs make per-run set-up and owner-cycle sampling dominate.

use crate::layers::{
    absorb, drain, owner_draw_ns, scaling_exponent, ClassProfile, LayerFacts, Pass, SimStats,
    Workload,
};
use crate::measure::Digest;
use crate::output::Outcome;
use crate::spans::Spans;
use nds_cluster::experiment::ValidationOutcome;
use nds_cluster::owner::OwnerWorkload;
use nds_core::sim::{single_job, Backend, Sim};
use nds_model::expectation::expected_job_time_int;
use nds_model::params::OwnerParams;
use nds_sched::SchedMetrics;
use nds_stats::batch_means::{BatchMeans, PAPER_BATCHES, PAPER_CONFIDENCE};
use std::hint::black_box;
use std::time::Instant;

/// Owner demand `O`.
pub const OWNER_DEMAND: f64 = 10.0;
/// Job demand `J`.
pub const JOB_DEMAND: f64 = 1000.0;

/// The grid and its replication counts.
#[derive(Debug, Clone)]
pub struct PaperSweep {
    /// Pool sizes `W`.
    pub pools: Vec<u32>,
    /// Owner utilizations `U`.
    pub utilizations: Vec<f64>,
    /// Replications per workstation of the pool …
    pub reps_per_station: u64,
    /// … but never fewer than this per grid point.
    pub min_reps: u64,
}

/// One grid point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Owner utilization.
    pub utilization: f64,
    /// Pool size.
    pub workstations: u32,
    /// Task demand `T = J/W` (whole units on the grid).
    pub task_demand: u64,
    /// Replications.
    pub reps: u64,
}

impl Point {
    /// The paper's owner at this point.
    pub fn owner(&self) -> Result<OwnerWorkload, String> {
        OwnerWorkload::paper_from_utilization(OWNER_DEMAND, self.utilization)
            .map_err(|e| e.to_string())
    }

    /// The model's owner parameters at this point.
    pub fn owner_params(&self) -> Result<OwnerParams, String> {
        OwnerParams::from_utilization(OWNER_DEMAND, self.utilization).map_err(|e| e.to_string())
    }

    fn label(&self) -> String {
        format!("U={} W={}", self.utilization, self.workstations)
    }
}

/// The order in which an engine handles an owner request that falls
/// on the very instant a task completes, and the mean job time eq. 7
/// predicts under it.
///
/// The paper's discrete model lets the owner request the CPU after
/// every unit of task work, the last one included, so a task sees
/// Binomial(T, P) interruptions and the job takes `E_j(T)` (eq. 7). In
/// a continuous-time engine the paper's owner (integer think times)
/// can request the CPU at the instant a task completes; if the
/// completion is handled first, only the first T − 1 unit boundaries
/// can interrupt and the job takes one unit plus eq. 7 at T − 1 units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventOrder {
    /// The request first, as in the paper: `E_j(T)`. The scheduler
    /// engine's order.
    RequestFirst,
    /// The completion first: `1 + E_j(T − 1)`. The cluster fast path's
    /// order.
    CompletionFirst,
}

/// The two engines a backend can force, with their event orders.
pub const ENGINES: [(Backend, EventOrder); 2] = [
    (Backend::Cluster, EventOrder::CompletionFirst),
    (Backend::Sched, EventOrder::RequestFirst),
];

impl EventOrder {
    /// Eq. 7's mean job time for `workstations` tasks of `task_demand`
    /// units under this order.
    pub fn job_time(self, task_demand: u64, workstations: u32, owner: OwnerParams) -> f64 {
        match (self, task_demand) {
            (Self::RequestFirst, t) => expected_job_time_int(t, workstations, owner),
            (Self::CompletionFirst, 0) => 0.0,
            (Self::CompletionFirst, t) => 1.0 + expected_job_time_int(t - 1, workstations, owner),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::RequestFirst => "eq. 7, request first",
            Self::CompletionFirst => "1 + E_j(T - 1), completion first",
        }
    }
}

/// One grid point's V1 comparison: its batch-means interval against
/// eq. 7 under one event order.
#[derive(Debug, Clone, Copy)]
pub struct V1Row {
    /// The point.
    pub point: Point,
    /// The interval and the prediction.
    pub outcome: ValidationOutcome,
}

/// Replications of the grid's last point (largest U and W) that
/// [`PaperSweep::engine_order`] runs on each forced backend. About 7% of
/// them differ between the two engines there, so 500 tell the engines
/// apart on any seed.
const PROBE_REPS: u64 = 500;

impl PaperSweep {
    /// The benchmark's size. Replications scale with W (200 per
    /// station, at least 2,000) so that every point's standard error
    /// stays near 0.2% of its mean: the V1 check then cannot fail by
    /// chance on any seed.
    pub fn full() -> Self {
        Self {
            pools: vec![1, 10, 25, 50, 100],
            utilizations: vec![0.01, 0.05, 0.10, 0.20],
            reps_per_station: 200,
            min_reps: 2_000,
        }
    }

    /// A small grid for self-tests.
    pub fn tiny() -> Self {
        Self {
            pools: vec![1, 10],
            utilizations: vec![0.01, 0.20],
            reps_per_station: 0,
            min_reps: 2_000,
        }
    }

    /// The grid points, U-major.
    pub fn points(&self) -> Result<Vec<Point>, String> {
        let mut points = Vec::new();
        for &utilization in &self.utilizations {
            for &w in &self.pools {
                let t = JOB_DEMAND / f64::from(w.max(1));
                if t.fract() != 0.0 {
                    return Err(format!("J/W = {t} is not a whole task demand"));
                }
                points.push(Point {
                    utilization,
                    workstations: w,
                    task_demand: t as u64,
                    reps: (self.reps_per_station * u64::from(w)).max(self.min_reps),
                });
            }
        }
        Ok(points)
    }

    /// One validated `Sim` for `point`.
    pub fn sim(&self, point: &Point, seed: u64, backend: Backend) -> Result<Sim, String> {
        Sim::pool(point.workstations)
            .owners(point.owner()?)
            .workload(single_job(point.workstations, point.task_demand as f64))
            .seed(seed)
            .replications(point.reps)
            .backend(backend)
            .build()
            .map_err(|e| e.to_string())
    }

    /// Every grid point's `Sim`.
    pub fn sims(&self, seed: u64, backend: Backend) -> Result<Vec<(Point, Sim)>, String> {
        self.points()?
            .into_iter()
            .map(|p| Ok((p, self.sim(&p, seed, backend)?)))
            .collect()
    }

    /// Run every point once through `Sim::run`.
    pub fn run_all(&self, sims: &[(Point, Sim)]) -> Pass {
        let mut pass = Pass::default();
        let mut digest = Digest::default();
        for (i, (point, sim)) in sims.iter().enumerate() {
            pass.runs += point.reps;
            digest.u64(i as u64);
            match sim.run() {
                Ok(report) => {
                    let mut times = Vec::with_capacity(report.runs.len());
                    for m in &report.runs {
                        if let Err(why) = check_run(point, m) {
                            pass.fail(format!("{}: {why}", point.label()));
                        }
                        digest.f64(m.makespan);
                        pass.stats.add(m);
                        times.push(m.makespan);
                    }
                    pass.jobs += report.runs.len() as u64;
                    pass.samples.push(times);
                }
                Err(e) => {
                    pass.failed += point.reps;
                    pass.failures.push(format!("{}: {e}", point.label()));
                    pass.samples.push(Vec::new());
                }
            }
        }
        pass.stats.digest(&mut digest);
        pass.digest = digest.value();
        pass
    }

    /// The V1 comparison of every point with samples against eq. 7
    /// under `order`.
    pub fn v1(
        &self,
        points: &[Point],
        samples: &[Vec<f64>],
        order: EventOrder,
    ) -> Result<Vec<V1Row>, String> {
        let mut rows = Vec::new();
        for (point, times) in points.iter().zip(samples) {
            if times.len() < 2 * PAPER_BATCHES {
                continue;
            }
            let owner = point.owner_params()?;
            let mut batches =
                BatchMeans::new(times.len() / PAPER_BATCHES).map_err(|e| e.to_string())?;
            for &t in times {
                batches.push(t);
            }
            let report = batches
                .report(PAPER_CONFIDENCE)
                .map_err(|e| e.to_string())?;
            let analytic = order.job_time(point.task_demand, point.workstations, owner);
            rows.push(V1Row {
                point: *point,
                outcome: ValidationOutcome::new(report, analytic),
            });
        }
        Ok(rows)
    }

    /// The paper's V1 check of samples from an engine with `order`:
    /// eq. 7 under that order within each point's 90% interval, or
    /// within 1% of its mean. One `(runs, why)` per point that
    /// disagrees.
    pub fn v1_failures(
        &self,
        points: &[Point],
        samples: &[Vec<f64>],
        order: EventOrder,
    ) -> Vec<(u64, String)> {
        match self.v1(points, samples, order) {
            Ok(rows) => rows
                .iter()
                .filter(|r| !r.outcome.agrees())
                .map(|r| {
                    (
                        r.point.reps,
                        format!(
                            "V1: {} simulated {:.4} ± {:.4} vs model {:.4} ({})",
                            r.point.label(),
                            r.outcome.report.mean,
                            r.outcome.report.half_width,
                            r.outcome.analytic,
                            order.name()
                        ),
                    )
                })
                .collect(),
            Err(why) => vec![(1, format!("V1 check could not run: {why}"))],
        }
    }

    /// The event order of the engine that produced `samples` (the job
    /// times of a pass over the grid, as from `Backend::Auto`, which
    /// picks an engine per configuration): the first [`PROBE_REPS`] job
    /// times of the grid's last point must equal, bit for bit, those of
    /// one forced backend.
    pub fn engine_order(
        &self,
        points: &[Point],
        samples: &[Vec<f64>],
        seed: u64,
    ) -> Result<EventOrder, String> {
        let Some((point, times)) = points.iter().zip(samples).next_back() else {
            return Err("no grid point to probe".into());
        };
        let probe = Point {
            reps: PROBE_REPS.min(point.reps),
            ..*point
        };
        let times = &times[..times.len().min(probe.reps as usize)];
        for (backend, order) in ENGINES {
            let report = self
                .sim(&probe, seed, backend)?
                .run()
                .map_err(|e| e.to_string())?;
            if report
                .runs
                .iter()
                .map(|m| m.makespan)
                .eq(times.iter().copied())
            {
                return Ok(order);
            }
        }
        Err(format!(
            "{}: the job times match neither forced backend's",
            point.label()
        ))
    }
}

/// Per-replication output checks.
fn check_run(point: &Point, m: &SchedMetrics) -> Result<(), String> {
    if m.completed_tasks != u64::from(point.workstations) {
        return Err(format!(
            "{} of {} tasks completed",
            m.completed_tasks, point.workstations
        ));
    }
    if !m.is_consistent() {
        return Err(format!(
            "work not conserved (residual {})",
            m.accounting_residual()
        ));
    }
    if !(m.makespan.is_finite() && m.makespan >= point.task_demand as f64) {
        return Err(format!("job time {} below the task demand", m.makespan));
    }
    Ok(())
}

impl Workload for PaperSweep {
    type State = Vec<(Point, Sim)>;
    /// About 50 µs per grid.
    const SETUP_BATCH: usize = 50;

    fn setup(&self, seed: u64) -> Result<Self::State, String> {
        self.sims(seed, Backend::Auto)
    }

    fn pass(&self, state: &Self::State) -> Pass {
        self.run_all(state)
    }

    fn verify(&self, seed: u64, state: &Self::State, first: &Pass) -> Vec<(u64, String)> {
        let points: Vec<Point> = state.iter().map(|(p, _)| *p).collect();
        match self.engine_order(&points, &first.samples, seed) {
            Ok(order) => self.v1_failures(&points, &first.samples, order),
            Err(why) => vec![(first.runs, why)],
        }
    }

    fn traced(&self, seed: u64) -> Outcome {
        let mut out = Outcome::default();
        let mut spans = Spans::new();
        let points = match self.points() {
            Ok(points) => points,
            Err(why) => {
                out.fail(1, why);
                return out;
            }
        };

        // The untraced pass the traced passes must reproduce, with the
        // untraced run's checks.
        let untraced = match self.setup(seed) {
            Ok(state) => {
                let pass = self.pass(&state);
                for (runs, why) in self.verify(seed, &state, &pass) {
                    out.fail(runs, why);
                }
                pass
            }
            Err(why) => {
                out.fail(1, why);
                return out;
            }
        };
        absorb(&mut out, &untraced, "untraced pass");

        // Span pass: each replication generated, fed, lowered and run
        // on the scheduler engine through the crates' public calls.
        let mut facts = LayerFacts::default();
        let mut digest = Digest::default();
        let mut events_at = vec![0u64; self.pools.len()];
        let mut sims = Vec::new();
        spans.enter("pass");
        for (i, point) in points.iter().enumerate() {
            spans.enter(&format!("w{}", point.workstations));
            out.attempted += point.reps;
            digest.u64(i as u64);
            let sim = match spans.time("core.build", || self.sim(point, seed, Backend::Auto)) {
                Ok(sim) => sim,
                Err(why) => {
                    out.fail(point.reps, why);
                    spans.exit();
                    continue;
                }
            };
            let pool = self.pools.iter().position(|&w| w == point.workstations);
            for rep in 0..point.reps {
                let generated = spans.time("core.generate", || sim.workload().generate(seed, rep));
                let fed = spans.time("core.feed", || drain(sim.workload(), seed, rep));
                let lowered = spans.time("core.lower", || sim.lower(rep));
                let (Ok(generated), Ok(fed), Ok(cfg)) = (generated, fed, lowered) else {
                    out.fail(1, format!("{}: rep {rep} did not lower", point.label()));
                    continue;
                };
                facts.feed_jobs += fed.len() as u64;
                if generated != fed || generated != cfg.jobs {
                    out.fail(1, format!("{}: feed and generate disagree", point.label()));
                }
                let run = spans.time("sched.run", || cfg.run_counted());
                spans.enter("bench.sink");
                match run {
                    Ok((m, events)) => {
                        if let Err(why) = check_run(point, &m) {
                            out.fail(1, format!("{}: {why}", point.label()));
                        }
                        digest.f64(m.makespan);
                        facts.stats.add(&m);
                        facts.events += events;
                        if let Some(p) = pool {
                            events_at[p] += events;
                        }
                    }
                    Err(e) => out.fail(1, format!("{}: {e}", point.label())),
                }
                spans.exit();
            }
            sims.push((*point, sim));
            spans.exit();
        }
        spans.exit();
        facts.stats.digest(&mut digest);
        let span_digest = digest.value();

        // Profile pass over the same lowered configurations.
        let mut profile = ClassProfile::default();
        let mut digest = Digest::default();
        let mut stats = SimStats::default();
        spans.enter("profile");
        for (i, (point, sim)) in sims.iter().enumerate() {
            digest.u64(i as u64);
            for rep in 0..point.reps {
                out.attempted += 1;
                let run = sim.lower(rep).map_err(|e| e.to_string()).and_then(|cfg| {
                    spans
                        .time("sched.run_traced", || cfg.run_traced(&mut profile))
                        .map_err(|e| e.to_string())
                });
                match run {
                    Ok((m, _)) => {
                        digest.f64(m.makespan);
                        stats.add(&m);
                    }
                    Err(e) => out.fail(1, format!("profiled run: {e}")),
                }
            }
        }
        spans.exit();
        stats.digest(&mut digest);
        let profile_digest = digest.value();

        let owners: Vec<OwnerWorkload> = points
            .iter()
            .filter(|p| p.workstations == self.pools[0])
            .filter_map(|p| p.owner().ok())
            .collect();
        facts.draw_ns = spans.time("stats.owner_draws", || {
            owner_draw_ns(&owners, 2_000_000, seed)
        });
        facts.untraced_engine_s = spans.self_under("pass", "sched.run");
        facts.profiled_engine_s = spans.busy_under("profile", "sched.run_traced");
        facts.scaling = self.scaling(&spans, &events_at);
        facts.report(&mut out, &spans, &profile.0);

        // The spans and the profile observe the scheduler engine, so
        // they must reproduce the untraced `Backend::Sched` grid; the
        // untraced `Backend::Auto` pass must reproduce one forced
        // backend bit for bit.
        if let Some(forced) = paper_layers(self, seed, &mut out, &mut spans) {
            let runs = untraced.runs;
            if untraced.digest != forced.cluster && untraced.digest != forced.sched {
                out.fail(runs, "Backend::Auto differs from both forced backends");
            }
            if span_digest != forced.sched {
                out.fail(runs, "span pass differs from the untraced scheduler engine");
            }
            if profile_digest != forced.sched {
                out.fail(
                    runs,
                    "profiled pass differs from the untraced scheduler engine",
                );
            }
        }
        out.spans = Some(spans);
        out
    }
}

impl PaperSweep {
    /// Per-event cost growth of the scheduler engine between the
    /// grid's largest pool and the pool nearest a quarter its size
    /// (W = 100 vs W = 25 on the full grid).
    fn scaling(&self, spans: &Spans, events_at: &[u64]) -> f64 {
        let ns_per_event = |i: usize| {
            let secs = spans.self_under(&format!("pass/w{}", self.pools[i]), "sched.run");
            secs * 1e9 / events_at[i].max(1) as f64
        };
        let Some(large) = (0..self.pools.len()).max_by_key(|&i| self.pools[i]) else {
            return 0.0;
        };
        let target = f64::from(self.pools[large]) / 4.0;
        let small = (0..self.pools.len())
            .min_by(|&a, &b| {
                let gap = |i: usize| (f64::from(self.pools[i]) - target).abs();
                gap(a).total_cmp(&gap(b))
            })
            .unwrap_or(large);
        scaling_exponent(
            ns_per_event(large),
            ns_per_event(small),
            f64::from(self.pools[large]) / f64::from(self.pools[small]),
        )
    }
}

/// Digests of the paper grid with each backend forced.
#[derive(Debug, Clone, Copy)]
pub struct BackendDigests {
    /// `Backend::Cluster`, the closed-form fast path.
    pub cluster: u64,
    /// `Backend::Sched`, the scheduler engine.
    pub sched: u64,
}

/// The paper-grid layer metrics every traced run reports: host µs per
/// replication with the cluster fast path and with the scheduler
/// engine forced, the share of replications whose job times differ
/// between the two, and the analytic model's cost and agreement (eq.
/// 7, the paper's event order) with the fast path's job times, the
/// ones `Backend::Auto` reports. Each forced grid must pass the V1
/// check under its own engine's event order.
pub fn paper_layers(
    sweep: &PaperSweep,
    seed: u64,
    out: &mut Outcome,
    spans: &mut Spans,
) -> Option<BackendDigests> {
    let points = sweep.points().ok()?;
    spans.enter("paper");
    let mut passes = Vec::new();
    for ((backend, order), (span, metric)) in ENGINES.into_iter().zip([
        ("cluster.run", "cluster.rep_us"),
        ("sched.run", "sched.paper_rep_us"),
    ]) {
        let pass = match sweep.sims(seed, backend) {
            Ok(sims) => spans.time(span, || sweep.run_all(&sims)),
            Err(why) => {
                out.fail(1, why);
                spans.exit();
                return None;
            }
        };
        absorb(out, &pass, backend.name());
        for (runs, why) in sweep.v1_failures(&points, &pass.samples, order) {
            out.fail(runs, format!("{}: {why}", backend.name()));
        }
        let secs = spans.busy_under("paper", span);
        out.metric(metric, secs * 1e6 / pass.runs.max(1) as f64, "us");
        passes.push(pass);
    }
    let start = Instant::now();
    spans.time("model.eval", || {
        for p in &points {
            if let Ok(owner) = p.owner_params() {
                black_box(expected_job_time_int(p.task_demand, p.workstations, owner));
            }
        }
    });
    let eval_s = start.elapsed().as_secs_f64();
    spans.exit();

    let (cluster, sched) = (&passes[0], &passes[1]);
    let (mut differ, mut total) = (0usize, 0usize);
    for (a, b) in cluster.samples.iter().zip(&sched.samples) {
        differ += a.iter().zip(b).filter(|(x, y)| x != y).count();
        total += a.len();
    }
    out.metric(
        "cluster.sched_mismatch_frac",
        differ as f64 / total.max(1) as f64,
        "fraction",
    );
    out.metric("model.eval_s", eval_s, "s");
    match sweep.v1(&points, &cluster.samples, EventOrder::RequestFirst) {
        Ok(rows) if !rows.is_empty() => {
            let max_rel = rows
                .iter()
                .map(|r| r.outcome.relative_error)
                .fold(0.0, f64::max);
            let agree = rows.iter().filter(|r| r.outcome.agrees()).count();
            out.metric("model.max_rel_err", max_rel, "fraction");
            out.metric(
                "model.agree_frac",
                agree as f64 / rows.len() as f64,
                "fraction",
            );
        }
        Ok(_) => out.fail(1, "paper grid produced no samples"),
        Err(why) => out.fail(1, why),
    }
    Some(BackendDigests {
        cluster: cluster.digest,
        sched: sched.digest,
    })
}
