//! `nds` — command-line feasibility tool.
//!
//! ```text
//! nds analyze --job 7200 --workstations 60 --owner-demand 10 --utilization 0.10
//! nds thresholds [--target 0.8]
//! nds validate [--quick]
//! nds sensitivity --task 100 --workstations 60 --owner-demand 10 --utilization 0.10
//! nds sched --workstations 16 --utilization 0.10 --eviction checkpoint
//! nds stream --rate 0.02 --utilization 0.10 --jobs 400
//! nds gang --gang-size 8 --utilization 0.10 --gang suspend-all
//! nds trace sched --out traces
//! nds replay cluster_day.csv --machines 64 --chunk 4096
//! ```

use nds::cluster::OwnerWorkload;
use nds::core::conclusions::check_all_conclusions;
use nds::core::prelude::*;
use nds::core::report::Table;
use nds::core::sim::{
    closed, poisson, Backend, Flight, JobShape, Sim, SimBuilder, SimError, SyntheticTrace,
    TraceWorkload,
};
use nds::model::sensitivity::elasticities;
use nds::model::solver::required_task_ratio;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("thresholds") => cmd_thresholds(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("sensitivity") => cmd_sensitivity(&args[1..]),
        Some("sched") => cmd_sched(&args[1..]),
        Some("stream") => cmd_stream(&args[1..]),
        Some("gang") => cmd_gang(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("diff-trace") => cmd_diff_trace(&args[1..]),
        Some("help") | None => {
            print_usage();
            0
        }
        Some(other) => {
            eprintln!("unknown command: {other}\n");
            print_usage();
            2
        }
    };
    std::process::exit(code);
}

fn print_usage() {
    println!(
        "nds — feasibility of cycle-stealing on non-dedicated workstations\n\
         (Leutenegger & Sun, SC'93)\n\n\
         commands:\n\
         \x20 analyze     --job J --workstations W --owner-demand O --utilization U\n\
         \x20             [--target 0.8]      full feasibility assessment\n\
         \x20 thresholds  [--target 0.8]      required task ratios by U and W\n\
         \x20 validate    [--quick]           rerun the paper's conclusion checks\n\
         \x20 sensitivity --task T --workstations W --owner-demand O --utilization U\n\
         \x20                                 which knob moves weighted efficiency most\n\
         \x20 sched       [--workstations W] [--utilization U] [--owner-demand O]\n\
         \x20             [--jobs N] [--tasks K] [--task-demand T] [--arrival-gap G]\n\
         \x20             [--placement random|round-robin|least-loaded]\n\
         \x20             [--eviction restart|suspend|migrate|checkpoint|adaptive]\n\
         \x20             [--overhead C] [--interval I] [--threshold T]\n\
         \x20             [--discipline fcfs|sjf] [--seed S] [--reps R]\n\
         \x20                                 cycle-stealing pool scheduler experiment\n\
         \x20 stream      [--rate L] [--workstations W] [--utilization U]\n\
         \x20             [--owner-demand O] [--tasks K] [--task-demand T]\n\
         \x20             [--jobs N] [--warmup M] [--batches B] [--seed S]\n\
         \x20             (plus the sched placement/eviction/discipline flags)\n\
         \x20                                 open Poisson stream, steady-state response CI\n\
         \x20 gang        [--workstations W] [--utilization U] [--owner-demand O]\n\
         \x20             [--jobs N] [--gang-size K] [--task-demand T] [--arrival-gap G]\n\
         \x20             [--gang suspend-all|migrate-all|partial|off] [--overhead C]\n\
         \x20             [--min-running F | --min-running-frac X]\n\
         \x20                                 partial-gang floor (implies --gang partial)\n\
         \x20             [--placement P] [--discipline D] [--seed S] [--reps R]\n\
         \x20                                 gang co-allocation vs independent tasks\n\
         \x20 trace       [sched|stream|gang] [--out DIR] [--workstations W]\n\
         \x20             [--utilization U] [--owner-demand O] [--seed S] [--reps R]\n\
         \x20             [--metrics-every T] [--cheap] [--trace-capacity N]\n\
         \x20                                 flight-record a scenario: JSONL event trace,\n\
         \x20                                 Chrome/Perfetto JSON, metrics + profile JSON\n\
         \x20                                 (records engine events; to replay a job\n\
         \x20                                 trace as a workload, see `replay` below)\n\
         \x20 replay      [FILE.csv|FILE.jsonl] [--machines M] [--jobs N] [--warmup K]\n\
         \x20             [--chunk C] [--utilization U] [--owner-demand O] [--batches B]\n\
         \x20             [--seed S] [--reps R] [--shards P] [--max-events E]\n\
         \x20                                 replay a job trace through the streaming\n\
         \x20                                 engine in O(chunk) memory; with no FILE,\n\
         \x20                                 a synthetic datacenter day (diurnal\n\
         \x20                                 arrivals, Pareto sizes, hot/cool owners);\n\
         \x20                                 unrelated to `trace` above, which records\n\
         \x20                                 the engine's own event log\n\
         \x20 diff-trace  A B [--context K]   first divergence between two JSONL traces\n\
         \x20 help                            this message\n\n\
         sched/stream/gang also accept --trace DIR (record the run's flight data\n\
         under DIR) and --metrics-every T (sim-time snapshot interval, default 100).\n\
         sched/stream/gang accept --mtbf M [--mttr R] (machine failure injection:\n\
         exponential crashes with mean uptime M and mean repair R, default 15; a\n\
         crash destroys the running guest's unprotected progress whatever the\n\
         eviction policy — only checkpointed work survives). --eviction adaptive\n\
         restarts below --threshold T invested progress (default 60), then\n\
         checkpoints every --interval I.\n\
         sched/stream/gang/trace accept --progress SECS (heartbeat to stderr every\n\
         SECS wall-clock seconds), --cheap (bounded-cost recording tier: lifecycle\n\
         records only, grid-throttled state, host profiling off), and\n\
         --trace-capacity N (keep only the newest N records in a ring)"
    );
}

/// Pull a numeric `--name value` from an argument list: `None` when the
/// flag is absent. A flag that is present without a finite number after
/// it is a flag-parse error, so it fails closed: the message names the
/// flag and the process exits 2 instead of running the defaults.
fn flag(args: &[String], name: &str) -> Option<f64> {
    if !has_flag(args, name) {
        return None;
    }
    let value = string_flag(args, name);
    match value.and_then(|v| v.parse::<f64>().ok()) {
        Some(v) if v.is_finite() => Some(v),
        _ => {
            eprintln!(
                "{name} expects a finite number, got {}",
                value.unwrap_or("nothing")
            );
            std::process::exit(2);
        }
    }
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn require(args: &[String], name: &str) -> Result<f64, String> {
    flag(args, name).ok_or_else(|| format!("missing {name} <value>"))
}

fn cmd_analyze(args: &[String]) -> i32 {
    let parsed = (|| -> Result<_, String> {
        Ok((
            require(args, "--job")?,
            require(args, "--workstations")? as u32,
            require(args, "--owner-demand")?,
            require(args, "--utilization")?,
            flag(args, "--target").unwrap_or(0.80),
        ))
    })();
    let (j, w, o, u, target) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("analyze: {e}");
            return 2;
        }
    };
    let analyzer = match FeasibilityAnalyzer::builder()
        .job_demand(j)
        .workstations(w)
        .owner_demand(o)
        .owner_utilization(u)
        .target_weighted_efficiency(target)
        .build()
    {
        Ok(a) => a,
        Err(e) => {
            eprintln!("analyze: {e}");
            return 2;
        }
    };
    let a = match analyzer.assess() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("analyze: {e}");
            return 1;
        }
    };
    let m = &a.metrics;
    let mut t = Table::new(format!(
        "feasibility of J={j} on W={w} stations (O={o}, U={u})"
    ))
    .headers(["metric", "value"]);
    t.row(["task ratio T/O", &format!("{:.2}", m.task_ratio)]);
    t.row(["E[task time]", &format!("{:.2}", m.expected_task_time)]);
    t.row(["E[job time]", &format!("{:.2}", m.expected_job_time)]);
    t.row(["p95 job time", &format!("{:.2}", a.job_time_p95)]);
    t.row(["speedup", &format!("{:.2}", m.speedup)]);
    t.row(["weighted speedup", &format!("{:.2}", m.weighted_speedup)]);
    t.row(["efficiency", &format!("{:.4}", m.efficiency)]);
    t.row([
        "weighted efficiency",
        &format!("{:.4}", m.weighted_efficiency),
    ]);
    t.row([
        "required task ratio",
        &format!("{:.2}", a.required_task_ratio),
    ]);
    t.row([
        "max useful pool",
        &a.max_useful_workstations
            .map_or("none".to_string(), |w| w.to_string()),
    ]);
    t.row([
        "verdict",
        if a.feasible { "FEASIBLE" } else { "infeasible" },
    ]);
    print!("{}", t.render());
    i32::from(!a.feasible)
}

fn cmd_thresholds(args: &[String]) -> i32 {
    let target = flag(args, "--target").unwrap_or(0.80);
    let pools = [2u32, 8, 20, 60, 100];
    let mut t = Table::new(format!(
        "required task ratio for weighted efficiency >= {target}"
    ))
    .headers({
        let mut h = vec!["U".to_string()];
        h.extend(pools.iter().map(|w| format!("W={w}")));
        h
    });
    for u in [0.01, 0.05, 0.10, 0.20] {
        let owner = match OwnerParams::from_utilization(10.0, u) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("thresholds: {e}");
                return 1;
            }
        };
        let mut row = vec![format!("{u:.2}")];
        for &w in &pools {
            match required_task_ratio(w, owner, target) {
                Ok(r) => row.push(format!("{r:.1}")),
                Err(_) => row.push("-".into()),
            }
        }
        t.row(row);
    }
    print!("{}", t.render());
    0
}

fn cmd_validate(args: &[String]) -> i32 {
    let checks = match check_all_conclusions() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("validate: {e}");
            return 1;
        }
    };
    let mut t = Table::new("paper §5 conclusions vs this implementation").headers([
        "claim",
        "published",
        "reproduced",
        "pass",
    ]);
    let mut failures = 0;
    for c in &checks {
        if !c.passed {
            failures += 1;
        }
        t.row([
            c.claim.clone(),
            format!("{}", c.published),
            format!("{:.3}", c.reproduced),
            if c.passed {
                "yes".into()
            } else {
                "NO".to_string()
            },
        ]);
    }
    print!("{}", t.render());
    if !has_flag(args, "--quick") {
        // Also spot-check simulation-vs-analysis agreement.
        let suite = ValidationSuite::quick(2024);
        match suite.validate_point(1000.0, 10, 0.10) {
            Ok(row) => {
                println!(
                    "\nsim vs analysis at (J=1000, W=10, U=10%): rel err {:.4} ({})",
                    row.outcome.relative_error,
                    if row.outcome.agrees() {
                        "agrees"
                    } else {
                        "DISAGREES"
                    }
                );
                if !row.outcome.agrees() {
                    failures += 1;
                }
            }
            Err(e) => {
                eprintln!("validate: {e}");
                return 1;
            }
        }
    }
    println!(
        "\n{}/{} checks passed",
        checks.len() - failures,
        checks.len()
    );
    i32::from(failures > 0)
}

/// Pull an integer `--name value` in `[0, max]`, erroring (not
/// truncating) on fractional or out-of-range input.
fn int_flag(args: &[String], name: &str, default: u64, max: u64) -> Result<u64, String> {
    match string_flag(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .ok()
            .filter(|&n| n <= max)
            .ok_or_else(|| format!("{name} expects an integer in 0..={max}, got {v}")),
    }
}

/// Pull the raw `--name value` from an argument list.
fn string_flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parse the placement/eviction/discipline policy flags shared by the
/// `sched` and `stream` commands.
fn policy_flags(
    args: &[String],
) -> Result<(PlacementKind, EvictionPolicy, QueueDiscipline), String> {
    let overhead = flag(args, "--overhead").unwrap_or(2.0);
    let interval = flag(args, "--interval").unwrap_or(30.0);
    let placement = match string_flag(args, "--placement") {
        None => PlacementKind::LeastLoaded,
        Some(s) => {
            PlacementKind::parse(s).ok_or_else(|| format!("unknown placement policy {s}"))?
        }
    };
    let eviction = match string_flag(args, "--eviction").unwrap_or("suspend") {
        "restart" => EvictionPolicy::Restart,
        "suspend" | "suspend-resume" => EvictionPolicy::SuspendResume,
        "migrate" => EvictionPolicy::Migrate { overhead },
        "checkpoint" => EvictionPolicy::Checkpoint { interval, overhead },
        "adaptive" => EvictionPolicy::Adaptive {
            threshold: flag(args, "--threshold").unwrap_or(60.0),
            interval,
            overhead,
        },
        other => return Err(format!("unknown eviction policy {other}")),
    };
    let discipline = match string_flag(args, "--discipline").unwrap_or("fcfs") {
        "fcfs" => QueueDiscipline::Fcfs,
        "sjf" | "sjf-backfill" => QueueDiscipline::SjfBackfill,
        other => return Err(format!("unknown queue discipline {other}")),
    };
    Ok((placement, eviction, discipline))
}

/// Map a [`SimError`] to the CLI's exit-code convention: 2 for
/// configuration mistakes, 1 for runs that could not complete.
/// Apply the observability flags shared by `sched`/`stream`/`gang`/
/// `trace` to a simulation builder: `--progress SECS` (stderr
/// heartbeat), `--cheap` (bounded-cost recording tier), and
/// `--trace-capacity N` (ring-buffer record storage).
fn obs_flags(mut b: SimBuilder, args: &[String]) -> Result<SimBuilder, String> {
    if let Some(every) = string_flag(args, "--progress") {
        let every = every
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v > 0.0)
            .ok_or_else(|| format!("--progress expects seconds > 0, got {every}"))?;
        b = b.progress(every);
    }
    if has_flag(args, "--cheap") {
        b = b.trace_cheap(true);
    }
    let cap = int_flag(args, "--trace-capacity", 0, 1 << 32)? as usize;
    if cap > 0 {
        b = b.trace_capacity(cap);
    }
    Ok(b)
}

/// Parse the failure-injection flags shared by `sched`/`stream`/`gang`:
/// `--mtbf M` arms a [`FailureModel`] with exponential uptime of mean
/// `M` and exponential repair of mean `--mttr R` (default 15); without
/// `--mtbf` the run injects no failures and is bit-identical to the
/// pre-failure engine. `--mttr` without `--mtbf` is a usage error.
fn fault_flags(b: SimBuilder, args: &[String]) -> Result<SimBuilder, String> {
    let Some(mtbf) = flag(args, "--mtbf") else {
        if string_flag(args, "--mttr").is_some() {
            return Err("--mttr without --mtbf (nothing to repair)".into());
        }
        return Ok(b);
    };
    let mttr = flag(args, "--mttr").unwrap_or(15.0);
    let model = FailureModel::exponential(mtbf, mttr)
        .map_err(|e| format!("--mtbf {mtbf} --mttr {mttr}: {e}"))?;
    Ok(b.failures(model))
}

fn sim_error_code(e: &SimError) -> i32 {
    match e {
        // Stats errors are configuration mistakes too: the batch/window
        // split could not form an interval.
        SimError::InvalidPool { .. }
        | SimError::InvalidWorkload { .. }
        | SimError::InvalidPolicy { .. }
        | SimError::MissingWorkload
        | SimError::UnsupportedBackend { .. }
        | SimError::Stats(_) => 2,
        SimError::Sched(_) | SimError::Cluster(_) => 1,
    }
}

/// Run the built experiment under the flight recorder and write every
/// replication's exports under `dir` (`repN.trace.jsonl`,
/// `repN.chrome.json`, `repN.metrics.json`, `repN.profile.json`).
/// Shared by `nds trace` and the `--trace DIR` flag on the
/// `sched`/`stream`/`gang` commands.
fn trace_to_dir(sim: &Sim, dir: &str) -> Result<Vec<Flight>, String> {
    let flights = sim
        .run_flight()
        .map_err(|e| format!("flight recorder: {e}"))?;
    let dir = std::path::Path::new(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    for f in &flights {
        let rep = f.replication;
        let write = |name: String, body: String| {
            let path = dir.join(name);
            std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))
        };
        write(format!("rep{rep}.trace.jsonl"), f.to_jsonl())?;
        write(format!("rep{rep}.chrome.json"), f.to_chrome_json())?;
        write(format!("rep{rep}.metrics.json"), f.metrics_json())?;
        write(format!("rep{rep}.profile.json"), f.profile_json())?;
    }
    Ok(flights)
}

/// Handle a command's optional `--trace DIR` flag: flight-record the
/// already-run experiment and report where the exports went. Returns
/// `false` if tracing was requested but failed.
fn maybe_trace(cmd: &str, args: &[String], sim: &Sim) -> bool {
    let Some(dir) = string_flag(args, "--trace") else {
        return true;
    };
    match trace_to_dir(sim, dir) {
        Ok(flights) => {
            let records: usize = flights.iter().map(|f| f.recorder.events().len()).sum();
            println!(
                "\ntraced {} replication(s): {records} records -> {dir}/rep*.{{trace.jsonl,chrome.json,metrics.json,profile.json}}",
                flights.len()
            );
            true
        }
        Err(e) => {
            eprintln!("{cmd}: {e}");
            false
        }
    }
}

fn cmd_sched(args: &[String]) -> i32 {
    // Defaults mirror the canonical scheduler scenario so the CLI, the
    // ext_sched_policies bench, and tests all describe one experiment.
    let scenario = Scenario::SchedulerPool;
    let default_w = u64::from(scenario.workstations()[0]);
    // (--tasks defaults to one per workstation, matching the mix when
    // W is the scenario's 16.)
    let (default_jobs, _, default_gap) = scenario.sched_job_mix().expect("scheduler scenario");
    let ints = (|| -> Result<_, String> {
        let w = int_flag(args, "--workstations", default_w, u64::from(u32::MAX))? as u32;
        Ok((
            w,
            int_flag(args, "--jobs", u64::from(default_jobs), u64::from(u32::MAX))? as u32,
            int_flag(args, "--tasks", u64::from(w), u64::from(u32::MAX))? as u32,
            int_flag(args, "--seed", 2024, u64::MAX)?,
            int_flag(args, "--reps", 5, 1 << 20)?.max(1),
        ))
    })();
    let (w, jobs, tasks, seed, reps) = match ints {
        Ok(v) => v,
        Err(e) => {
            eprintln!("sched: {e}");
            return 2;
        }
    };
    let u = flag(args, "--utilization").unwrap_or(0.10);
    let o = flag(args, "--owner-demand").unwrap_or(10.0);
    let task_demand = flag(args, "--task-demand")
        .unwrap_or_else(|| scenario.sched_task_demand().expect("scheduler scenario"));
    let arrival_gap = flag(args, "--arrival-gap").unwrap_or(default_gap);
    let (placement, eviction, discipline) = match policy_flags(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("sched: {e}");
            return 2;
        }
    };

    let owner = match OwnerWorkload::continuous_exponential(o, u) {
        Ok(owner) => owner,
        Err(e) => {
            eprintln!("sched: {e}");
            return 2;
        }
    };
    let specs = JobSpec::stream(jobs, tasks, task_demand, arrival_gap);
    let builder = Sim::pool(w)
        .owners(owner)
        .placement(placement)
        .eviction(eviction)
        .discipline(discipline)
        .calibration(10_000.0)
        .seed(seed)
        .replications(reps)
        .backend(Backend::Sched)
        .metrics_every(flag(args, "--metrics-every").unwrap_or(100.0))
        .workload(closed(specs));
    let builder = match obs_flags(builder, args).and_then(|b| fault_flags(b, args)) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("sched: {e}");
            return 2;
        }
    };
    let sim = match builder.build() {
        Ok(sim) => sim,
        Err(e) => {
            eprintln!("sched: {e}");
            return sim_error_code(&e);
        }
    };
    let report = match sim.run() {
        Ok(report) => report,
        Err(e) => {
            eprintln!("sched: {e}");
            return sim_error_code(&e);
        }
    };

    let mut t = Table::new(format!(
        "cycle-stealing pool: W={w}, U={u}, O={o}, {jobs} jobs x {tasks} tasks x {task_demand}, \
         {} placement, {} eviction, {} queue ({reps} reps)",
        placement.name(),
        eviction.label(),
        discipline.name(),
    ))
    .headers(["metric", "mean"]);
    t.row(["makespan", &format!("{:.1}", report.mean_makespan())]);
    t.row([
        "mean job response",
        &format!("{:.1}", report.mean_over(|m| m.mean_response_time())),
    ]);
    t.row([
        "delivered CPU",
        &format!("{:.1}", report.mean_over(|m| m.delivered)),
    ]);
    t.row([
        "goodput",
        &format!("{:.1}", report.mean_over(|m| m.goodput)),
    ]);
    t.row(["wasted work", &format!("{:.1}", report.mean_wasted())]);
    t.row([
        "checkpoint overhead",
        &format!("{:.1}", report.mean_over(|m| m.checkpoint_overhead)),
    ]);
    t.row([
        "goodput fraction",
        &format!("{:.4}", report.mean_goodput_fraction()),
    ]);
    t.row(["evictions", &format!("{:.1}", report.mean_evictions())]);
    t.row([
        "migrations",
        &format!("{:.1}", report.mean_over(|m| m.migrations as f64)),
    ]);
    t.row([
        "restarts",
        &format!("{:.1}", report.mean_over(|m| m.restarts as f64)),
    ]);
    t.row([
        "mean queue wait",
        &format!("{:.2}", report.mean_queue_wait()),
    ]);
    t.row([
        "mean available machines",
        &format!("{:.2}", report.mean_over(|m| m.mean_available_machines)),
    ]);
    if flag(args, "--mtbf").is_some() {
        t.row([
            "crashes",
            &format!("{:.1}", report.mean_over(|m| m.crashes as f64)),
        ]);
        t.row([
            "crash-destroyed CPU",
            &format!("{:.1}", report.mean_over(|m| m.crash_lost)),
        ]);
        t.row([
            "machine downtime",
            &format!("{:.1}", report.mean_over(|m| m.downtime)),
        ]);
        t.row([
            "observed availability",
            &format!(
                "{:.4}",
                report.mean_over(|m| if m.makespan == 0.0 {
                    1.0
                } else {
                    1.0 - m.downtime / (f64::from(w) * m.makespan)
                })
            ),
        ]);
    }
    print!("{}", t.render());
    let consistent = report.is_consistent();
    println!(
        "\nwork conservation (delivered == goodput + wasted + ckpt): {}",
        if consistent { "holds" } else { "VIOLATED" }
    );
    let traced = maybe_trace("sched", args, &sim);
    i32::from(!(consistent && traced))
}

fn cmd_stream(args: &[String]) -> i32 {
    // Defaults mirror the open-stream scenario, the open-system
    // counterpart of `sched`'s closed defaults.
    let scenario = Scenario::OpenStream;
    let default_w = u64::from(scenario.workstations()[0]);
    let (default_tasks, default_demand) = scenario.open_job_shape().expect("open scenario");
    let (default_jobs, default_warmup) = scenario.open_window().expect("open scenario");
    let ints = (|| -> Result<_, String> {
        Ok((
            int_flag(args, "--workstations", default_w, u64::from(u32::MAX))? as u32,
            int_flag(
                args,
                "--tasks",
                u64::from(default_tasks),
                u64::from(u32::MAX),
            )? as u32,
            int_flag(args, "--jobs", default_jobs as u64, 1 << 24)? as usize,
            int_flag(args, "--warmup", default_warmup as u64, 1 << 24)? as usize,
            int_flag(args, "--batches", 20, 1 << 16)? as usize,
            int_flag(args, "--seed", 2024, u64::MAX)?,
            int_flag(args, "--reps", 1, 1 << 20)?.max(1),
        ))
    })();
    let (w, tasks, jobs, warmup, batches, seed, reps) = match ints {
        Ok(v) => v,
        Err(e) => {
            eprintln!("stream: {e}");
            return 2;
        }
    };
    let rate = flag(args, "--rate")
        .unwrap_or_else(|| scenario.open_arrival_rate().expect("open scenario"));
    let u = flag(args, "--utilization").unwrap_or(0.10);
    let o = flag(args, "--owner-demand").unwrap_or(10.0);
    let task_demand = flag(args, "--task-demand").unwrap_or(default_demand);
    let (placement, eviction, discipline) = match policy_flags(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("stream: {e}");
            return 2;
        }
    };
    let owner = match OwnerWorkload::continuous_exponential(o, u) {
        Ok(owner) => owner,
        Err(e) => {
            eprintln!("stream: {e}");
            return 2;
        }
    };
    let builder = Sim::pool(w)
        .owners(owner)
        .placement(placement)
        .eviction(eviction)
        .discipline(discipline)
        .calibration(10_000.0)
        .seed(seed)
        .replications(reps)
        .batches(batches)
        .metrics_every(flag(args, "--metrics-every").unwrap_or(100.0))
        .workload(
            poisson(rate, JobShape::new(tasks, task_demand))
                .jobs(jobs)
                .warmup(warmup),
        );
    let builder = match obs_flags(builder, args).and_then(|b| fault_flags(b, args)) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("stream: {e}");
            return 2;
        }
    };
    let sim = match builder.build() {
        Ok(sim) => sim,
        Err(e) => {
            eprintln!("stream: {e}");
            return sim_error_code(&e);
        }
    };
    let report = match sim.run() {
        Ok(report) => report,
        Err(e) => {
            eprintln!("stream: {e}");
            return sim_error_code(&e);
        }
    };
    let ss = report
        .steady_state
        .expect("open workloads always report steady state");

    let mut t = Table::new(format!(
        "open Poisson stream: λ={rate}, W={w}, U={u}, O={o}, {jobs} jobs x {tasks} tasks x \
         {task_demand} ({warmup} warm-up, {} placement, {} eviction, {} queue, {reps} reps)",
        placement.name(),
        eviction.label(),
        discipline.name(),
    ))
    .headers(["metric", "value"]);
    t.row([
        "steady-state mean response",
        &format!("{:.1}", ss.response.mean),
    ]);
    t.row([
        "90% confidence interval",
        &format!("[{:.1}, {:.1}]", ss.response.lower(), ss.response.upper()),
    ]);
    t.row([
        "relative half-width",
        &format!("{:.4}", ss.response.relative_half_width()),
    ]);
    t.row([
        "batches x batch size",
        &format!("{} x {}", ss.response.batches, ss.response.batch_size),
    ]);
    t.row([
        "batch lag-1 autocorrelation",
        &format!(
            "{:+.3} ({})",
            ss.diagnostic.lag1,
            if ss.diagnostic.acceptable {
                "acceptable"
            } else {
                "grow the batch size"
            }
        ),
    ]);
    t.row([
        "observed jobs (post warm-up)",
        &report.response.jobs.to_string(),
    ]);
    t.row([
        "fastest / slowest response",
        &format!("{:.1} / {:.1}", report.response.min, report.response.max),
    ]);
    t.row(["mean makespan", &format!("{:.1}", report.mean_makespan())]);
    t.row([
        "goodput fraction",
        &format!("{:.4}", report.mean_goodput_fraction()),
    ]);
    t.row([
        "mean queue wait",
        &format!("{:.2}", report.mean_queue_wait()),
    ]);
    print!("{}", t.render());
    let consistent = report.is_consistent();
    println!(
        "\nwork conservation (delivered == goodput + wasted + ckpt): {}",
        if consistent { "holds" } else { "VIOLATED" }
    );
    let traced = maybe_trace("stream", args, &sim);
    i32::from(!(consistent && traced))
}

fn cmd_gang(args: &[String]) -> i32 {
    // Defaults mirror the gang scenario so the CLI, the ext_gang bench,
    // and the tests all describe one experiment family.
    let scenario = Scenario::GangPool;
    let default_w = u64::from(scenario.workstations()[0]);
    let (default_jobs, default_size, default_demand, default_gap) =
        scenario.gang_job_mix().expect("gang scenario");
    let ints = (|| -> Result<_, String> {
        Ok((
            int_flag(args, "--workstations", default_w, u64::from(u32::MAX))? as u32,
            int_flag(args, "--jobs", u64::from(default_jobs), u64::from(u32::MAX))? as u32,
            int_flag(
                args,
                "--gang-size",
                u64::from(default_size),
                u64::from(u32::MAX),
            )? as u32,
            int_flag(args, "--min-running", 0, u64::from(u32::MAX))? as u32,
            int_flag(args, "--seed", 2024, u64::MAX)?,
            int_flag(args, "--reps", 5, 1 << 20)?.max(1),
        ))
    })();
    let (w, jobs, gang_size, min_running, seed, reps) = match ints {
        Ok(v) => v,
        Err(e) => {
            eprintln!("gang: {e}");
            return 2;
        }
    };
    let u = flag(args, "--utilization").unwrap_or(0.10);
    let o = flag(args, "--owner-demand").unwrap_or(10.0);
    let task_demand = flag(args, "--task-demand").unwrap_or(default_demand);
    let arrival_gap = flag(args, "--arrival-gap").unwrap_or(default_gap);
    let overhead = flag(args, "--overhead").unwrap_or(2.0);
    // An explicit floor flag selects the partial policy unless the
    // caller named one (`--min-running 0` clamps to 1, like every
    // other surface); `--gang partial` without a floor defaults to
    // half the gang (rounded up by the per-job clamp). A fractional
    // floor picks the PartialFrac spelling directly.
    let min_running_given = has_flag(args, "--min-running");
    let frac = flag(args, "--min-running-frac");
    let default_policy = if min_running_given || frac.is_some() {
        "partial"
    } else {
        "suspend-all"
    };
    let policy_name = string_flag(args, "--gang").unwrap_or(default_policy);
    let gang = match (policy_name, frac) {
        ("partial" | "min-running", Some(min_running_frac)) => {
            Some(GangPolicy::PartialFrac { min_running_frac })
        }
        _ => GangPolicy::parse(
            policy_name,
            overhead,
            if min_running_given {
                min_running
            } else {
                gang_size.div_ceil(2)
            },
        ),
    };
    let gang = match gang {
        Some(g) => g,
        None => {
            eprintln!(
                "gang: unknown gang policy {policy_name} \
                 (suspend-all | migrate-all | partial | off)"
            );
            return 2;
        }
    };
    if let Err((field, reason)) = gang.validate() {
        eprintln!("gang: {field}: {reason}");
        return 2;
    }
    let (placement, eviction, discipline) = match policy_flags(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("gang: {e}");
            return 2;
        }
    };
    let owner = match OwnerWorkload::continuous_exponential(o, u) {
        Ok(owner) => owner,
        Err(e) => {
            eprintln!("gang: {e}");
            return 2;
        }
    };
    let specs = JobSpec::stream(jobs, gang_size, task_demand, arrival_gap);
    let build = |gang: GangPolicy| -> Result<Sim, String> {
        let builder = Sim::pool(w)
            .owners(&owner)
            .placement(placement)
            .eviction(eviction)
            .gang(gang)
            .discipline(discipline)
            .calibration(10_000.0)
            .seed(seed)
            .replications(reps)
            .backend(Backend::Sched)
            .metrics_every(flag(args, "--metrics-every").unwrap_or(100.0))
            .workload(closed(specs.clone()));
        fault_flags(obs_flags(builder, args)?, args)?
            .build()
            .map_err(|e| e.to_string())
    };
    let sim = match build(gang) {
        Ok(sim) => sim,
        Err(e) => {
            eprintln!("gang: {e}");
            return 2;
        }
    };
    let report = match sim.run() {
        Ok(report) => report,
        Err(e) => {
            eprintln!("gang: {e}");
            return sim_error_code(&e);
        }
    };
    // The same workload under independent-task scheduling, for the
    // barrier-premium comparison (skipped when gangs are already off).
    let independent = if gang.is_on() {
        let baseline = build(GangPolicy::Off).and_then(|s| s.run().map_err(|e| e.to_string()));
        match baseline {
            Ok(report) => Some(report),
            Err(e) => {
                eprintln!("gang: independent baseline: {e}");
                return 1;
            }
        }
    } else {
        None
    };

    let mut t = Table::new(format!(
        "gang co-allocation: W={w}, U={u}, O={o}, {jobs} jobs x {gang_size} tasks x {task_demand}, \
         gang {}, {} placement, {} queue ({reps} reps)",
        gang.label(),
        placement.name(),
        discipline.name(),
    ))
    .headers(["metric", "mean"]);
    t.row(["makespan", &format!("{:.1}", report.mean_makespan())]);
    t.row([
        "mean job response",
        &format!("{:.1}", report.mean_over(|m| m.mean_response_time())),
    ]);
    t.row([
        "goodput fraction",
        &format!("{:.4}", report.mean_goodput_fraction()),
    ]);
    t.row(["evictions", &format!("{:.1}", report.mean_evictions())]);
    t.row([
        "gang starts",
        &format!("{:.1}", report.mean_over(|m| m.gang.gang_starts as f64)),
    ]);
    t.row([
        "gang suspensions",
        &format!(
            "{:.1}",
            report.mean_over(|m| m.gang.gang_suspensions as f64)
        ),
    ]);
    t.row([
        "gang migrations",
        &format!("{:.1}", report.mean_over(|m| m.gang.gang_migrations as f64)),
    ]);
    t.row([
        "co-allocation wait / gang",
        &format!("{:.1}", report.mean_coalloc_wait()),
    ]);
    t.row([
        "barrier-stall member-time",
        &format!("{:.1}", report.mean_barrier_stall()),
    ]);
    t.row([
        "gang fragmentation",
        &format!("{:.1}", report.mean_fragmentation()),
    ]);
    if gang.is_partial() {
        t.row([
            "degraded-mode time",
            &format!("{:.1}", report.mean_degraded_time()),
        ]);
        t.row([
            "effective parallelism",
            &format!("{:.2}", report.mean_effective_parallelism()),
        ]);
    }
    if let Some(ind) = &independent {
        t.row([
            "independent-task makespan",
            &format!("{:.1}", ind.mean_makespan()),
        ]);
        t.row([
            "barrier premium",
            &format!(
                "{:.2}x",
                report.mean_makespan() / ind.mean_makespan().max(f64::MIN_POSITIVE)
            ),
        ]);
    }
    print!("{}", t.render());
    let consistent = report.is_consistent()
        && independent.as_ref().is_none_or(SimReport::is_consistent)
        && report
            .runs
            .iter()
            .all(|m| m.gang.lockstep_violations == 0 && m.gang.floor_violations == 0);
    println!(
        "\nwork conservation + gang lockstep/floor invariants: {}",
        if consistent { "hold" } else { "VIOLATED" }
    );
    let traced = maybe_trace("gang", args, &sim);
    i32::from(!(consistent && traced))
}

fn cmd_trace(args: &[String]) -> i32 {
    // Optional leading positional selects which scenario family to
    // flight-record; everything else is flags.
    let (scenario_name, rest): (&str, &[String]) = match args.first() {
        Some(a) if !a.starts_with("--") => (a.as_str(), &args[1..]),
        _ => ("sched", args),
    };
    let ints = (|| -> Result<_, String> {
        Ok((
            int_flag(rest, "--seed", 2024, u64::MAX)?,
            int_flag(rest, "--reps", 1, 1 << 20)?.max(1),
        ))
    })();
    let (seed, reps) = match ints {
        Ok(v) => v,
        Err(e) => {
            eprintln!("trace: {e}");
            return 2;
        }
    };
    let u = flag(rest, "--utilization").unwrap_or(0.10);
    let o = flag(rest, "--owner-demand").unwrap_or(10.0);
    let metrics_every = flag(rest, "--metrics-every").unwrap_or(100.0);
    let out = string_flag(rest, "--out").unwrap_or("traces");
    let owner = match OwnerWorkload::continuous_exponential(o, u) {
        Ok(owner) => owner,
        Err(e) => {
            eprintln!("trace: {e}");
            return 2;
        }
    };

    let build = || -> Result<Sim, String> {
        let base = |w: u32| {
            Sim::pool(w)
                .owners(&owner)
                .calibration(10_000.0)
                .seed(seed)
                .replications(reps)
                .metrics_every(metrics_every)
        };
        let w_flag = |default: u32| -> Result<u32, String> {
            Ok(int_flag(
                rest,
                "--workstations",
                u64::from(default),
                u64::from(u32::MAX),
            )? as u32)
        };
        let builder = match scenario_name {
            "sched" => {
                let sc = Scenario::SchedulerPool;
                let w = w_flag(sc.workstations()[0])?;
                let (jobs, _, gap) = sc.sched_job_mix().expect("scheduler scenario");
                let demand = sc.sched_task_demand().expect("scheduler scenario");
                base(w)
                    .backend(Backend::Sched)
                    .workload(closed(JobSpec::stream(jobs, w, demand, gap)))
            }
            "stream" => {
                let sc = Scenario::OpenStream;
                let w = w_flag(sc.workstations()[0])?;
                let (tasks, demand) = sc.open_job_shape().expect("open scenario");
                let (jobs, warmup) = sc.open_window().expect("open scenario");
                let rate = sc.open_arrival_rate().expect("open scenario");
                base(w).workload(
                    poisson(rate, JobShape::new(tasks, demand))
                        .jobs(jobs)
                        .warmup(warmup),
                )
            }
            "gang" => {
                let sc = Scenario::GangPool;
                let w = w_flag(sc.workstations()[0])?;
                let (jobs, size, demand, gap) = sc.gang_job_mix().expect("gang scenario");
                base(w)
                    .gang(GangPolicy::SuspendAll)
                    .backend(Backend::Sched)
                    .workload(closed(JobSpec::stream(jobs, size, demand, gap)))
            }
            other => {
                return Err(format!(
                    "unknown trace scenario {other} (sched | stream | gang)"
                ))
            }
        };
        obs_flags(builder, rest)?.build().map_err(|e| e.to_string())
    };
    let sim = match build() {
        Ok(sim) => sim,
        Err(e) => {
            eprintln!("trace: {e}");
            return 2;
        }
    };
    let flights = match trace_to_dir(&sim, out) {
        Ok(flights) => flights,
        Err(e) => {
            eprintln!("trace: {e}");
            return 1;
        }
    };

    let mut t = Table::new(format!("flight recorder: {}", sim.label())).headers([
        "rep",
        "events",
        "records",
        "makespan",
        "goodput",
        "trace reconciles",
    ]);
    let mut ok = true;
    for f in &flights {
        // The trace's closing accounting totals must match the run's
        // aggregate metrics exactly — the observer reads the same
        // state the metrics are assembled from.
        let reconciles = f.recorder.final_sample().is_some_and(|s| {
            (s.goodput - f.metrics.goodput).abs() <= 1e-9
                && (s.wasted - f.metrics.wasted).abs() <= 1e-9
        });
        ok &= reconciles;
        t.row([
            f.replication.to_string(),
            f.events.to_string(),
            f.recorder.events().len().to_string(),
            format!("{:.1}", f.metrics.makespan),
            format!("{:.1}", f.metrics.goodput),
            if reconciles {
                "yes".into()
            } else {
                "NO".to_string()
            },
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nwrote rep*.trace.jsonl, rep*.chrome.json (load in Perfetto), \
         rep*.metrics.json, rep*.profile.json under {out}/"
    );
    i32::from(!ok)
}

fn cmd_replay(args: &[String]) -> i32 {
    // Optional leading positional: a CSV/JSONL trace file to replay.
    // Without one, the synthetic datacenter day of
    // `Scenario::DatacenterTrace` (diurnal arrivals, bounded-Pareto
    // sizes, hot/cool owners). Either way the workload streams through
    // the engine in `--chunk`-sized batches, never materialized.
    // (`nds trace` is the unrelated flight recorder: it writes the
    // engine's own event log.)
    let (file, rest): (Option<&str>, &[String]) = match args.first() {
        Some(a) if !a.starts_with("--") => (Some(a.as_str()), &args[1..]),
        _ => (None, args),
    };
    let scenario = Scenario::DatacenterTrace;
    let default_chunk = scenario.trace_stream_chunk().expect("trace scenario") as u64;
    let default_machines = u64::from(scenario.workstations()[0]);
    let parsed = (|| -> Result<_, String> {
        let warmup = match string_flag(rest, "--warmup") {
            None => None,
            Some(_) => Some(int_flag(rest, "--warmup", 0, 1 << 32)? as usize),
        };
        Ok((
            // File replays default to the paper's 16-station pool; the
            // synthetic day defaults to the scenario's 64 machines.
            int_flag(
                rest,
                "--machines",
                if file.is_some() { 16 } else { default_machines },
                u64::from(u32::MAX),
            )? as u32,
            int_flag(rest, "--jobs", 1_200, 1 << 32)? as usize,
            int_flag(rest, "--chunk", default_chunk, 1 << 32)?.max(1) as usize,
            warmup,
            int_flag(rest, "--batches", 20, 1 << 16)? as usize,
            int_flag(rest, "--seed", 0x5EED, u64::MAX)?,
            int_flag(rest, "--reps", 1, 1 << 20)?.max(1),
            int_flag(rest, "--shards", 1, 1 << 10)?.max(1) as usize,
            int_flag(rest, "--max-events", 200_000_000, u64::MAX)?,
        ))
    })();
    let (machines, jobs, chunk, warmup, batches, seed, reps, shards, max_events) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("replay: {e}");
            return 2;
        }
    };
    let u = flag(rest, "--utilization").unwrap_or(0.10);
    let o = flag(rest, "--owner-demand").unwrap_or(10.0);

    let built: Result<(Sim, String), SimError> = (|| {
        let base = Sim::pool(machines)
            .stream_chunk(chunk)
            .seed(seed)
            .replications(reps)
            .shards(shards)
            .batches(batches)
            .max_events(max_events);
        match file {
            Some(path) => {
                // File traces carry no owner model, so the pool is
                // homogeneous at the --utilization / --owner-demand
                // behaviour.
                let mut workload = TraceWorkload::from_path(path)?;
                if let Some(k) = warmup {
                    workload = workload.warmup(k);
                }
                let owner =
                    OwnerWorkload::continuous_exponential(o, u).map_err(SimError::Cluster)?;
                let label = format!("{path} on {machines} homogeneous machines (U={u}, O={o})");
                Ok((base.owners(owner).workload(workload).build()?, label))
            }
            None => {
                let mut generator = SyntheticTrace::datacenter(machines, jobs);
                if let Some(k) = warmup {
                    generator = generator.warmup(k);
                }
                let owners = generator.owners(seed, 0)?;
                let label = format!("synthetic datacenter day, {machines} machines x {jobs} jobs");
                Ok((base.owners(owners).workload(generator).build()?, label))
            }
        }
    })();
    let (sim, what) = match built {
        Ok(v) => v,
        Err(e) => {
            eprintln!("replay: {e}");
            return sim_error_code(&e);
        }
    };
    let report = match sim.run() {
        Ok(report) => report,
        Err(e) => {
            eprintln!("replay: {e}");
            return sim_error_code(&e);
        }
    };

    let mut t = Table::new(format!(
        "trace replay: {what}, streamed in chunks of {chunk} ({reps} reps)"
    ))
    .headers(["metric", "value"]);
    if let Some(ss) = &report.steady_state {
        t.row([
            "steady-state mean response",
            &format!("{:.1}", ss.response.mean),
        ]);
        t.row([
            "confidence interval",
            &format!("[{:.1}, {:.1}]", ss.response.lower(), ss.response.upper()),
        ]);
        t.row([
            "batches x batch size",
            &format!("{} x {}", ss.response.batches, ss.response.batch_size),
        ]);
    }
    t.row([
        "observed jobs (post warm-up)",
        &report.response.jobs.to_string(),
    ]);
    t.row([
        "fastest / slowest response",
        &format!("{:.1} / {:.1}", report.response.min, report.response.max),
    ]);
    t.row(["mean makespan", &format!("{:.1}", report.mean_makespan())]);
    t.row([
        "goodput fraction",
        &format!("{:.4}", report.mean_goodput_fraction()),
    ]);
    t.row([
        "mean queue wait",
        &format!("{:.2}", report.mean_queue_wait()),
    ]);
    t.row(["evictions", &format!("{:.1}", report.mean_evictions())]);
    print!("{}", t.render());
    let consistent = report.is_consistent();
    println!(
        "\nwork conservation (delivered == goodput + wasted + ckpt): {}",
        if consistent { "holds" } else { "VIOLATED" }
    );
    i32::from(!consistent)
}

/// Where two JSONL traces first stop agreeing, with enough context to
/// read the mismatch without opening either file.
struct Divergence {
    /// 1-based line number of the first mismatching record.
    line: u64,
    /// The mismatching record from each side (`None` = trace ended).
    a: Option<String>,
    b: Option<String>,
    /// Up to `context` records both sides agreed on, newest last.
    before: Vec<String>,
    /// Up to `context` records following the mismatch on each side.
    after_a: Vec<String>,
    after_b: Vec<String>,
    /// Sim time of the newest agreed record that carried one.
    last_agreed_t: Option<f64>,
}

/// Pull the sim time out of a flight-recorder JSONL record. Every
/// record the recorder writes starts `{"t":<number>,` — anything else
/// (or a bare metrics line) just doesn't advance the clock.
fn record_time(line: &str) -> Option<f64> {
    let rest = line.strip_prefix("{\"t\":")?;
    let end = rest.find([',', '}'])?;
    rest[..end].parse().ok()
}

/// Stream both traces line by line, remembering only a `context`-deep
/// window, and stop at the first mismatch. Memory stays O(context)
/// regardless of trace length. `Ok(None)` means the traces are
/// byte-identical; a length mismatch counts as a divergence at the
/// shorter trace's end.
fn diff_traces(
    path_a: &str,
    path_b: &str,
    context: usize,
) -> Result<(u64, Option<Divergence>), String> {
    use std::io::BufRead;
    let open = |p: &str| -> Result<_, String> {
        let f = std::fs::File::open(p).map_err(|e| format!("{p}: {e}"))?;
        Ok(std::io::BufReader::new(f).lines())
    };
    let mut lines_a = open(path_a)?;
    let mut lines_b = open(path_b)?;
    let next = |lines: &mut std::io::Lines<std::io::BufReader<std::fs::File>>,
                p: &str|
     -> Result<Option<String>, String> {
        lines
            .next()
            .transpose()
            .map_err(|e| format!("reading {p}: {e}"))
    };

    let mut before: std::collections::VecDeque<String> = std::collections::VecDeque::new();
    let mut last_agreed_t = None;
    let mut line = 0u64;
    loop {
        let a = next(&mut lines_a, path_a)?;
        let b = next(&mut lines_b, path_b)?;
        line += 1;
        match (a, b) {
            (None, None) => return Ok((line - 1, None)),
            (a, b) if a == b => {
                let agreed = a.expect("both sides present when equal");
                if let Some(t) = record_time(&agreed) {
                    last_agreed_t = Some(t);
                }
                if context > 0 {
                    if before.len() == context {
                        before.pop_front();
                    }
                    before.push_back(agreed);
                }
            }
            (a, b) => {
                let after = |lines: &mut _, p: &str| -> Result<Vec<String>, String> {
                    let mut out = Vec::with_capacity(context);
                    for _ in 0..context {
                        match next(lines, p)? {
                            Some(l) => out.push(l),
                            None => break,
                        }
                    }
                    Ok(out)
                };
                let after_a = after(&mut lines_a, path_a)?;
                let after_b = after(&mut lines_b, path_b)?;
                return Ok((
                    line,
                    Some(Divergence {
                        line,
                        a,
                        b,
                        before: before.into(),
                        after_a,
                        after_b,
                        last_agreed_t,
                    }),
                ));
            }
        }
    }
}

fn cmd_diff_trace(args: &[String]) -> i32 {
    // Two positional paths; `--context K` bounds both the remembered
    // window and the lookahead printed around the mismatch.
    let mut paths = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--context" => i += 2,
            a if a.starts_with("--") => {
                eprintln!("diff-trace: unknown flag {a}");
                return 2;
            }
            a => {
                paths.push(a.to_string());
                i += 1;
            }
        }
    }
    if paths.len() != 2 {
        eprintln!("diff-trace: expected exactly two trace paths: nds diff-trace A B [--context K]");
        return 2;
    }
    let context = match int_flag(args, "--context", 3, 1 << 16) {
        Ok(k) => k as usize,
        Err(e) => {
            eprintln!("diff-trace: {e}");
            return 2;
        }
    };
    let (a, b) = (&paths[0], &paths[1]);
    match diff_traces(a, b, context) {
        Ok((compared, None)) => {
            println!("compared {compared} records: no divergence");
            0
        }
        Ok((_, Some(d))) => {
            let end = "<end of trace>";
            println!("first divergent record at line {}:", d.line);
            match d.last_agreed_t {
                Some(t) => println!("  last agreeing sim-time: t={t}"),
                None => println!("  last agreeing sim-time: none (no agreed record carried one)"),
            }
            if !d.before.is_empty() {
                println!("  agreed context (newest last):");
                for l in &d.before {
                    println!("    = {l}");
                }
            }
            println!("  A {a}: {}", d.a.as_deref().unwrap_or(end));
            println!("  B {b}: {}", d.b.as_deref().unwrap_or(end));
            for (label, after) in [(&a, &d.after_a), (&b, &d.after_b)] {
                if !after.is_empty() {
                    println!("  next {} record(s) from {label}:", after.len());
                    for l in after {
                        println!("    > {l}");
                    }
                }
            }
            1
        }
        Err(e) => {
            eprintln!("diff-trace: {e}");
            2
        }
    }
}

fn cmd_sensitivity(args: &[String]) -> i32 {
    let parsed = (|| -> Result<_, String> {
        Ok((
            require(args, "--task")?,
            require(args, "--workstations")? as u32,
            require(args, "--owner-demand")?,
            require(args, "--utilization")?,
        ))
    })();
    let (t_demand, w, o, u) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("sensitivity: {e}");
            return 2;
        }
    };
    match elasticities(t_demand, w, o, u, 0.05) {
        Ok(e) => {
            let mut t = Table::new(format!(
                "elasticities of weighted efficiency at (T={t_demand}, W={w}, O={o}, U={u})"
            ))
            .headers(["knob", "d ln(WE) / d ln(x)"]);
            t.row(["task demand", &format!("{:+.4}", e.wrt_task_demand)]);
            t.row(["utilization", &format!("{:+.4}", e.wrt_utilization)]);
            t.row(["owner demand", &format!("{:+.4}", e.wrt_owner_demand)]);
            t.row(["pool size", &format!("{:+.4}", e.wrt_workstations)]);
            print!("{}", t.render());
            println!("\ndominant knob: {}", e.dominant());
            0
        }
        Err(e) => {
            eprintln!("sensitivity: {e}");
            1
        }
    }
}
