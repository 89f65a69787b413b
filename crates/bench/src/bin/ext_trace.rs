//! Extension: **trace-driven datacenter workloads**
//! (`Scenario::DatacenterTrace`) — million-job synthetic traces pushed
//! through the engine's streaming job feed.
//!
//! Modes:
//!
//! * `ext_trace` — the full run: a 1,000-machine x 1,000,000-job
//!   synthetic diurnal day streamed in bounded chunks, reported as
//!   events/sec (min-time over replications) plus the scenario-sized
//!   day, with peak RSS as the bounded-memory witness. Emits the same
//!   JSON shape as `perf_core` (`{"name", "events", "seconds",
//!   "best_events_per_sec"}` rows).
//! * `ext_trace --smoke` — small check-mode run for CI: replays the
//!   committed fixture (`tests/data/datacenter_small.csv`), verifies
//!   the streamed run is byte-identical to the materialized run and to
//!   a second streamed run, and checks every scenario counts events.
//! * `ext_trace --ladder` — the pool-size ladder: the datacenter
//!   day's shape (250 jobs per machine over a 21,600-unit day,
//!   least-loaded, suspend-resume) at 1k/4k/10k machines, five timed
//!   passes per size (sizes taken in turn so host drift hits every
//!   size alike). Prints a JSON report: per size the
//!   median and IQR of host ns per engine event, the fitted scaling
//!   exponent (least-squares slope of ln ns/event on ln machines; 0
//!   means per-event cost does not grow with the pool), a per-job
//!   digest, the host fingerprint and the command. Exits 1 if any
//!   size's digest differs between passes. `BENCH_scale.json` holds
//!   this report for two commits measured interleaved on one host.
//! * `ext_trace --ladder --smoke` — the same at 32/64/128 machines and
//!   two passes: a CI check that the report is well formed and the
//!   digests are stable, with no timing gate.
//!
//! The streaming path holds O(chunk + pool) job state: the feed is
//! pulled lazily in `chunk`-sized batches and each job's record is
//! retired the moment it completes, so the 1M-job day never
//! materializes its spec vector.

// A throughput benchmark exists to read the wall clock.
#![allow(clippy::disallowed_methods)]

use nds_core::scenario::Scenario;
use nds_core::sim::{SimError, SyntheticTrace, TraceWorkload, Workload};
use nds_sched::{
    EvictionPolicy, GangPolicy, PlacementKind, QueueDiscipline, SchedConfig, SchedMetrics,
};
use std::process::Command;
use std::time::Instant;

const SEED: u64 = 0x7ACE;

/// One streamed measurement: the engine's executed-event count and the
/// wall-clock seconds of the fastest replication.
struct Measurement {
    name: &'static str,
    events: u64,
    seconds: f64,
    best_events_per_sec: f64,
    metrics: SchedMetrics,
}

/// Lower a workload to a bare scheduler configuration around the given
/// owner population (no gang, defaults elsewhere — the streaming
/// engine's supported envelope).
fn config(owners: Vec<nds_cluster::owner::OwnerWorkload>, replication: u64) -> SchedConfig {
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
        seed: SEED,
        replication,
        max_events: 2_000_000_000,
    }
}

/// Stream `workload` through the engine `reps` times and keep the
/// fastest replication (min-time methodology, like `perf_core`).
fn measure(
    name: &'static str,
    workload: &dyn Workload,
    owners: &[nds_cluster::owner::OwnerWorkload],
    chunk: usize,
    reps: u64,
) -> Result<Measurement, SimError> {
    let mut best = f64::MAX;
    let mut out: Option<(u64, SchedMetrics)> = None;
    for replication in 0..reps {
        let mut feed = workload.feed(SEED, replication)?;
        let cfg = config(owners.to_vec(), replication);
        let start = Instant::now();
        let (metrics, events) = cfg.run_streamed(feed.as_mut(), chunk, &mut |_, _| {})?;
        let seconds = start.elapsed().as_secs_f64();
        if seconds < best {
            best = seconds;
            out = Some((events, metrics));
        }
    }
    let (events, metrics) = out.expect("at least one replication ran");
    Ok(Measurement {
        name,
        events,
        seconds: best,
        best_events_per_sec: events as f64 / best.max(f64::MIN_POSITIVE),
        metrics,
    })
}

/// Peak resident set size of this process in kilobytes, from
/// `/proc/self/status` (`None` off Linux) — the bounded-memory witness
/// for the million-job run.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The full-size day: 1,000 machines x 1,000,000 jobs, sized to stay
/// stable (offered load ~= 75% of the pool's spare capacity) so that
/// in-flight job state — and therefore the streaming window — stays
/// bounded: E\[tasks\]=4.5, E\[demand\]~=13 => ~680 CPU-s/s offered
/// against ~920 spare.
fn million_job_day() -> SyntheticTrace {
    SyntheticTrace::datacenter(1_000, 1_000_000)
        .demands(1.5, 5.0, 500.0)
        .max_tasks(8)
}

fn smoke(fixture: &str) -> Result<(), String> {
    // 1. The committed fixture replays, streamed == materialized.
    let trace = TraceWorkload::from_path(fixture).map_err(|e| format!("{fixture}: {e}"))?;
    let owners = vec![
        nds_cluster::owner::OwnerWorkload::continuous_exponential(10.0, 0.10)
            .expect("valid owner");
        8
    ];
    let streamed = measure("fixture_replay", &trace, &owners, 16, 1).map_err(|e| e.to_string())?;
    let again = measure("fixture_replay", &trace, &owners, 16, 1).map_err(|e| e.to_string())?;
    if streamed.metrics != again.metrics || streamed.events != again.events {
        return Err("fixture replay is not deterministic".into());
    }
    // Byte-identity against the materialized engine: collect the
    // streamed per-job records through the sink (streamed metrics keep
    // `jobs` empty) and splice them back before comparing.
    let mut records = Vec::new();
    let mut feed = trace.feed(SEED, 0).map_err(|e| e.to_string())?;
    let (mut spliced, streamed_events) = config(owners.clone(), 0)
        .run_streamed(feed.as_mut(), 16, &mut |_, record| records.push(record))
        .map_err(|e| e.to_string())?;
    spliced.jobs = records;
    let mut materialized = config(owners.clone(), 0);
    materialized.jobs = trace.jobs().to_vec();
    let (direct, direct_events) = materialized.run_counted().map_err(|e| e.to_string())?;
    if direct != spliced || direct_events != streamed_events {
        return Err("streamed fixture replay diverged from the materialized run".into());
    }
    println!(
        "smoke fixture_replay      {:>9} events  {:>12.0} events/sec  (== materialized)",
        streamed.events, streamed.best_events_per_sec
    );

    // 2. A small synthetic day streams at two chunk sizes to the same
    //    metrics (chunking is a pure execution strategy).
    let day = SyntheticTrace::datacenter(32, 2_000);
    let day_owners = day.owners(SEED, 0).map_err(|e| e.to_string())?;
    let coarse =
        measure("synthetic_small", &day, &day_owners, 1_024, 1).map_err(|e| e.to_string())?;
    let fine = measure("synthetic_small", &day, &day_owners, 64, 1).map_err(|e| e.to_string())?;
    if coarse.metrics != fine.metrics || coarse.events != fine.events {
        return Err("chunk size changed the synthetic day's result".into());
    }
    if coarse.events == 0 {
        return Err("synthetic day executed no events".into());
    }
    println!(
        "smoke synthetic_small     {:>9} events  {:>12.0} events/sec  (chunk-invariant)",
        coarse.events, coarse.best_events_per_sec
    );
    println!("ext_trace --smoke: fixture + synthetic day OK");
    Ok(())
}

/// Jobs per machine in one ladder day, and the day's length: the
/// datacenter day's load (1M jobs on 4,000 machines over 21,600 units).
const LADDER_JOBS_PER_MACHINE: usize = 250;
const LADDER_DAY: f64 = 21_600.0;

/// One ladder rung: `passes` timed streamed runs of the same day.
struct Rung {
    machines: u32,
    jobs: usize,
    events: u64,
    /// Host nanoseconds per engine event, one per pass.
    ns_per_event: Vec<f64>,
    /// Per-job digest of each pass (FNV-1a over every retired record
    /// and the final metrics).
    digests: Vec<u64>,
}

/// FNV-1a, folded 64 bits at a time.
fn fnv(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The day at `machines`: the datacenter day's shape, scaled.
fn ladder_day(machines: u32) -> SyntheticTrace {
    SyntheticTrace::datacenter(machines, LADDER_JOBS_PER_MACHINE * machines as usize)
        .day(LADDER_DAY)
        .demands(1.5, 5.0, 500.0)
        .max_tasks(8)
}

/// One timed pass: set-up (trace, owners, config) is outside the
/// clock; the streamed engine run, feed and sink are inside it.
fn ladder_pass(day: &SyntheticTrace) -> Result<(u64, f64, u64), SimError> {
    let owners = day.owners(SEED, 0)?;
    let cfg = config(owners, 0);
    let mut feed = day.feed(SEED, 0)?;
    let mut digest = FNV_OFFSET;
    let start = Instant::now();
    let (metrics, events) = cfg.run_streamed(feed.as_mut(), 8_192, &mut |index, record| {
        digest = fnv(digest, index as u64);
        digest = fnv(digest, record.arrival.to_bits());
        digest = fnv(digest, record.completion.to_bits());
        digest = fnv(digest, record.demand.to_bits());
    })?;
    let seconds = start.elapsed().as_secs_f64();
    for word in [
        metrics.placements,
        metrics.evictions,
        metrics.completed_tasks,
        metrics.makespan.to_bits(),
        metrics.goodput.to_bits(),
        events,
    ] {
        digest = fnv(digest, word);
    }
    Ok((events, seconds * 1e9 / events.max(1) as f64, digest))
}

/// Median and quartiles (linear interpolation) of `xs`.
fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Least-squares slope of `ln y` on `ln x`.
fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (lx, ly): (Vec<f64>, Vec<f64>) = points.iter().map(|(x, y)| (x.ln(), y.ln())).unzip();
    let (mx, my) = (lx.iter().sum::<f64>() / n, ly.iter().sum::<f64>() / n);
    let sxy: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    sxy / sxx
}

/// The host fingerprint: CPU model, `nproc`, rustc and build profile
/// (free text is `{:?}`-quoted, which is valid JSON for these strings).
fn host_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"cpu\": {cpu:?}, \"nproc\": {nproc}, \"rustc\": {rustc:?}, \"profile\": {profile:?}}}"
    )
}

fn ladder(smoke: bool, passes: usize) -> Result<(), String> {
    let sizes: &[u32] = if smoke {
        &[32, 64, 128]
    } else {
        &[1_000, 4_000, 10_000]
    };
    let days: Vec<SyntheticTrace> = sizes.iter().map(|&m| ladder_day(m)).collect();
    let mut rungs: Vec<Rung> = sizes
        .iter()
        .map(|&machines| Rung {
            machines,
            jobs: LADDER_JOBS_PER_MACHINE * machines as usize,
            events: 0,
            ns_per_event: Vec::new(),
            digests: Vec::new(),
        })
        .collect();
    for pass in 0..passes {
        for (rung, day) in rungs.iter_mut().zip(&days) {
            let (events, ns, digest) = ladder_pass(day).map_err(|e| e.to_string())?;
            eprintln!(
                "ladder pass {}/{passes}: {:>6} machines {events:>10} events {ns:>8.1} ns/event",
                pass + 1,
                rung.machines
            );
            rung.events = events;
            rung.ns_per_event.push(ns);
            rung.digests.push(digest);
        }
    }

    let medians: Vec<(f64, f64)> = rungs
        .iter()
        .map(|r| (f64::from(r.machines), quartiles(&r.ns_per_event).1))
        .collect();
    let stable = rungs
        .iter()
        .all(|r| r.digests.iter().all(|&d| d == r.digests[0]));
    let command = std::iter::once("ext_trace".to_owned())
        .chain(std::env::args().skip(1))
        .collect::<Vec<_>>()
        .join(" ");

    println!("{{");
    println!("  \"benchmark\": \"ext_trace --ladder\",");
    println!("  \"command\": {command:?},");
    println!("  \"host\": {},", host_json());
    println!("  \"jobs_per_machine\": {LADDER_JOBS_PER_MACHINE},");
    println!("  \"day\": {LADDER_DAY},");
    println!("  \"passes\": {passes},");
    println!("  \"statistic\": \"median and quartiles of host ns per engine event over passes; set-up untimed\",");
    println!("  \"rungs\": [");
    for (i, r) in rungs.iter().enumerate() {
        let (q1, median, q3) = quartiles(&r.ns_per_event);
        let samples: Vec<String> = r.ns_per_event.iter().map(|v| format!("{v:.1}")).collect();
        let comma = if i + 1 < rungs.len() { "," } else { "" };
        println!(
            "    {{\"machines\": {}, \"jobs\": {}, \"events\": {}, \"ns_per_event\": {{\"median\": {median:.1}, \"q1\": {q1:.1}, \"q3\": {q3:.1}, \"iqr\": {:.1}, \"samples\": [{}]}}, \"digest\": \"{:#018x}\"}}{comma}",
            r.machines,
            r.jobs,
            r.events,
            q3 - q1,
            samples.join(", "),
            r.digests[0]
        );
    }
    println!("  ],");
    println!("  \"scaling_exponent\": {:.3},", log_log_slope(&medians));
    println!("  \"digests_stable\": {stable}");
    println!("}}");
    if stable {
        Ok(())
    } else {
        Err("a rung's digest changed between passes".into())
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--ladder") {
        let smoke = args.iter().any(|a| a == "--smoke");
        let passes = if smoke { 2 } else { 5 };
        if let Err(e) = ladder(smoke, passes) {
            eprintln!("ext_trace --ladder: {e}");
            std::process::exit(1);
        }
        return;
    }
    if args.iter().any(|a| a == "--smoke") {
        let fixture = args
            .iter()
            .position(|a| a == "--fixture")
            .and_then(|i| args.get(i + 1))
            .map_or("tests/data/datacenter_small.csv", String::as_str);
        if let Err(e) = smoke(fixture) {
            eprintln!("ext_trace --smoke: {e}");
            std::process::exit(1);
        }
        return;
    }

    let scenario = Scenario::DatacenterTrace;
    let mut rows = Vec::new();

    // The scenario-sized day (64 machines), replicated for min-time.
    let day = scenario.trace_generator().expect("trace scenario");
    let owners = day.owners(SEED, 0).expect("valid owner mix");
    let chunk = scenario.trace_stream_chunk().expect("trace scenario");
    rows.push(measure("scenario_day", &day, &owners, chunk, 3).expect("scenario day completes"));

    // The acceptance run: 1,000 machines x 1,000,000 jobs, one pass.
    let big = million_job_day();
    let big_owners = big.owners(SEED, 0).expect("valid owner mix");
    rows.push(
        measure("datacenter_1m", &big, &big_owners, 8_192, 1).expect("million-job day completes"),
    );

    println!(
        "{} — streaming trace replay (chunked feed, O(chunk + pool) memory)\n",
        scenario.figure_label()
    );
    for m in &rows {
        println!(
            "{:<16} {:>12} events  {:>8.2} s  {:>12.0} events/sec  (makespan {:.0}, {} tasks)",
            m.name,
            m.events,
            m.seconds,
            m.best_events_per_sec,
            m.metrics.makespan,
            m.metrics.completed_tasks,
        );
        assert!(
            m.metrics.jobs.is_empty(),
            "streamed runs must not materialize per-job records"
        );
    }
    if let Some(kb) = peak_rss_kb() {
        println!(
            "\npeak RSS: {:.1} MiB (bounded-memory witness)",
            kb as f64 / 1024.0
        );
    }

    // The perf_core-shaped JSON block, for BENCH_*.json records.
    println!("{{");
    println!("  \"benchmark\": \"ext_trace\",");
    println!(
        "  \"note\": \"streamed via SchedConfig::run_streamed; best_events_per_sec per min-time methodology\","
    );
    println!("  \"scenarios\": [");
    for (i, m) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        println!(
            "    {{\"name\": \"{}\", \"events\": {}, \"seconds\": {:.4}, \"best_events_per_sec\": {:.0}}}{comma}",
            m.name, m.events, m.seconds, m.best_events_per_sec
        );
    }
    println!("  ]");
    println!("}}");
}
