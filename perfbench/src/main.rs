//! `nds-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--out-dir DIR]`
//!
//! Prints a human-readable report, then as its last line one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. A traced
//! run also writes its span tree to `DIR/spans-NAME-seedN.json`
//! (default `DIR`: `.bench_out`). Exit code 0 when every output check
//! passed, 1 when one failed, 2 on a usage error.

use nds_perfbench::output::valid_name;
use nds_perfbench::{run, Size, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from(".bench_out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad(&format!("not one of {WORKLOADS:?}"))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("not a finite number >= 0"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("not 0 or 1")),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("nds-perfbench: {why}");
            eprintln!("usage: nds-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]");
            return ExitCode::from(2);
        }
    };
    let mut out = run(
        &args.workload,
        Size::Full,
        args.seed,
        args.seconds,
        args.trace,
    )
    .expect("parse() admits only known workloads");
    if let Some(bad) = out.metrics.iter().find(|m| !valid_name(&m.name)) {
        let why = format!("invalid metric name {:?}", bad.name);
        out.fail(0, why);
    }
    if let Some(spans) = &out.spans {
        let path = args
            .out_dir
            .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(&args.out_dir)
            .and_then(|()| std::fs::write(&path, spans.to_json()));
        match written {
            Ok(()) => out.line(format!("spans: {}", path.display())),
            Err(e) => out.fail(0, format!("writing {}: {e}", path.display())),
        }
    }
    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for line in &out.lines {
        println!("  {line}");
    }
    for m in &out.metrics {
        println!(
            "  {:<34} {:>22} {}",
            m.name,
            format!("{:?}", m.value),
            m.unit
        );
    }
    for why in &out.failures {
        println!("  FAILED: {why}");
    }
    println!("{}", out.result_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
