//! The repository benchmark.
//!
//! Three workloads, each run from one process on one thread:
//!
//! * [`paper_sweep`] — the paper's §2.2 validation grid through
//!   `Sim::run` with `Backend::Auto`: thousands of tiny runs, where
//!   per-run set-up and owner-cycle sampling dominate;
//! * [`datacenter_day`] — a streamed 4,000-machine synthetic day
//!   through `SchedConfig::run_streamed`: per-event pool cost, the job
//!   feed, the record sink and bounded memory;
//! * [`gang_faults`] — partial gangs under crash/repair faults through
//!   `Sim::run`: the gang engine, fault injection and the report path.
//!
//! An untraced run ([`layers::run_untraced`]) times repeated passes and
//! reports the end-to-end metrics (`jobs_per_s`, `setup_s`,
//! `peak_rss_mib`) and the failed/attempted engine runs. A traced run
//! ([`layers::Workload::traced`]) records host-time spans around the
//! benchmark's own calls into `nds-core`, `nds-sched`, `nds-cluster`,
//! `nds-model` and `nds-stats`, profiles the engine's event classes
//! through the public `SchedTracer` hook, and reports per-layer
//! metrics. Every run checks its outputs and digests its simulated
//! statistics; a traced run's digests must equal those of an untraced
//! run of the same engine.

// A benchmark exists to read the wall clock.
#![allow(clippy::disallowed_methods)]

pub mod datacenter_day;
pub mod gang_faults;
pub mod layers;
pub mod measure;
pub mod output;
pub mod paper_sweep;
pub mod spans;

use layers::{run_untraced, Workload};
use output::Outcome;

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["paper_sweep", "datacenter_day", "gang_faults"];

/// Benchmark sizes: the full benchmark or the self-tests' small one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Seconds-long sizes for self-tests.
    Tiny,
}

/// Run `workload` (a name from [`WORKLOADS`]) once. `None` for an
/// unknown name.
pub fn run(workload: &str, size: Size, seed: u64, seconds: f64, trace: bool) -> Option<Outcome> {
    fn go<W: Workload>(w: &W, seed: u64, seconds: f64, trace: bool) -> Outcome {
        if trace {
            w.traced(seed)
        } else {
            run_untraced(w, seed, seconds)
        }
    }
    let full = size == Size::Full;
    Some(match workload {
        "paper_sweep" => {
            let w = if full {
                paper_sweep::PaperSweep::full()
            } else {
                paper_sweep::PaperSweep::tiny()
            };
            go(&w, seed, seconds, trace)
        }
        "datacenter_day" => {
            let w = if full {
                datacenter_day::DatacenterDay::full()
            } else {
                datacenter_day::DatacenterDay::tiny()
            };
            go(&w, seed, seconds, trace)
        }
        "gang_faults" => {
            let w = if full {
                gang_faults::GangFaults::full()
            } else {
                gang_faults::GangFaults::tiny()
            };
            go(&w, seed, seconds, trace)
        }
        _ => return None,
    })
}
