//! # nds-des — a discrete-event simulation engine (CSIM replacement)
//!
//! The paper validates its analysis with a simulation written in CSIM
//! (Schwetman 1986), a proprietary C library. This crate is the
//! from-scratch Rust substrate that fills that role for the whole
//! workspace:
//!
//! * [`calendar::Calendar`] — the typed, zero-allocation event
//!   calendar: plain event values in a slab with generation-counted
//!   handles, no per-event boxing and no hash-set cancellation
//!   bookkeeping; the driving loop pops the next event and owns its
//!   state directly (`nds-sched`'s `SchedEvent`, `nds-cluster`'s SMP
//!   workstation),
//! * [`time::SimTime`] — the totally ordered simulation clock,
//! * [`monitor::Monitor`] — time-weighted and tally statistics collected
//!   during a run,
//! * [`registry::MetricsRegistry`] — named counters/gauges with
//!   periodic snapshotting, the exportable generalization of a bag of
//!   monitors,
//! * [`trace::NoTrace`] — the zero-sized "tracing off" marker that
//!   engine-level tracer traits (`nds-sched`'s `SchedTracer`)
//!   implement with their hooks compiled away.
//!
//! Unlike CSIM the calendar is event-driven rather than process-oriented
//! (no coroutines), which keeps it deterministic, allocation-light, and
//! trivially reproducible from a seed. CSIM's preemptive-priority
//! facility has no counterpart here: each simulator keeps its CPU's
//! preempt-resume bookkeeping inline, next to its event loop.
//! Determinism guarantee: two runs with the same seed and same schedule
//! order produce identical event sequences — ties in time are broken by
//! insertion sequence number.

#![forbid(unsafe_code)]

pub mod calendar;
pub mod error;
pub mod monitor;
pub mod registry;
pub mod time;
pub mod trace;

pub use calendar::{Calendar, EventHandle};
pub use error::DesError;
pub use monitor::Monitor;
pub use registry::{MetricsRegistry, QuantileSketch, SeriesId, SeriesKind};
pub use time::SimTime;
pub use trace::NoTrace;
