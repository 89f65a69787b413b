//! # nds-des — a discrete-event simulation engine (CSIM replacement)
//!
//! The paper validates its analysis with a simulation written in CSIM
//! (Schwetman 1986), a proprietary C library. This crate is the
//! from-scratch Rust substrate that fills that role for the whole
//! workspace:
//!
//! * [`engine::Engine`] — the closure calendar + simulation clock;
//!   schedule boxed closures ([`engine::Engine::schedule`]), run to a
//!   horizon or to quiescence — the ergonomic engine for doc examples
//!   and ad-hoc models,
//! * [`calendar::Calendar`] — the typed, zero-allocation calendar:
//!   plain event values in a slab with generation-counted handles, no
//!   per-event boxing and no hash-set cancellation bookkeeping — the
//!   substrate for hot-path engines with a closed event vocabulary
//!   (see the two-calendar design notes on [`calendar`]),
//! * [`facility::Facility`] — a CSIM-style service facility with
//!   **preemptive-priority** scheduling, the exact discipline the paper
//!   assumes ("when an owner process starts execution an executing
//!   parallel task is suspended and the owner process is immediately
//!   started"),
//! * [`monitor::Monitor`] — time-weighted and tally statistics collected
//!   during a run,
//! * [`registry::MetricsRegistry`] — named counters/gauges with
//!   periodic snapshotting, the exportable generalization of a bag of
//!   monitors,
//! * [`trace::NoTrace`] — the zero-sized "tracing off" marker that
//!   engine-level tracer traits (`nds-sched`'s `SchedTracer`)
//!   implement with their hooks compiled away.
//!
//! Unlike CSIM the engine is event-driven rather than process-oriented
//! (no coroutines), which keeps it deterministic, allocation-light, and
//! trivially reproducible from a seed. Determinism guarantee: two runs
//! with the same seed and same schedule order produce identical event
//! sequences — ties in time are broken by insertion sequence number.

#![forbid(unsafe_code)]

pub mod calendar;
pub mod engine;
pub mod error;
pub mod facility;
pub mod monitor;
pub mod registry;
pub mod resource;
pub mod time;
pub mod trace;

pub use calendar::{Calendar, EventHandle};
pub use engine::{Engine, EventId};
pub use error::DesError;
pub use facility::{Facility, Preempted, Request, RequestId, RequestOutcome};
pub use monitor::Monitor;
pub use registry::{MetricsRegistry, QuantileSketch, SeriesId, SeriesKind};
pub use resource::MultiFacility;
pub use time::SimTime;
pub use trace::NoTrace;
