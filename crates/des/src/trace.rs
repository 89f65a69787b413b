//! The zero-sized [`NoTrace`] marker: "tracing off" for the typed
//! tracer traits that engines define over the event core.
//!
//! An engine generic over its tracer guards every hook site with a
//! per-type `ENABLED` constant; `NoTrace` sets it `false`, so the
//! optimizer deletes the hooks and the untraced engine is exactly the
//! code it would be without tracing. `nds-sched`'s `SchedTracer` is
//! implemented for it, which makes its flight recorder a purely
//! type-level opt-in.
//!
//! ```
//! use nds_des::NoTrace;
//!
//! assert_eq!(std::mem::size_of::<NoTrace>(), 0);
//! ```

/// The zero-sized "tracing off" tracer. Engines implement their tracer
/// trait for it with `ENABLED = false`, which turns every hook site
/// into statically dead code.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NoTrace;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_trace_is_zero_sized_and_disabled() {
        assert_eq!(std::mem::size_of::<NoTrace>(), 0);
    }
}
