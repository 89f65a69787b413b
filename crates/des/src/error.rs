//! Error type for the event calendar.

use std::fmt;

/// Errors produced by the event calendar.
#[derive(Debug, Clone, PartialEq)]
pub enum DesError {
    /// An event was scheduled in the past.
    ScheduleInPast {
        /// Current simulation time.
        now: f64,
        /// Requested (past) event time.
        requested: f64,
    },
}

impl fmt::Display for DesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesError::ScheduleInPast { now, requested } => {
                write!(
                    f,
                    "cannot schedule at {requested} before current time {now}"
                )
            }
        }
    }
}

impl std::error::Error for DesError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_all_variants() {
        assert!(DesError::ScheduleInPast {
            now: 5.0,
            requested: 3.0
        }
        .to_string()
        .contains("before current time"));
    }
}
