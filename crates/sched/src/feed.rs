//! Streaming job feeds: bounded-memory workload generation.
//!
//! The scheduler has one engine loop with two job intakes. A table run
//! ([`SchedConfig::run`](crate::SchedConfig::run) and friends) admits
//! the config's whole `Vec<JobSpec>` up front. A streamed run
//! ([`SchedConfig::run_streamed`](crate::SchedConfig::run_streamed))
//! pulls jobs from a [`JobFeed`] in bounded chunks instead. Each chunk
//! enters the calendar's pre-sorted arrival backlog
//! ([`nds_des::Calendar::schedule_sorted`]) when the previous chunk's
//! last arrival fires. Either way, completed jobs retire from the live
//! job table in submission order, so a streamed run's peak memory
//! tracks the chunk size and the live job window, not the experiment
//! length. A million-job trace streams through a few thousand
//! resident specs.
//!
//! [`VecFeed`] and [`SliceFeed`] wrap an in-memory job list. A
//! streamed run over them replays the table run event-for-event (same
//! per-event RNG draws, same sequence numbering of arrivals *within*
//! the live window), which is what the workspace's streaming
//! byte-identity tests pin.
//!
//! # Contract
//!
//! * Chunks are appended to the caller's buffer in **submission
//!   order**; arrivals must be globally non-decreasing across the whole
//!   feed (the engine reports a typed error otherwise, never panics).
//! * `next_chunk` may return fewer than `max` jobs; returning `0` means
//!   the feed is exhausted and will not be polled again.
//! * Exact-time ties: jobs tied with *owner* events at the identical
//!   float instant can order differently than the materialized path if
//!   the tie crosses a chunk boundary (later chunks draw later calendar
//!   sequence numbers). Continuous random arrival processes hit this
//!   with probability zero; integer-timed fixtures should avoid
//!   colliding arrivals across chunks.

use crate::error::SchedError;
use crate::queue::JobSpec;

/// A pull-based source of time-sorted job arrivals.
pub trait JobFeed {
    /// Append up to `max` jobs to `buf` in submission order. Returns
    /// how many were appended; `0` signals exhaustion.
    fn next_chunk(&mut self, max: usize, buf: &mut Vec<JobSpec>) -> Result<usize, SchedError>;
}

impl<F: JobFeed + ?Sized> JobFeed for &mut F {
    fn next_chunk(&mut self, max: usize, buf: &mut Vec<JobSpec>) -> Result<usize, SchedError> {
        (**self).next_chunk(max, buf)
    }
}

impl<F: JobFeed + ?Sized> JobFeed for Box<F> {
    fn next_chunk(&mut self, max: usize, buf: &mut Vec<JobSpec>) -> Result<usize, SchedError> {
        (**self).next_chunk(max, buf)
    }
}

/// The degenerate feed: an owned, already-materialized job list.
#[derive(Debug, Clone)]
pub struct VecFeed {
    jobs: Vec<JobSpec>,
    next: usize,
}

impl VecFeed {
    /// Feed the given jobs chunk by chunk, in order.
    pub fn new(jobs: Vec<JobSpec>) -> Self {
        Self { jobs, next: 0 }
    }
}

impl JobFeed for VecFeed {
    fn next_chunk(&mut self, max: usize, buf: &mut Vec<JobSpec>) -> Result<usize, SchedError> {
        let n = max.min(self.jobs.len() - self.next);
        buf.extend_from_slice(&self.jobs[self.next..self.next + n]);
        self.next += n;
        Ok(n)
    }
}

/// A borrowing [`VecFeed`]: streams an existing slice without copying
/// it up front.
#[derive(Debug, Clone)]
pub struct SliceFeed<'a> {
    jobs: &'a [JobSpec],
    next: usize,
}

impl<'a> SliceFeed<'a> {
    /// Feed the given slice chunk by chunk, in order.
    pub fn new(jobs: &'a [JobSpec]) -> Self {
        Self { jobs, next: 0 }
    }
}

impl JobFeed for SliceFeed<'_> {
    fn next_chunk(&mut self, max: usize, buf: &mut Vec<JobSpec>) -> Result<usize, SchedError> {
        let n = max.min(self.jobs.len() - self.next);
        buf.extend_from_slice(&self.jobs[self.next..self.next + n]);
        self.next += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs(n: u32) -> Vec<JobSpec> {
        (0..n)
            .map(|i| JobSpec {
                tasks: 1,
                task_demand: 10.0,
                arrival: f64::from(i),
            })
            .collect()
    }

    #[test]
    fn vec_feed_chunks_in_order_and_exhausts() {
        let mut feed = VecFeed::new(jobs(5));
        let mut buf = Vec::new();
        assert_eq!(feed.next_chunk(2, &mut buf).unwrap(), 2);
        assert_eq!(feed.next_chunk(2, &mut buf).unwrap(), 2);
        assert_eq!(feed.next_chunk(2, &mut buf).unwrap(), 1);
        assert_eq!(feed.next_chunk(2, &mut buf).unwrap(), 0, "exhausted");
        assert_eq!(buf.len(), 5);
        assert!(buf.windows(2).all(|p| p[0].arrival <= p[1].arrival));
    }

    #[test]
    fn slice_feed_matches_vec_feed() {
        let all = jobs(7);
        let mut a = VecFeed::new(all.clone());
        let mut b = SliceFeed::new(&all);
        let (mut ba, mut bb) = (Vec::new(), Vec::new());
        loop {
            let na = a.next_chunk(3, &mut ba).unwrap();
            let nb = b.next_chunk(3, &mut bb).unwrap();
            assert_eq!(na, nb);
            if na == 0 {
                break;
            }
        }
        assert_eq!(ba, bb);
    }
}
