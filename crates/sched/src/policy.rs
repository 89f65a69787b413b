//! Task-placement policies.
//!
//! When the central queue has work and the pool has available machines,
//! a [`PlacementPolicy`] picks where the next task lands. It chooses
//! from the pool's [`CandidateIndex`], which orders the offerable
//! machines by index and by the pool's probe-style load estimates (see
//! [`crate::pool::UtilizationEstimator`]), so policies can be load-aware
//! without any global knowledge a real scheduler would lack. Each
//! built-in policy is one O(log W) query on the index.

use crate::pool::CandidateIndex;
use nds_stats::rng::Xoshiro256StarStar;

/// One available machine with its load estimate, as listed by
/// [`crate::pool::Pool::candidates`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateMachine {
    /// Machine index in the pool.
    pub machine: usize,
    /// The pool's current estimate of this machine's owner utilization
    /// (0 = believed idle, 1 = believed saturated).
    pub load_estimate: f64,
}

/// Chooses a machine for the next task.
///
/// `choose` receives the pool's non-empty [`CandidateIndex`] and returns
/// the **machine index** of one offerable machine. The index answers
/// "how many" ([`CandidateIndex::len`]), "the k-th in machine order"
/// ([`CandidateIndex::select`]), "how many below machine m"
/// ([`CandidateIndex::rank`]) and "least loaded"
/// ([`CandidateIndex::least_loaded`]) in O(log W) or better, so a policy
/// built from those queries costs no more as the pool grows. Policies
/// may keep state (e.g. a round-robin cursor) between calls.
pub trait PlacementPolicy {
    /// Short stable name for tables and CLI flags.
    fn name(&self) -> &'static str;

    /// Pick one machine from `candidates` (guaranteed non-empty).
    fn choose(&mut self, candidates: &CandidateIndex, rng: &mut Xoshiro256StarStar) -> usize;
}

/// Uniformly random placement — the baseline a real scheduler must beat.
#[derive(Debug, Default)]
pub struct RandomPlacement;

impl PlacementPolicy for RandomPlacement {
    fn name(&self) -> &'static str {
        "random"
    }

    fn choose(&mut self, candidates: &CandidateIndex, rng: &mut Xoshiro256StarStar) -> usize {
        candidates.select(rng.next_bounded(candidates.len() as u64) as usize)
    }
}

/// Cycle through machine indices, skipping unavailable ones.
#[derive(Debug, Default)]
pub struct RoundRobinPlacement {
    next_machine: usize,
}

impl PlacementPolicy for RoundRobinPlacement {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn choose(&mut self, candidates: &CandidateIndex, _rng: &mut Xoshiro256StarStar) -> usize {
        // First candidate at or after the cursor, wrapping to the front.
        let rank = candidates.rank(self.next_machine);
        let pick = candidates.select(if rank < candidates.len() { rank } else { 0 });
        self.next_machine = pick + 1;
        pick
    }
}

/// Send the task to the machine with the lowest estimated owner
/// utilization (ties broken by machine index).
#[derive(Debug, Default)]
pub struct LeastLoadedPlacement;

impl PlacementPolicy for LeastLoadedPlacement {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn choose(&mut self, candidates: &CandidateIndex, _rng: &mut Xoshiro256StarStar) -> usize {
        candidates
            .least_loaded()
            .expect("invariant: choose is only called on a non-empty index")
    }
}

/// Value-type selector for the built-in policies, convenient for sweeps
/// and config structs (policies themselves are stateful objects).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementKind {
    /// [`RandomPlacement`].
    Random,
    /// [`RoundRobinPlacement`].
    RoundRobin,
    /// [`LeastLoadedPlacement`].
    LeastLoaded,
}

impl PlacementKind {
    /// Every built-in policy, in sweep order.
    pub const ALL: [PlacementKind; 3] = [
        PlacementKind::Random,
        PlacementKind::RoundRobin,
        PlacementKind::LeastLoaded,
    ];

    /// Short stable name matching the policy's own.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Random => "random",
            Self::RoundRobin => "round-robin",
            Self::LeastLoaded => "least-loaded",
        }
    }

    /// Parse a CLI-style name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Instantiate a fresh policy object.
    pub fn build(&self) -> Box<dyn PlacementPolicy> {
        match self {
            Self::Random => Box::new(RandomPlacement),
            Self::RoundRobin => Box::new(RoundRobinPlacement::default()),
            Self::LeastLoaded => Box::new(LeastLoadedPlacement),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An index over machines `0..=max`, offering exactly `specs`.
    fn cands(specs: &[(usize, f64)]) -> CandidateIndex {
        let machines = specs.iter().map(|&(m, _)| m + 1).max().unwrap_or(1);
        CandidateIndex::new(machines, |m| {
            specs.iter().find(|&&(c, _)| c == m).map(|&(_, e)| e)
        })
    }

    #[test]
    fn random_stays_in_bounds_and_covers() {
        let mut p = RandomPlacement;
        let mut rng = Xoshiro256StarStar::new(1);
        let c = cands(&[(0, 0.1), (3, 0.2), (7, 0.3)]);
        let mut seen = [false; 3];
        for _ in 0..200 {
            let m = p.choose(&c, &mut rng);
            let i = [0, 3, 7].iter().position(|&x| x == m).expect("a candidate");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "all candidates eventually chosen");
    }

    #[test]
    fn round_robin_cycles_over_machine_ids() {
        let mut p = RoundRobinPlacement::default();
        let mut rng = Xoshiro256StarStar::new(1);
        let c = cands(&[(0, 0.0), (2, 0.0), (5, 0.0)]);
        let picks: Vec<usize> = (0..6).map(|_| p.choose(&c, &mut rng)).collect();
        assert_eq!(picks, vec![0, 2, 5, 0, 2, 5]);
    }

    #[test]
    fn round_robin_skips_missing_machines() {
        let mut p = RoundRobinPlacement::default();
        let mut rng = Xoshiro256StarStar::new(1);
        // Machine 1 disappears between calls; cursor moves past it.
        let c1 = cands(&[(0, 0.0), (1, 0.0)]);
        assert_eq!(p.choose(&c1, &mut rng), 0);
        let c2 = cands(&[(3, 0.0), (9, 0.0)]);
        assert_eq!(p.choose(&c2, &mut rng), 3);
    }

    #[test]
    fn least_loaded_picks_minimum_with_stable_ties() {
        let mut p = LeastLoadedPlacement;
        let mut rng = Xoshiro256StarStar::new(1);
        let c = cands(&[(0, 0.3), (1, 0.05), (2, 0.05), (3, 0.2)]);
        // Minimum is shared by machines 1 and 2; the earliest wins.
        assert_eq!(p.choose(&c, &mut rng), 1);
    }

    #[test]
    fn kind_round_trips_names() {
        for kind in PlacementKind::ALL {
            assert_eq!(PlacementKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.build().name(), kind.name());
        }
        assert_eq!(PlacementKind::parse("nope"), None);
    }
}
