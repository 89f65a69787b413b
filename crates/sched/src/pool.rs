//! Dynamic pool membership and probe-style load estimation.
//!
//! The paper assumes a static pool of `W` stations, all always usable at
//! low priority. A cycle-stealing scheduler instead sees a **dynamic**
//! pool: a machine is available only while its owner is away, it may be
//! occupied by a guest task already, and the scheduler's view of each
//! machine's load is an *estimate* from periodic probes (the `uptime`
//! readings the paper used for calibration), not ground truth.
//!
//! [`Pool`] tracks, per machine: the owner's busy/idle state, whether a
//! guest task occupies it (running *or* suspended — a suspended guest
//! still holds the machine's memory), and an exponentially-weighted
//! [`UtilizationEstimator`]. It also integrates the available-machine
//! count over time, the scheduler's analogue of the paper's `W`.
//!
//! # Candidate index
//!
//! The offerable-machine set lives in a [`CandidateIndex`]: a
//! tournament (segment) tree over machine indices, built once in
//! [`Pool::new`] with `2 * next_pow2(W)` nodes and never reallocated.
//! Each node holds how many offerable machines sit below it and the
//! least `(load estimate, machine)` pair among them. Costs:
//!
//! * an owner transition, occupancy change, crash or repair rewrites
//!   one leaf and its `log2 W` ancestors — O(log W);
//! * the offerable count and the least-loaded machine are read at the
//!   root — O(1);
//! * the k-th offerable machine in ascending machine order, and the
//!   number of offerable machines below a given index, are one
//!   root-to-leaf or leaf-to-root walk — O(log W).
//!
//! Every placement policy is answered from those queries (see
//! [`crate::policy`]), so no per-event cost grows with the pool. The
//! available-machine integral keeps its own O(1) free-machine counter.
//! [`Pool::candidates`] walks the whole set in ascending machine order
//! for inspection and tests; it is O(W) and stays off the event path.

use crate::policy::CandidateMachine;

/// Exponentially weighted, time-decayed estimate of one owner's
/// utilization — the probe readings a real scheduler would gossip.
///
/// Between observations the estimate is held; each observed interval of
/// busy (1) or idle (0) state is folded in with weight `1 - exp(-dt/tau)`,
/// so the estimator remembers roughly the last `tau` time units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationEstimator {
    tau: f64,
    estimate: f64,
    last_update: f64,
}

impl UtilizationEstimator {
    /// A fresh estimator with averaging window `tau` (> 0), starting
    /// from `initial` (e.g. a calibration probe, or 0 for no prior).
    pub fn new(tau: f64, initial: f64) -> Self {
        assert!(tau > 0.0 && tau.is_finite(), "tau must be finite > 0");
        Self {
            tau,
            estimate: initial.clamp(0.0, 1.0),
            last_update: 0.0,
        }
    }

    /// Fold in the interval `[self.last_update, now]` during which the
    /// owner was continuously `busy` or idle.
    pub fn observe(&mut self, now: f64, busy: bool) {
        let dt = (now - self.last_update).max(0.0);
        self.last_update = now;
        if dt == 0.0 {
            return;
        }
        let w = 1.0 - (-dt / self.tau).exp();
        let level = if busy { 1.0 } else { 0.0 };
        self.estimate += w * (level - self.estimate);
    }

    /// Current estimate in `[0, 1]`.
    pub fn estimate(&self) -> f64 {
        self.estimate
    }
}

/// Key of an empty subtree: above every real `(estimate, machine)` key.
const EMPTY: u128 = u128::MAX;

/// Order key of an offerable machine: the estimate's IEEE bits above
/// the machine index. Estimates are clamped to `[0, 1]`, where the
/// bit patterns of non-negative doubles order like the values, once
/// `+ 0.0` folds `-0.0` into `0.0` so the two tie as `<` says they do.
/// Ties then fall to the lower machine.
fn key(machine: usize, estimate: f64) -> u128 {
    (u128::from((estimate + 0.0).to_bits()) << 32) | machine as u128
}

/// The offerable machines of a [`Pool`], as a tournament tree over
/// machine indices (see the [module docs](self)).
///
/// Node 1 is the root, node `i` has children `2i` and `2i + 1`, and
/// machine `m` is leaf `leaves + m`. Leaves past the pool size stay
/// empty. Everything is allocated in the constructor; updates and
/// queries only walk the tree.
#[derive(Debug, Clone)]
pub struct CandidateIndex {
    /// Pool size `W`.
    machines: usize,
    /// First leaf: `W` rounded up to a power of two.
    leaves: usize,
    /// Offerable leaves below each node.
    count: Vec<u32>,
    /// Least [`key`] below each node, [`EMPTY`] when none.
    min: Vec<u128>,
}

impl CandidateIndex {
    /// An index over `machines` machines, with machine `m` offerable at
    /// load estimate `estimate(m)` when that is `Some`.
    pub(crate) fn new(machines: usize, estimate: impl Fn(usize) -> Option<f64>) -> Self {
        assert!(
            u32::try_from(machines).is_ok(),
            "candidate index holds at most u32::MAX machines"
        );
        let leaves = machines.next_power_of_two();
        let mut index = Self {
            machines,
            leaves,
            count: vec![0; 2 * leaves],
            min: vec![EMPTY; 2 * leaves],
        };
        for m in 0..machines {
            if let Some(e) = estimate(m) {
                index.count[leaves + m] = 1;
                index.min[leaves + m] = key(m, e);
            }
        }
        for i in (1..leaves).rev() {
            index.pull(i);
        }
        index
    }

    /// Recompute node `i` from its children.
    #[inline]
    fn pull(&mut self, i: usize) {
        self.count[i] = self.count[2 * i] + self.count[2 * i + 1];
        self.min[i] = self.min[2 * i].min(self.min[2 * i + 1]);
    }

    /// Make machine `m` offerable at load `estimate` (`Some`) or take it
    /// out (`None`): one leaf and its ancestors, O(log W).
    #[inline]
    pub(crate) fn set(&mut self, m: usize, estimate: Option<f64>) {
        let mut i = self.leaves + m;
        self.count[i] = u32::from(estimate.is_some());
        self.min[i] = estimate.map_or(EMPTY, |e| key(m, e));
        while i > 1 {
            i /= 2;
            self.pull(i);
        }
    }

    /// Number of offerable machines.
    #[inline]
    pub fn len(&self) -> usize {
        self.count[1] as usize
    }

    /// Whether no machine is offerable.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count[1] == 0
    }

    /// Whether machine `m` is offerable.
    #[inline]
    pub fn contains(&self, m: usize) -> bool {
        m < self.machines && self.count[self.leaves + m] == 1
    }

    /// The `k`-th offerable machine in ascending machine order
    /// (`k < len()`), O(log W).
    #[inline]
    pub fn select(&self, mut k: usize) -> usize {
        debug_assert!(k < self.len(), "select({k}) past {} candidates", self.len());
        let mut i = 1;
        while i < self.leaves {
            let left = self.count[2 * i] as usize;
            if k < left {
                i *= 2;
            } else {
                k -= left;
                i = 2 * i + 1;
            }
        }
        i - self.leaves
    }

    /// Number of offerable machines with an index below `m`, O(log W).
    #[inline]
    pub fn rank(&self, m: usize) -> usize {
        if m >= self.machines {
            return self.len();
        }
        let mut rank = 0;
        let mut i = self.leaves + m;
        while i > 1 {
            if i % 2 == 1 {
                rank += self.count[i - 1] as usize;
            }
            i /= 2;
        }
        rank
    }

    /// The offerable machine with the lowest load estimate, ties to the
    /// lower index (`-0.0` ties with `0.0`), O(1). `None` when empty.
    #[inline]
    pub fn least_loaded(&self) -> Option<usize> {
        (self.min[1] != EMPTY).then(|| (self.min[1] & u128::from(u32::MAX)) as usize)
    }
}

#[derive(Debug, Clone)]
struct Member {
    owner_busy: bool,
    occupied: bool,
    /// Crashed and awaiting repair (fault injection) — a down machine
    /// is never free, whatever its owner or occupancy state.
    down: bool,
    estimator: UtilizationEstimator,
}

/// Membership and load view of the workstation pool.
#[derive(Debug, Clone)]
pub struct Pool {
    members: Vec<Member>,
    admission_threshold: f64,
    // Time integral of the available-machine count.
    avail_integral: f64,
    last_change: f64,
    /// Machines with owner away and no guest aboard (regardless of the
    /// admission threshold) — the availability integral's integrand,
    /// maintained incrementally.
    free_count: usize,
    /// Offerable machines (free *and* within the admission threshold).
    index: CandidateIndex,
    /// Machines currently crashed — the downtime integral's integrand.
    down_count: usize,
    /// Time integral of the down-machine count (machine-time lost to
    /// crashes), accumulated on the same clock as `avail_integral`.
    down_integral: f64,
}

impl Pool {
    /// A pool of `n` machines, all initially idle and unoccupied.
    ///
    /// `admission_threshold` is the maximum estimated owner utilization
    /// at which a machine is still offered to the scheduler (1.0 admits
    /// everything); `tau` is the estimator window; `initial_estimates`
    /// optionally seeds each estimator from a calibration probe.
    pub fn new(n: usize, admission_threshold: f64, tau: f64, initial_estimates: &[f64]) -> Self {
        assert!(n > 0, "pool needs at least one machine");
        let members: Vec<Member> = (0..n)
            .map(|i| Member {
                owner_busy: false,
                occupied: false,
                down: false,
                estimator: UtilizationEstimator::new(
                    tau,
                    initial_estimates.get(i).copied().unwrap_or(0.0),
                ),
            })
            .collect();
        let index = CandidateIndex::new(n, |m| {
            let estimate = members[m].estimator.estimate();
            (estimate <= admission_threshold).then_some(estimate)
        });
        Self {
            members,
            admission_threshold,
            avail_integral: 0.0,
            last_change: 0.0,
            free_count: n,
            index,
            down_count: 0,
            down_integral: 0.0,
        }
    }

    /// Number of machines in the pool (available or not).
    pub fn size(&self) -> usize {
        self.members.len()
    }

    fn accumulate_availability(&mut self, now: f64) {
        // Clamp like `UtilizationEstimator::observe`: a backwards probe
        // (e.g. a query issued at an earlier timestamp than the last
        // state change) must not drive the integral negative. State
        // transitions separately `debug_assert!` monotonicity so real
        // event-ordering bugs still surface in debug/test builds.
        let dt = (now - self.last_change).max(0.0);
        self.avail_integral += dt * self.free_count as f64;
        self.down_integral += dt * self.down_count as f64;
        self.last_change = self.last_change.max(now);
    }

    fn member_free(m: &Member) -> bool {
        !m.down && !m.owner_busy && !m.occupied
    }

    /// Re-sync machine `m`'s leaf in the candidate index with its
    /// current state (owner presence, occupancy, estimate).
    fn refresh_candidate(&mut self, m: usize) {
        let member = &self.members[m];
        let estimate = member.estimator.estimate();
        let eligible = Self::member_free(member) && estimate <= self.admission_threshold;
        self.index.set(m, eligible.then_some(estimate));
    }

    /// Apply a state change to machine `m`, keeping the free counter
    /// and candidate index in sync.
    fn transition(&mut self, m: usize, mutate: impl FnOnce(&mut Member)) {
        let was_free = Self::member_free(&self.members[m]);
        mutate(&mut self.members[m]);
        let is_free = Self::member_free(&self.members[m]);
        match (was_free, is_free) {
            (true, false) => self.free_count -= 1,
            (false, true) => self.free_count += 1,
            _ => {}
        }
        // A machine that stays non-free is in the candidate index
        // neither before nor after — nothing to update.
        if was_free || is_free {
            self.refresh_candidate(m);
        }
    }

    /// Record an owner state transition on machine `m` at time `now`.
    #[inline]
    pub fn owner_transition(&mut self, now: f64, m: usize, busy: bool) {
        debug_assert!(
            now >= self.last_change,
            "owner transition at {now} precedes last pool change {}",
            self.last_change
        );
        self.accumulate_availability(now);
        let was_busy = self.members[m].owner_busy;
        self.members[m].estimator.observe(now, was_busy);
        self.transition(m, |member| member.owner_busy = busy);
    }

    /// Record a guest task taking or releasing machine `m` at `now`.
    #[inline]
    pub fn set_occupied(&mut self, now: f64, m: usize, occupied: bool) {
        debug_assert!(
            now >= self.last_change,
            "occupancy change at {now} precedes last pool change {}",
            self.last_change
        );
        self.accumulate_availability(now);
        self.transition(m, |member| member.occupied = occupied);
    }

    /// Record machine `m` crashing (`down = true`) or being repaired
    /// (`down = false`) at `now`. A down machine leaves the candidate
    /// index and the availability integral's integrand until repair;
    /// the lost machine-time accumulates in [`Pool::downtime`].
    #[inline]
    pub fn set_down(&mut self, now: f64, m: usize, down: bool) {
        debug_assert!(
            now >= self.last_change,
            "down transition at {now} precedes last pool change {}",
            self.last_change
        );
        self.accumulate_availability(now);
        if self.members[m].down != down {
            if down {
                self.down_count += 1;
            } else {
                self.down_count -= 1;
            }
        }
        self.transition(m, |member| member.down = down);
    }

    /// Whether machine `m` is currently crashed.
    pub fn is_down(&self, m: usize) -> bool {
        self.members[m].down
    }

    /// Total machine-time spent down (crashed) up to `now` — the
    /// pool-level capacity lost to failures.
    pub fn downtime(&mut self, now: f64) -> f64 {
        self.accumulate_availability(now);
        self.down_integral
    }

    /// Whether machine `m`'s owner is currently busy.
    pub fn owner_busy(&self, m: usize) -> bool {
        self.members[m].owner_busy
    }

    /// Current load estimate for machine `m`.
    pub fn load_estimate(&self, m: usize) -> f64 {
        self.members[m].estimator.estimate()
    }

    /// The index of machines currently offerable to the scheduler:
    /// owner away, no guest aboard, not down, and estimated load within
    /// the admission threshold. Placement policies choose from it.
    #[inline]
    pub fn index(&self) -> &CandidateIndex {
        &self.index
    }

    /// The offerable machines with their load estimates, in ascending
    /// machine order. O(W): for inspection and tests, not the event
    /// path (which queries [`Pool::index`]).
    pub fn candidates(&self) -> impl Iterator<Item = CandidateMachine> + '_ {
        (0..self.size())
            .filter(|&m| self.index.contains(m))
            .map(|m| CandidateMachine {
                machine: m,
                load_estimate: self.load_estimate(m),
            })
    }

    /// Time-averaged available-machine count up to `now` — the dynamic
    /// pool's effective `W`.
    pub fn mean_available(&mut self, now: f64) -> f64 {
        self.accumulate_availability(now);
        if now <= 0.0 {
            return self.free_count as f64;
        }
        self.avail_integral / now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{
        LeastLoadedPlacement, PlacementPolicy, RandomPlacement, RoundRobinPlacement,
    };
    use nds_stats::rng::Xoshiro256StarStar;

    /// The offerable machine indices, ascending.
    fn offered(p: &Pool) -> Vec<usize> {
        p.candidates().map(|c| c.machine).collect()
    }

    #[test]
    fn estimator_converges_to_duty_cycle() {
        // Owner alternates 1 busy / 9 idle => 10% utilization.
        let mut e = UtilizationEstimator::new(50.0, 0.0);
        let mut t = 0.0;
        for _ in 0..200 {
            e.observe(t + 9.0, false);
            e.observe(t + 10.0, true);
            t += 10.0;
        }
        assert!((e.estimate() - 0.10).abs() < 0.03, "est {}", e.estimate());
    }

    #[test]
    fn estimator_weighs_recent_history_more() {
        let mut e = UtilizationEstimator::new(10.0, 0.0);
        e.observe(100.0, false); // long idle stretch
        e.observe(130.0, true); // then a long busy stretch
        assert!(
            e.estimate() > 0.9,
            "recent busy dominates: {}",
            e.estimate()
        );
    }

    #[test]
    fn candidates_exclude_busy_and_occupied() {
        let mut p = Pool::new(3, 1.0, 100.0, &[]);
        p.owner_transition(1.0, 0, true);
        p.set_occupied(1.0, 1, true);
        assert_eq!(p.index().len(), 1);
        assert_eq!(offered(&p), [2]);
    }

    #[test]
    fn admission_threshold_filters_hot_machines() {
        let mut p = Pool::new(2, 0.3, 10.0, &[0.9, 0.1]);
        assert_eq!(p.index().len(), 1);
        assert_eq!(offered(&p), [1]);
        // Machine 0 cools off after a long idle observation.
        p.owner_transition(100.0, 0, false);
        assert_eq!(p.index().len(), 2);
    }

    #[test]
    fn initial_estimates_seed_the_view() {
        let p = Pool::new(2, 1.0, 100.0, &[0.25, 0.05]);
        assert_eq!(p.load_estimate(0), 0.25);
        assert_eq!(p.load_estimate(1), 0.05);
    }

    #[test]
    fn mean_available_integrates_transitions() {
        let mut p = Pool::new(2, 1.0, 100.0, &[]);
        // Both free until t=10, one busy from 10 to 30, both free to 40.
        p.owner_transition(10.0, 0, true);
        p.owner_transition(30.0, 0, false);
        let mean = p.mean_available(40.0);
        // (2*10 + 1*20 + 2*10) / 40 = 1.5
        assert!((mean - 1.5).abs() < 1e-12, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn empty_pool_rejected() {
        Pool::new(0, 1.0, 100.0, &[]);
    }

    #[test]
    fn backwards_probe_cannot_corrupt_the_integral() {
        // Regression: `accumulate_availability` used to add the raw
        // `now - last_change` product, so a probe at an earlier
        // timestamp subtracted machine-time from the integral (and
        // rewound `last_change`, double-counting the gap afterwards).
        let mut p = Pool::new(2, 1.0, 100.0, &[]);
        p.owner_transition(10.0, 0, true); // integral = 2*10 = 20
        let _ = p.mean_available(5.0); // backwards probe: must be a no-op
        let mean = p.mean_available(20.0);
        // (2*10 + 1*10) / 20 = 1.5 — unchanged by the stale probe.
        assert!((mean - 1.5).abs() < 1e-12, "mean {mean}");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "precedes last pool change")]
    fn non_monotone_transition_asserts_in_debug() {
        let mut p = Pool::new(1, 1.0, 100.0, &[]);
        p.owner_transition(10.0, 0, true);
        p.owner_transition(5.0, 0, false);
    }

    #[test]
    fn down_machines_leave_candidates_and_availability() {
        let mut p = Pool::new(2, 1.0, 100.0, &[]);
        p.set_down(10.0, 0, true);
        assert!(p.is_down(0));
        assert_eq!(p.index().len(), 1);
        assert_eq!(offered(&p), [1]);
        p.set_down(25.0, 0, false);
        assert!(!p.is_down(0));
        assert_eq!(p.index().len(), 2);
        // Availability: 2 machines to t=10, 1 from 10..25, 2 to 40.
        let mean = p.mean_available(40.0);
        assert!(
            (mean - (20.0 + 15.0 + 30.0) / 40.0).abs() < 1e-12,
            "mean {mean}"
        );
        // Downtime integral: machine 0 down for 15 machine-time units.
        assert!((p.downtime(40.0) - 15.0).abs() < 1e-12);
    }

    #[test]
    fn down_state_is_orthogonal_to_owner_and_occupancy() {
        // A crash while the owner is home (or a guest is aboard) and a
        // repair before/after the owner leaves must never double-count
        // the free counter.
        let mut p = Pool::new(1, 1.0, 100.0, &[]);
        p.owner_transition(1.0, 0, true);
        p.set_down(2.0, 0, true); // down while owner busy
        assert_eq!(p.index().len(), 0);
        p.owner_transition(3.0, 0, false); // owner leaves while down
        assert_eq!(p.index().len(), 0, "down dominates owner state");
        p.set_down(4.0, 0, false); // repair with owner away
        assert_eq!(p.index().len(), 1);
        assert_eq!(p.free_count, 1);
        // Idempotent repair is a no-op.
        p.set_down(5.0, 0, false);
        assert_eq!(p.free_count, 1);
        assert!((p.downtime(10.0) - 2.0).abs() < 1e-12);
    }

    /// What the pre-incremental implementation rebuilt per call.
    fn brute_force_candidates(p: &Pool) -> Vec<CandidateMachine> {
        p.members
            .iter()
            .enumerate()
            .filter(|(_, m)| Pool::member_free(m))
            .filter(|(_, m)| m.estimator.estimate() <= p.admission_threshold)
            .map(|(i, m)| CandidateMachine {
                machine: i,
                load_estimate: m.estimator.estimate(),
            })
            .collect()
    }

    /// Slice-era random placement: an index into the ascending slice.
    fn oracle_random(c: &[CandidateMachine], rng: &mut Xoshiro256StarStar) -> usize {
        rng.next_bounded(c.len() as u64) as usize
    }

    /// Slice-era round-robin: first candidate at or after the cursor,
    /// wrapping to the front.
    fn oracle_round_robin(c: &[CandidateMachine], cursor: &mut usize) -> usize {
        let pick = c.iter().position(|c| c.machine >= *cursor).unwrap_or(0);
        *cursor = c[pick].machine + 1;
        pick
    }

    /// Slice-era least-loaded: strict `<` scan, so ties keep the
    /// earliest machine.
    fn oracle_least_loaded(c: &[CandidateMachine]) -> usize {
        let mut best = 0;
        for (i, x) in c.iter().enumerate().skip(1) {
            if x.load_estimate < c[best].load_estimate {
                best = i;
            }
        }
        best
    }

    /// Whether machine `m`'s estimate passes the admission threshold.
    fn admitted(p: &Pool, m: usize) -> bool {
        p.members[m].estimator.estimate() <= p.admission_threshold
    }

    /// The index equals the from-scratch slice rebuild: its listing,
    /// count, `select` and `rank` position by position, and every
    /// policy's pick and the placement RNG after it. The free counter
    /// equals a recount.
    struct Differential {
        rng: Xoshiro256StarStar,
        round_robin: RoundRobinPlacement,
        cursor: usize,
    }

    impl Differential {
        fn check(&mut self, p: &Pool, step: usize) {
            let slice = brute_force_candidates(p);
            let index = p.index();
            assert_eq!(p.candidates().collect::<Vec<_>>(), slice, "step {step}");
            assert_eq!(index.len(), slice.len(), "count at step {step}");
            let free = p.members.iter().filter(|m| Pool::member_free(m)).count();
            assert_eq!(p.free_count, free, "free counter at step {step}");
            assert_eq!(index.is_empty(), slice.is_empty());
            for (k, c) in slice.iter().enumerate() {
                assert_eq!(index.select(k), c.machine, "select({k}) at step {step}");
                assert_eq!(index.rank(c.machine), k, "rank at step {step}");
            }
            assert_eq!(index.rank(p.size()), slice.len());
            if slice.is_empty() {
                assert_eq!(index.least_loaded(), None);
                return;
            }

            let mut by_index = self.rng.clone();
            let mut by_oracle = self.rng.clone();
            let got = RandomPlacement.choose(index, &mut by_index);
            let want = slice[oracle_random(&slice, &mut by_oracle)].machine;
            assert_eq!(got, want, "random pick at step {step}");
            assert_eq!(by_index, by_oracle, "random rng at step {step}");
            self.rng = by_index;

            let mut by_oracle = self.rng.clone();
            let got = self.round_robin.choose(index, &mut self.rng);
            let want = slice[oracle_round_robin(&slice, &mut self.cursor)].machine;
            assert_eq!(got, want, "round-robin pick at step {step}");
            assert_eq!(self.rng, by_oracle, "round-robin rng at step {step}");

            let got = LeastLoadedPlacement.choose(index, &mut by_oracle);
            let want = slice[oracle_least_loaded(&slice)].machine;
            assert_eq!(got, want, "least-loaded pick at step {step}");
            assert_eq!(self.rng, by_oracle, "least-loaded rng at step {step}");
        }
    }

    #[test]
    fn incremental_index_matches_brute_force_rebuild() {
        // Seeded churn of owner transitions, occupancy and crash/repair
        // on pools around the tree's power-of-two boundaries. Estimates
        // start on a coarse grid (ties, -0.0, both sides of the 0.5
        // admission threshold) and follow owner history (tau = 20):
        // they cross the threshold upward over an owner's busy spell,
        // back down while the machine sits idle, and drift while it
        // stays offerable.
        for w in [1usize, 5, 63, 64, 65, 1000] {
            let mut churn = Xoshiro256StarStar::new(0xC0FFEE ^ w as u64);
            let grid = [-0.0, 0.0, 0.25, 0.5, 0.5, 0.75, 0.9];
            let initial: Vec<f64> = (0..w)
                .map(|_| grid[churn.next_bounded(grid.len() as u64) as usize])
                .collect();
            let mut p = Pool::new(w, 0.5, 20.0, &initial);
            let mut diff = Differential {
                rng: Xoshiro256StarStar::new(w as u64),
                round_robin: RoundRobinPlacement::default(),
                cursor: 0,
            };
            diff.check(&p, 0);
            let (mut admitted_in, mut admitted_out, mut drift) = (0, 0, 0);
            let mut t = 0.0;
            for step in 1..=4 * w.max(250) {
                t += 5.0 * churn.next_f64();
                let m = churn.next_bounded(w as u64) as usize;
                let free_before = Pool::member_free(&p.members[m]);
                let (admitted_before, estimate_before) = (admitted(&p, m), p.load_estimate(m));
                match churn.next_bounded(6) {
                    0 => p.owner_transition(t, m, true),
                    1 => p.owner_transition(t, m, false),
                    2 => p.set_occupied(t, m, true),
                    3 => p.set_occupied(t, m, false),
                    4 => p.set_down(t, m, true),
                    _ => p.set_down(t, m, false),
                }
                match (admitted_before, admitted(&p, m)) {
                    (false, true) => admitted_in += 1,
                    (true, false) => admitted_out += 1,
                    (true, true)
                        if free_before
                            && Pool::member_free(&p.members[m])
                            && p.load_estimate(m) != estimate_before =>
                    {
                        drift += 1
                    }
                    _ => {}
                }
                diff.check(&p, step);
            }
            if w > 1 {
                assert!(
                    admitted_in > 0 && admitted_out > 0 && drift > 0,
                    "W={w}: churn must cross the threshold both ways and move \
                     admitted estimates ({admitted_in} in, {admitted_out} out, {drift} drift)"
                );
            }
        }
    }

    #[test]
    fn least_loaded_ties_negative_zero_with_zero() {
        // Raw IEEE bits order -0.0 above every positive double; the
        // index folds it into 0.0 as the strict `<` scan did.
        let mut rng = Xoshiro256StarStar::new(1);
        let p = Pool::new(2, 1.0, 100.0, &[-0.0, 0.5]);
        assert!(p.load_estimate(0).is_sign_negative());
        assert_eq!(LeastLoadedPlacement.choose(p.index(), &mut rng), 0);
        let p = Pool::new(2, 1.0, 100.0, &[-0.0, 0.0]);
        assert_eq!(LeastLoadedPlacement.choose(p.index(), &mut rng), 0);
        let p = Pool::new(2, 1.0, 100.0, &[0.0, -0.0]);
        assert_eq!(LeastLoadedPlacement.choose(p.index(), &mut rng), 0);
    }
}
