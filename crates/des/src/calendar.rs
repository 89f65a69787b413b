//! The typed event calendar.
//!
//! [`Calendar<E>`] stores plain event *values* instead of boxed
//! closures. Each heap entry packs the `(time, seq)` ordering key into
//! one integer and carries its payload inline; cancellable events are
//! additionally backed by a generation slab addressed by
//! [`EventHandle`]s, while fire-and-forget events ([`Calendar::post`])
//! skip the slab entirely. That buys the hot path three things a
//! calendar of boxed closures cannot offer:
//!
//! * **no per-event heap allocation** — scheduling an event reuses a
//!   slab slot and pushes a `Copy` entry onto the heap; once the heap
//!   and slab have grown to their high-water mark, the steady state
//!   allocates nothing at all;
//! * **O(1) cancellation without hash sets** — cancelling bumps the
//!   slot's generation, instantly invalidating the matching heap entry
//!   (validity at pop time is a single integer compare against the
//!   slab, replacing an `alive`/`cancelled` set pair);
//! * **an inverted control flow** — [`Calendar::pop`] hands the next
//!   event *value* back to the caller, so the driving loop owns its
//!   state directly (`&mut Sim`) instead of threading it through
//!   `Rc<RefCell<..>>` captures.
//!
//! Ordering is earliest time first, ties broken by insertion sequence
//! number, which keeps runs bit-for-bit deterministic. Models with a
//! closed event vocabulary name their events in an enum (see
//! `nds-sched`'s `SchedEvent` and `nds-cluster`'s SMP workstation).

use crate::error::DesError;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Identifies a scheduled event in a [`Calendar`], usable for
/// cancellation. Handles are generation-counted: once the event fires
/// or is cancelled, the handle goes stale and all further operations
/// on it are no-ops — even if the underlying slot has been reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle {
    slot: u32,
    gen: u32,
}

/// The `(time, seq)` ordering key packed into one `u128` integer
/// compare: the IEEE-754 bits of a nonnegative finite `f64` order
/// exactly like the float itself, so `time_bits << 64 | seq` is the
/// lexicographic key — one branchless compare per heap sift step
/// instead of a float compare plus a tie-break branch. (`t + 0.0`
/// normalizes a negative zero, whose sign bit would otherwise invert
/// its ordering.)
fn pack_key(time: SimTime, seq: u64) -> u128 {
    let bits = (time.as_f64() + 0.0).to_bits();
    (u128::from(bits)) << 64 | u128::from(seq)
}

/// Slot sentinel marking an entry scheduled through [`Calendar::post`]:
/// no slab slot backs it, it cannot be cancelled, and pop-time validity
/// needs no check at all.
const UNMANAGED: u32 = u32::MAX;

/// One heap entry: packed ordering key, the event payload *inline*
/// (nothing is fetched from a side table on the hot path), and — for
/// cancellable events — the generation-checked slab coordinates.
#[derive(Debug, Clone, Copy)]
struct Entry<E> {
    /// [`pack_key`] of `(time, seq)`.
    key: u128,
    payload: E,
    /// Slab slot validating this entry, or [`UNMANAGED`].
    slot: u32,
    gen: u32,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}

// BinaryHeap is a max-heap; invert the ordering to pop the earliest
// time first, then the lowest sequence number.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Recover the event time from a packed key (the high 64 bits are the
/// normalized IEEE bits of the time).
fn key_time(key: u128) -> SimTime {
    SimTime::from_trusted(f64::from_bits((key >> 64) as u64))
}

/// A typed event calendar + simulation clock.
///
/// # Example
///
/// ```
/// use nds_des::{Calendar, SimTime};
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { Ping, Pong }
///
/// let mut cal = Calendar::new();
/// cal.schedule(SimTime::new(2.0), Ev::Pong).unwrap();
/// cal.schedule(SimTime::new(1.0), Ev::Ping).unwrap();
/// let (t, ev) = cal.pop().unwrap();
/// assert_eq!((t.as_f64(), ev), (1.0, Ev::Ping));
/// let (t, ev) = cal.pop().unwrap();
/// assert_eq!((t.as_f64(), ev), (2.0, Ev::Pong));
/// assert!(cal.pop().is_none());
/// assert_eq!(cal.now().as_f64(), 2.0);
/// ```
#[derive(Debug)]
pub struct Calendar<E> {
    clock: SimTime,
    next_seq: u64,
    heap: BinaryHeap<Entry<E>>,
    /// Per-slot retirement generation; a handle or heap entry is live
    /// only while its recorded generation matches. (Payloads live in
    /// the heap entries themselves — the slab holds nothing but
    /// generations.)
    gens: Vec<u32>,
    /// Retired slot indices awaiting reuse.
    free: Vec<u32>,
    /// Pre-sorted far-future events ([`Calendar::schedule_sorted`]),
    /// consumed front to back and merged with the heap at pop time by
    /// `(time, seq)` (stored packed). Keeps statically-known event
    /// streams (e.g. an open workload's arrival sequence) out of the
    /// heap, so heap depth tracks the *live horizon*, not the whole
    /// experiment.
    backlog: VecDeque<(SimTime, u128, E)>,
    /// The backlog head's packed key, or `u128::MAX` when the backlog
    /// is empty — saves the deque deref on every pop.
    backlog_head: u128,
    /// Scheduled-but-not-yet-fired-or-cancelled events.
    live: usize,
    executed: u64,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    /// A fresh calendar at time zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// A fresh calendar with room for `capacity` simultaneous events
    /// before any allocation.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            clock: SimTime::ZERO,
            next_seq: 0,
            heap: BinaryHeap::with_capacity(capacity),
            gens: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            backlog: VecDeque::new(),
            backlog_head: u128::MAX,
            live: 0,
            executed: 0,
        }
    }

    /// The current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently pending (excluding cancelled ones).
    pub fn pending(&self) -> usize {
        self.live
    }

    /// Whether no event is pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedule `event` at absolute time `at` (>= now).
    #[inline]
    pub fn schedule(&mut self, at: SimTime, event: E) -> Result<EventHandle, DesError> {
        if at < self.clock {
            return Err(DesError::ScheduleInPast {
                now: self.clock.as_f64(),
                requested: at.as_f64(),
            });
        }
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.gens.len()).expect("slab outgrew u32 indices");
                assert!(slot != UNMANAGED, "slab outgrew u32 indices");
                self.gens.push(0);
                slot
            }
        };
        let gen = self.gens[slot as usize];
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live += 1;
        self.heap.push(Entry {
            key: pack_key(at, seq),
            payload: event,
            slot,
            gen,
        });
        Ok(EventHandle { slot, gen })
    }

    /// Schedule `event` to fire `delay` after the current time.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimTime, event: E) -> Result<EventHandle, DesError> {
        self.schedule(self.clock + delay, event)
    }

    /// Bulk-schedule a time-sorted stream of far-future events without
    /// routing them through the heap.
    ///
    /// The events enter a FIFO backlog that [`Calendar::pop`] merges
    /// with the heap by `(time, seq)`; sequence numbers are allocated
    /// here, in iteration order, exactly as if each event had been
    /// [`Calendar::schedule`]d in turn — tie-breaking against heap
    /// events and within the batch is therefore *identical* to the
    /// plain path. What changes is purely mechanical: the heap (and
    /// slab) stay sized to the live event horizon instead of holding
    /// the whole experiment's arrival stream, which is worth a large
    /// constant factor on open-stream workloads (see `perf_core`).
    ///
    /// Backlog events cannot be cancelled (no handles are returned) —
    /// use the plain path for anything that might be revoked. Times
    /// must be nondecreasing within the batch, at or after the current
    /// clock, and at or after any earlier backlog tail; a violating
    /// event returns [`DesError::ScheduleInPast`] and leaves the
    /// events before it scheduled.
    pub fn schedule_sorted(
        &mut self,
        events: impl IntoIterator<Item = (SimTime, E)>,
    ) -> Result<(), DesError> {
        for (at, event) in events {
            let floor = self
                .backlog
                .back()
                .map_or(self.clock, |&(t, _, _)| t.max(self.clock));
            if at < floor {
                return Err(DesError::ScheduleInPast {
                    now: floor.as_f64(),
                    requested: at.as_f64(),
                });
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            self.live += 1;
            let key = pack_key(at, seq);
            if self.backlog.is_empty() {
                self.backlog_head = key;
            }
            self.backlog.push_back((at, key, event));
        }
        Ok(())
    }

    /// Whether `handle` refers to a still-pending event.
    pub fn is_live(&self, handle: EventHandle) -> bool {
        self.gens
            .get(handle.slot as usize)
            .is_some_and(|&gen| gen == handle.gen)
    }

    /// Schedule an *uncancellable* event at absolute time `at`
    /// (>= now): no handle is returned and no slab slot is consumed,
    /// so pop-time validity needs no generation check at all. The
    /// fire-and-forget lane for events that are never revoked (owner
    /// arrivals/departures, job arrivals); ordering against
    /// [`Calendar::schedule`]d events is identical (one shared
    /// sequence counter).
    #[inline]
    pub fn post(&mut self, at: SimTime, event: E) -> Result<(), DesError> {
        if at < self.clock {
            return Err(DesError::ScheduleInPast {
                now: self.clock.as_f64(),
                requested: at.as_f64(),
            });
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live += 1;
        self.heap.push(Entry {
            key: pack_key(at, seq),
            payload: event,
            slot: UNMANAGED,
            gen: 0,
        });
        Ok(())
    }

    /// [`Calendar::post`] at `delay` after the current time.
    #[inline]
    pub fn post_in(&mut self, delay: SimTime, event: E) -> Result<(), DesError> {
        self.post(self.clock + delay, event)
    }

    /// Cancel a pending event. Returns `true` if the event existed and
    /// had not yet fired; `false` for a stale handle (the event
    /// already fired or was cancelled — cancellation is idempotent).
    /// The matching heap entry is invalidated by the generation bump
    /// and skipped at pop time.
    #[inline]
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        match self.gens.get_mut(handle.slot as usize) {
            Some(gen) if *gen == handle.gen => {
                *gen = gen.wrapping_add(1);
                self.free.push(handle.slot);
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Drop cancelled entries off the top of the heap so `peek` sees a
    /// live entry (or nothing).
    fn clean_top(&mut self) {
        while let Some(entry) = self.heap.peek() {
            if entry.slot == UNMANAGED || self.gens[entry.slot as usize] == entry.gen {
                return;
            }
            // Stale: the event was cancelled (and the slot perhaps
            // reused since); drop the entry and keep looking.
            self.heap.pop();
        }
    }

    /// Remove and return the next event, advancing the clock to its
    /// time, or `None` when the calendar is empty. Cancelled entries
    /// encountered on the way are discarded without counting as
    /// executed. Heap and backlog events interleave by `(time, seq)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.clean_top();
        let from_backlog = match self.heap.peek() {
            None if self.backlog_head == u128::MAX => return None,
            None => true,
            Some(entry) => self.backlog_head < entry.key,
        };
        let (key, event) = if from_backlog {
            let (_, key, event) = self.backlog.pop_front().expect("head key was live");
            self.backlog_head = self.backlog.front().map_or(u128::MAX, |&(_, k, _)| k);
            (key, event)
        } else {
            let entry = self.heap.pop().expect("peeked above");
            if entry.slot != UNMANAGED {
                self.gens[entry.slot as usize] = self.gens[entry.slot as usize].wrapping_add(1);
                self.free.push(entry.slot);
            }
            (entry.key, entry.payload)
        };
        self.live -= 1;
        let time = key_time(key);
        debug_assert!(time >= self.clock, "time went backwards");
        self.clock = time;
        self.executed += 1;
        Some((time, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Tag(u32);

    fn drain(cal: &mut Calendar<Tag>) -> Vec<(f64, u32)> {
        std::iter::from_fn(|| cal.pop())
            .map(|(t, Tag(tag))| (t.as_f64(), tag))
            .collect()
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut cal = Calendar::new();
        for (i, &t) in [5.0, 1.0, 3.0].iter().enumerate() {
            cal.schedule(SimTime::new(t), Tag(i as u32)).unwrap();
        }
        assert_eq!(drain(&mut cal), vec![(1.0, 1), (3.0, 2), (5.0, 0)]);
        assert_eq!(cal.executed(), 3);
        assert_eq!(cal.now().as_f64(), 5.0);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut cal = Calendar::new();
        for tag in 0..5 {
            cal.schedule(SimTime::new(2.0), Tag(tag)).unwrap();
        }
        let tags: Vec<u32> = drain(&mut cal).into_iter().map(|(_, tag)| tag).collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn scheduling_in_past_rejected() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::new(10.0), Tag(0)).unwrap();
        cal.pop().unwrap();
        assert!(matches!(
            cal.schedule(SimTime::new(5.0), Tag(1)),
            Err(DesError::ScheduleInPast { .. })
        ));
        // Scheduling exactly at the clock is fine.
        cal.schedule(SimTime::new(10.0), Tag(2)).unwrap();
        assert_eq!(cal.pending(), 1);
    }

    #[test]
    fn cancel_prevents_execution_once() {
        let mut cal = Calendar::new();
        let h = cal.schedule(SimTime::new(1.0), Tag(7)).unwrap();
        assert!(cal.is_live(h));
        assert!(cal.cancel(h));
        assert!(!cal.is_live(h));
        assert!(!cal.cancel(h), "double cancel is a no-op");
        assert!(cal.pop().is_none(), "cancelled events never fire");
        assert_eq!(cal.executed(), 0);
    }

    #[test]
    fn stale_handles_survive_slot_reuse() {
        let mut cal = Calendar::new();
        let a = cal.schedule(SimTime::new(1.0), Tag(1)).unwrap();
        assert!(cal.cancel(a));
        // The slot is reused by a fresh event; the old handle must not
        // be able to touch it.
        let b = cal.schedule(SimTime::new(2.0), Tag(2)).unwrap();
        assert!(!cal.cancel(a));
        assert!(cal.is_live(b));
        assert_eq!(cal.pop(), Some((SimTime::new(2.0), Tag(2))));
        // And a handle that already fired is equally dead.
        assert!(!cal.cancel(b));
    }

    #[test]
    fn posted_events_interleave_with_scheduled_ones() {
        let mut cal = Calendar::new();
        cal.post(SimTime::new(2.0), Tag(0)).unwrap();
        let h = cal.schedule(SimTime::new(1.0), Tag(1)).unwrap();
        cal.post(SimTime::new(1.0), Tag(2)).unwrap();
        cal.post_in(SimTime::new(3.0), Tag(3)).unwrap();
        assert_eq!(cal.pending(), 4);
        // Tie at t=1.0 breaks by insertion order: the handle first.
        assert_eq!(cal.pop(), Some((SimTime::new(1.0), Tag(1))));
        assert_eq!(cal.pop(), Some((SimTime::new(1.0), Tag(2))));
        assert_eq!(cal.pop(), Some((SimTime::new(2.0), Tag(0))));
        assert_eq!(cal.pop(), Some((SimTime::new(3.0), Tag(3))));
        assert!(cal.pop().is_none());
        let _ = h;
        // Posting into the past is rejected like scheduling.
        assert!(matches!(
            cal.post(SimTime::new(1.0), Tag(9)),
            Err(DesError::ScheduleInPast { .. })
        ));
    }

    #[test]
    fn pending_excludes_cancelled() {
        let mut cal = Calendar::new();
        let a = cal.schedule(SimTime::new(1.0), Tag(0)).unwrap();
        cal.schedule(SimTime::new(2.0), Tag(1)).unwrap();
        assert_eq!(cal.pending(), 2);
        cal.cancel(a);
        assert_eq!(cal.pending(), 1);
        assert!(!cal.is_empty());
        cal.pop();
        assert!(cal.is_empty());
    }

    #[test]
    fn schedule_in_offsets_from_the_clock() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::new(3.0), Tag(0)).unwrap();
        cal.pop().unwrap();
        cal.schedule_in(SimTime::new(4.0), Tag(1)).unwrap();
        assert_eq!(cal.pop(), Some((SimTime::new(7.0), Tag(1))));
    }

    #[test]
    fn slab_reuses_slots_without_growth() {
        let mut cal = Calendar::new();
        // Steady-state schedule/pop churn must stay within the slab's
        // high-water mark: two slots for two simultaneous events.
        let mut handles = Vec::new();
        for round in 0..100u32 {
            let t = SimTime::new(f64::from(round) + 1.0);
            handles.push(cal.schedule(t, Tag(round)).unwrap());
            cal.schedule(t, Tag(round + 1000)).unwrap();
            cal.pop().unwrap();
            cal.pop().unwrap();
        }
        assert_eq!(cal.gens.len(), 2, "slab high-water mark is 2 slots");
        assert_eq!(cal.executed(), 200);
        for h in handles {
            assert!(!cal.is_live(h), "fired handles are all stale");
        }
    }
}
