//! Property tests pinning the typed [`Calendar`] to a reference model
//! as its behavioural oracle: the two must agree on execution order
//! (time, then insertion sequence), cancellation semantics, and clock
//! advancement for *any* schedule — including ties, cancels, and events
//! scheduled from inside handlers. The pre-sorted backlog lane and the
//! fire-and-forget `post` lane must be indistinguishable from plain
//! scheduling. This is the ordering half of the event core's
//! correctness argument; `tests/event_core_oracle.rs` is the end-to-end
//! half.

use nds::des::{Calendar, SimTime};
use proptest::prelude::*;

/// One scheduled event of the random workload: a start time, whether
/// it gets cancelled before anything runs, and an optional follow-up
/// the handler schedules at `now + delay` when it fires.
#[derive(Debug, Clone, Copy)]
struct Spec {
    time: u8,
    cancel: bool,
    followup: Option<u8>,
}

fn spec() -> impl Strategy<Value = Spec> {
    // Times in a tiny range so ties are common (the interesting case).
    (0u8..20, 0u8..2, 0u8..11).prop_map(|(time, cancel, follow)| Spec {
        time,
        cancel: cancel == 1,
        followup: (follow > 0).then_some(follow),
    })
}

/// Fired-event log: `(time, tag)` with tags >= 1000 marking follow-ups.
type Log = Vec<(f64, usize)>;

/// Run the workload on the reference model: a plain list of pending
/// `(time, seq, tag)` entries, popped by a linear scan for the least
/// `(time, seq)`, with cancellation done by removal. Times stay
/// integers, so the model orders them without any float comparison.
fn run_reference(specs: &[Spec]) -> Log {
    let mut pending: Vec<(u32, usize, usize)> = specs
        .iter()
        .enumerate()
        .map(|(tag, s)| (u32::from(s.time), tag, tag))
        .collect();
    pending.retain(|&(_, _, tag)| !specs[tag].cancel);
    let mut next_seq = specs.len();
    let mut log = Log::new();
    while let Some(next) = (0..pending.len()).min_by_key(|&i| (pending[i].0, pending[i].1)) {
        let (time, _, tag) = pending.remove(next);
        log.push((f64::from(time), tag));
        // Follow-up tags (>= 1000) index no spec, so they end here.
        if let Some(delay) = specs.get(tag).and_then(|s| s.followup) {
            pending.push((time + u32::from(delay), next_seq, tag + 1000));
            next_seq += 1;
        }
    }
    log
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Main(usize),
    Follow(usize),
}

/// Run the same workload on the typed calendar; `post_followups`
/// routes the handler-scheduled events through the fire-and-forget
/// lane instead of the cancellable one (they must order identically).
fn run_calendar(specs: &[Spec], post_followups: bool) -> Log {
    let mut cal: Calendar<Ev> = Calendar::new();
    let mut handles = Vec::new();
    for (tag, s) in specs.iter().enumerate() {
        handles.push(
            cal.schedule(SimTime::new(f64::from(s.time)), Ev::Main(tag))
                .unwrap(),
        );
    }
    for (s, h) in specs.iter().zip(handles) {
        if s.cancel {
            assert!(cal.is_live(h));
            assert!(cal.cancel(h));
            assert!(!cal.cancel(h), "cancel is idempotent");
        }
    }
    let mut log = Log::new();
    while let Some((t, ev)) = cal.pop() {
        match ev {
            Ev::Main(tag) => {
                log.push((t.as_f64(), tag));
                if let Some(delay) = specs[tag].followup {
                    let at = SimTime::new(f64::from(delay));
                    if post_followups {
                        cal.post_in(at, Ev::Follow(tag)).unwrap();
                    } else {
                        cal.schedule_in(at, Ev::Follow(tag)).unwrap();
                    }
                }
            }
            Ev::Follow(tag) => log.push((t.as_f64(), tag + 1000)),
        }
    }
    assert!(cal.is_empty());
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The typed calendar replays the reference model exactly: same
    /// events, same times, same order — ties broken by insertion
    /// sequence on both sides, cancels honoured, follow-ups
    /// interleaved identically (through either scheduling lane).
    #[test]
    fn calendar_matches_reference_order(specs in proptest::collection::vec(spec(), 0..40)) {
        let oracle = run_reference(&specs);
        prop_assert_eq!(&run_calendar(&specs, false), &oracle);
        prop_assert_eq!(&run_calendar(&specs, true), &oracle);
    }

    /// A time-sorted arrival stream entering through the backlog lane
    /// ([`Calendar::schedule_sorted`]) pops in exactly the order plain
    /// scheduling would produce, however it interleaves with
    /// heap-scheduled events.
    #[test]
    fn backlog_lane_is_order_transparent(
        raw_arrivals in proptest::collection::vec(0u8..30, 0..20),
        heap_events in proptest::collection::vec(0u8..30, 0..20),
    ) {
        let mut arrivals = raw_arrivals;
        arrivals.sort_unstable();
        let mut plain: Calendar<u32> = Calendar::new();
        let mut lane: Calendar<u32> = Calendar::new();
        for (i, &t) in arrivals.iter().enumerate() {
            plain.schedule(SimTime::new(f64::from(t)), i as u32).unwrap();
        }
        lane.schedule_sorted(
            arrivals
                .iter()
                .enumerate()
                .map(|(i, &t)| (SimTime::new(f64::from(t)), i as u32)),
        )
        .unwrap();
        for (i, &t) in heap_events.iter().enumerate() {
            let tag = 1000 + i as u32;
            plain.schedule(SimTime::new(f64::from(t)), tag).unwrap();
            lane.schedule(SimTime::new(f64::from(t)), tag).unwrap();
        }
        prop_assert_eq!(plain.pending(), lane.pending());
        loop {
            let (a, b) = (plain.pop(), lane.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Scheduling (or posting) into the past is rejected with a typed
    /// error, and never corrupts the calendar.
    #[test]
    fn schedule_in_past_rejected(t1 in 1u8..50, dt in 1u8..50) {
        let mut cal: Calendar<u8> = Calendar::new();
        cal.schedule(SimTime::new(f64::from(t1)), 0).unwrap();
        cal.pop().unwrap();
        let past = SimTime::new(f64::from(t1.saturating_sub(dt)));
        prop_assert!(matches!(
            cal.schedule(past, 1),
            Err(nds::des::DesError::ScheduleInPast { .. })
        ));
        prop_assert!(matches!(
            cal.post(past, 1),
            Err(nds::des::DesError::ScheduleInPast { .. })
        ));
        prop_assert!(cal.is_empty());
        prop_assert_eq!(cal.executed(), 1);
    }

    /// Generation safety: a cancelled handle stays dead through
    /// arbitrary slot reuse — it can never cancel the event that
    /// recycled its slot.
    #[test]
    fn stale_handles_never_resurrect(times in proptest::collection::vec(1u8..30, 1..20)) {
        let mut cal: Calendar<u32> = Calendar::new();
        let mut stale = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            let h = cal.schedule(SimTime::new(f64::from(t)), i as u32).unwrap();
            cal.cancel(h);
            stale.push(h);
        }
        // Live events now reuse the retired slots.
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(SimTime::new(f64::from(t)), 100 + i as u32).unwrap();
        }
        for h in stale {
            prop_assert!(!cal.is_live(h));
            prop_assert!(!cal.cancel(h), "stale handle revoked a live event");
        }
        let mut fired = 0;
        while cal.pop().is_some() {
            fired += 1;
        }
        prop_assert_eq!(fired, times.len());
    }
}
