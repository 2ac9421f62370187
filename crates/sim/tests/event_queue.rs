//! The event queue against a reference binary heap on `(time, schedule
//! order)`, over times from 1 µs to 10 min: far enough to reach every
//! tier of the calendar queue (the open bucket, the ring of 1 024-µs
//! buckets and the far heap), its ring wrap and its jump over an empty
//! ring, which schedules under 1 ms never leave the open bucket for.

use proptest::prelude::*;
use rlive_sim::{EventQueue, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The queue's contract, one heap entry per pending event: pops and
/// peeks in `(time, id)` order, where ids count schedules.
#[derive(Default)]
struct Reference {
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    now: SimTime,
    next_id: u64,
}

impl Reference {
    fn schedule(&mut self, at: SimTime) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.heap.push(Reverse((at.max(self.now), id)));
        id
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let Reverse((at, id)) = self.heap.pop()?;
        self.now = at;
        Some((at, id))
    }

    fn peek(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|&Reverse(head)| head)
    }

    fn drain_ordered(&mut self) -> Vec<(SimTime, u64)> {
        let mut all: Vec<_> = std::mem::take(&mut self.heap)
            .into_iter()
            .map(|Reverse(e)| e)
            .collect();
        all.sort_by_key(|&(_, id)| id);
        all
    }
}

/// A time `span` ahead of (or, with `back`, behind) `now`, `span` picked
/// on a log scale from 1 µs to 10 min by `scale`.
fn time_from(now: SimTime, scale: u8, x: u64, back: bool) -> SimTime {
    const SPANS: [u64; 6] = [1, 1_000, 65_536, 262_144, 2_000_000, 600_000_000];
    let span = x % (SPANS[scale as usize % SPANS.len()] + 1);
    let us = now.as_micros();
    SimTime::from_micros(if back {
        us.saturating_sub(span)
    } else {
        us + span
    })
}

fn pops<E>(q: &mut EventQueue<E>) -> Vec<(SimTime, E)> {
    std::iter::from_fn(|| q.pop()).collect()
}

proptest! {
    /// Random schedule, pop, peek and drain interleavings agree with the
    /// reference at every step, `len` and `now` included.
    #[test]
    fn matches_the_reference_heap(
        ops in prop::collection::vec((0u8..10, 0u8..6, any::<u64>()), 1..400),
    ) {
        let mut q = EventQueue::new();
        let mut r = Reference::default();
        for (op, scale, x) in ops {
            match op {
                0..=3 => {
                    let at = time_from(r.now, scale, x, false);
                    let id = r.schedule(at);
                    q.schedule(at, id);
                }
                4 => {
                    let at = time_from(r.now, scale, x, true);
                    let id = r.schedule(at);
                    q.schedule(at, id);
                }
                5 | 6 => prop_assert_eq!(q.pop(), r.pop()),
                7 => prop_assert_eq!(q.peek().map(|(at, &id)| (at, id)), r.peek()),
                8 => {
                    // Several events at one instant, the head's if any.
                    let at = r.peek().map_or(r.now, |(at, _)| at);
                    for _ in 0..=x % 4 {
                        let id = r.schedule(at);
                        q.schedule(at, id);
                    }
                }
                _ => {
                    if x.is_multiple_of(8) {
                        prop_assert_eq!(q.drain_ordered(), r.drain_ordered());
                    } else {
                        prop_assert_eq!(q.pop(), r.pop());
                    }
                }
            }
            prop_assert_eq!(q.len(), r.heap.len());
            prop_assert_eq!(q.is_empty(), r.heap.is_empty());
            prop_assert_eq!(q.now(), r.now);
        }
        let mut rest = Vec::new();
        while let Some(e) = r.pop() {
            rest.push(e);
        }
        prop_assert_eq!(pops(&mut q), rest);
    }
}

#[test]
fn pops_in_time_order() {
    let mut q = EventQueue::new();
    q.schedule(SimTime::from_millis(30), 3);
    q.schedule(SimTime::from_millis(10), 1);
    q.schedule(SimTime::from_millis(20), 2);
    let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
    assert_eq!(order, vec![1, 2, 3]);
}

#[test]
fn fifo_within_same_instant() {
    let mut q = EventQueue::new();
    let t = SimTime::from_millis(5);
    for i in 0..10 {
        q.schedule(t, i);
    }
    let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
    assert_eq!(order, (0..10).collect::<Vec<_>>());
}

#[test]
fn clock_advances_monotonically() {
    let mut q = EventQueue::new();
    q.schedule(SimTime::from_secs(2), ());
    q.schedule(SimTime::from_secs(1), ());
    assert_eq!(q.now(), SimTime::ZERO);
    q.pop();
    assert_eq!(q.now(), SimTime::from_secs(1));
    q.pop();
    assert_eq!(q.now(), SimTime::from_secs(2));
}

#[test]
fn past_events_clamp_to_now() {
    let mut q = EventQueue::new();
    q.schedule(SimTime::from_secs(5), "a");
    q.pop();
    q.schedule(SimTime::from_secs(1), "late");
    let (t, e) = q.pop().expect("event");
    assert_eq!(t, SimTime::from_secs(5));
    assert_eq!(e, "late");
}

#[test]
fn peek_exposes_payload_without_popping() {
    let mut q = EventQueue::new();
    q.schedule(SimTime::from_millis(2), "b");
    q.schedule(SimTime::from_millis(1), "a");
    assert_eq!(q.peek(), Some((SimTime::from_millis(1), &"a")));
    assert_eq!(q.len(), 2, "peek must not consume");
    assert_eq!(q.pop(), Some((SimTime::from_millis(1), "a")));
    assert_eq!(q.peek(), Some((SimTime::from_millis(2), &"b")));
}

#[test]
fn drain_ordered_returns_insertion_order() {
    let mut q = EventQueue::new();
    // Deliberately schedule out of time order; drain must come back
    // in schedule order, not pop order.
    q.schedule(SimTime::from_millis(30), "late");
    q.schedule(SimTime::from_millis(10), "early");
    q.schedule(SimTime::from_millis(20), "mid");
    let drained = q.drain_ordered();
    assert_eq!(
        drained,
        vec![
            (SimTime::from_millis(30), "late"),
            (SimTime::from_millis(10), "early"),
            (SimTime::from_millis(20), "mid"),
        ]
    );
    assert!(q.is_empty());
    assert_eq!(q.pop(), None);
}

#[test]
fn replaying_a_drain_reproduces_pop_order() {
    // The sharded-merge contract: schedule into a scratch queue,
    // drain, replay into a main queue — pops must match a direct
    // sequential run (same-instant FIFO included).
    let t = SimTime::from_millis(7);
    let mut direct = EventQueue::new();
    let mut scratch = EventQueue::new();
    for i in 0..6 {
        direct.schedule(t, i);
        scratch.schedule(t, i);
    }
    let mut replayed = EventQueue::new();
    for (at, e) in scratch.drain_ordered() {
        replayed.schedule(at, e);
    }
    let a: Vec<i32> = std::iter::from_fn(|| direct.pop().map(|(_, e)| e)).collect();
    let b: Vec<i32> = std::iter::from_fn(|| replayed.pop().map(|(_, e)| e)).collect();
    assert_eq!(a, b);
}

/// One instant reached from all three tiers: scheduled far ahead before
/// the first pop, from the ring once it is near, and into the open
/// bucket; it pops in schedule order all the same.
#[test]
fn equal_times_keep_schedule_order_across_tiers() {
    let t = SimTime::from_millis(400);
    let mut q = EventQueue::new();
    q.schedule(t, 0);
    q.schedule(SimTime::from_millis(1), 100);
    assert_eq!(q.pop(), Some((SimTime::from_millis(1), 100)));
    q.schedule(t, 1); // 399 ms ahead: the far heap
    q.schedule(SimTime::from_millis(300), 101);
    assert_eq!(q.pop(), Some((SimTime::from_millis(300), 101)));
    q.schedule(t, 2); // 100 ms ahead: the ring
    q.schedule(SimTime::from_micros(400_000 - 10), 102);
    assert_eq!(
        q.peek().map(|(at, &e)| (at, e)),
        Some((SimTime::from_micros(399_990), 102))
    );
    q.schedule(t, 3); // the bucket the peek opened
    assert_eq!(q.pop(), Some((SimTime::from_micros(399_990), 102)));
    q.schedule(t, 4);
    assert_eq!(pops(&mut q), (0..5).map(|i| (t, i)).collect::<Vec<_>>());
}

/// A peek opens the head's bucket; a schedule at `now` then still pops
/// before the later head.
#[test]
fn a_schedule_at_now_after_a_peek_pops_first() {
    let mut q = EventQueue::new();
    q.schedule(SimTime::from_millis(1), "a");
    q.schedule(SimTime::from_millis(5), "c");
    assert_eq!(q.pop(), Some((SimTime::from_millis(1), "a")));
    assert_eq!(q.peek(), Some((SimTime::from_millis(5), &"c")));
    q.schedule(q.now(), "b");
    q.schedule(SimTime::ZERO, "b2");
    assert_eq!(q.peek(), Some((SimTime::from_millis(1), &"b")));
    let order: Vec<_> = pops(&mut q).into_iter().map(|(_, e)| e).collect();
    assert_eq!(order, ["b", "b2", "c"]);
}

/// Events walk the clock around the ring several times, each one
/// scheduling the next up to 250 ms ahead, and pop in time order.
#[test]
fn the_ring_wraps() {
    let mut q = EventQueue::new();
    let mut r = Reference::default();
    let mut x = 12_345u64;
    for _ in 0..20_000 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let at = SimTime::from_micros(r.now.as_micros() + (x >> 33) % 250_000);
        let id = r.schedule(at);
        q.schedule(at, id);
        if !x.is_multiple_of(3) {
            assert_eq!(q.pop(), r.pop());
        }
    }
    assert!(
        r.now > SimTime::from_secs(2),
        "the clock went round the ring"
    );
    let rest: Vec<_> = std::iter::from_fn(|| r.pop()).collect();
    assert_eq!(pops(&mut q), rest);
}

/// With the ring empty the queue jumps to the far heap's head, minutes
/// on, and the ring starts again from there.
#[test]
fn an_empty_ring_jumps_to_the_far_head() {
    let mut q = EventQueue::new();
    q.schedule(SimTime::ZERO, 0);
    assert_eq!(q.pop(), Some((SimTime::ZERO, 0)));
    q.schedule(SimTime::from_secs(600), 2);
    q.schedule(SimTime::from_secs(300), 1);
    assert_eq!(q.pop(), Some((SimTime::from_secs(300), 1)));
    q.schedule(
        SimTime::from_secs(300) + rlive_sim::SimDuration::from_millis(5),
        3,
    );
    assert_eq!(
        pops(&mut q),
        vec![
            (SimTime::from_micros(300_005_000), 3),
            (SimTime::from_secs(600), 2)
        ]
    );
    assert!(q.is_empty());
}

/// Everything scheduled before the first pop, near and far, comes back
/// in `(time, schedule order)`, and a drain before any pop returns it in
/// schedule order.
#[test]
fn schedules_before_the_first_pop() {
    let times = [
        5_000_000u64,
        0,
        700,
        700,
        300_000,
        0,
        90_000_000,
        1_024,
        1_023,
    ];
    let mut q = EventQueue::with_capacity(times.len());
    let mut r = Reference::default();
    for &us in &times {
        let id = r.schedule(SimTime::from_micros(us));
        q.schedule(SimTime::from_micros(us), id);
    }
    assert_eq!(q.len(), times.len());
    let mut drained = EventQueue::new();
    for &us in &times {
        drained.schedule(SimTime::from_micros(us), us);
    }
    let order: Vec<u64> = drained
        .drain_ordered()
        .into_iter()
        .map(|(_, us)| us)
        .collect();
    assert_eq!(order, times);
    let expected: Vec<_> = std::iter::from_fn(|| r.pop()).collect();
    assert_eq!(pops(&mut q), expected);
}
