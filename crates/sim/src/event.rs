//! Discrete-event queue.
//!
//! The simulator is a classic discrete-event design: a priority queue of
//! `(time, sequence, payload)` entries. The sequence number breaks ties so
//! that events scheduled earlier at the same instant fire first, keeping
//! runs deterministic.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest time pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event queue.
///
/// # Examples
///
/// ```
/// use rlive_sim::{EventQueue, SimTime};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule(SimTime::from_millis(20), "second");
/// q.schedule(SimTime::from_millis(10), "first");
/// assert_eq!(q.pop(), Some((SimTime::from_millis(10), "first")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(20), "second")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Creates an empty queue with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            ..Self::new()
        }
    }

    /// The current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// Events scheduled in the past fire at the current time (they still
    /// pop after already-queued events with earlier timestamps).
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Pops the next pending event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.at;
        Some((entry.at, entry.payload))
    }

    /// Returns the next pending event — timestamp and a borrow of its
    /// payload — without popping it. Used by batch formation: the world
    /// inspects the queue head to decide whether the next event extends
    /// the current shardable batch.
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        self.heap.peek().map(|entry| (entry.at, &entry.payload))
    }

    /// Removes every pending event and returns them **in insertion
    /// (schedule) order**, not pop order, with their scheduled times.
    ///
    /// This is the outbox seam of sharded world execution: a worker
    /// runs actor handlers against a scratch queue, then the merge
    /// thread replays the drained entries through the world queue via
    /// [`EventQueue::schedule`]. Because replay re-assigns sequence
    /// numbers in insertion order, the post-merge queue is byte-for-byte
    /// the queue a sequential run would have built.
    pub fn drain_ordered(&mut self) -> Vec<(SimTime, E)> {
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.sort_by_key(|e| e.seq);
        entries.into_iter().map(|e| (e.at, e.payload)).collect()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
