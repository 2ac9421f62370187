//! Discrete-event queue.
//!
//! The simulator is a classic discrete-event design: a priority queue of
//! `(time, sequence, payload)` entries. The sequence number breaks ties so
//! that events scheduled earlier at the same instant fire first, keeping
//! runs deterministic.
//!
//! It is a calendar queue (R. Brown, CACM 1988) in three tiers, as most
//! events land a few milliseconds ahead: the open 1 024-µs bucket, sorted;
//! a ring of the next 255 buckets, unsorted lists in one slot slab; and a
//! binary heap for everything later. Schedules before the first pop all
//! go to the heap, unordered until that pop heapifies them.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event's bucket is `at >> BUCKET_SHIFT`; the ring spans `RING`
/// buckets, the open one included; `NIL` ends a slot list.
const BUCKET_SHIFT: u32 = 10;
const RING: u64 = 256;
const NIL: u32 = u32::MAX;

fn bucket(at: SimTime) -> u64 {
    at.as_micros() >> BUCKET_SHIFT
}

fn ring_index(bucket: u64) -> usize {
    (bucket % RING) as usize
}

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
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A ring event, timed by its offset into its list's bucket; free if `None`.
struct Slot<E> {
    seq: u64,
    payload: Option<E>,
    next: u32,
    offset: u32,
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
    /// Until the first pop (or peek) `opened` is false and this holds
    /// every event, unordered; then, the events of the open bucket `cur`
    /// and earlier, in reverse pop order.
    current: Vec<Entry<E>>,
    cur: u64,
    opened: bool,
    /// Buckets `cur + 1 .. cur + RING`: list heads into `slab`, filed at
    /// [`ring_index`], a free list from `free`, `ring_len` events.
    heads: [u32; RING as usize],
    slab: Vec<Slot<E>>,
    free: u32,
    ring_len: usize,
    /// Events `RING` or more buckets past `cur` when scheduled.
    far: BinaryHeap<Entry<E>>,
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
            current: Vec::new(),
            cur: 0,
            opened: false,
            heads: [NIL; RING as usize],
            slab: Vec::new(),
            free: NIL,
            ring_len: 0,
            far: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Creates an empty queue with room for `capacity` events scheduled
    /// before the first pop.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            current: Vec::with_capacity(capacity),
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
        let b = bucket(at);
        if !self.opened {
            self.current.push(Entry { at, seq, payload });
        } else if b <= self.cur {
            // Latest in schedule order: after every queued event at `at`.
            let i = self.current.partition_point(|e| e.at > at);
            self.current.insert(i, Entry { at, seq, payload });
        } else if b < self.cur + RING {
            let head = &mut self.heads[ring_index(b)];
            let slot = Slot {
                seq,
                payload: Some(payload),
                next: *head,
                offset: (at.as_micros() - (b << BUCKET_SHIFT)) as u32,
            };
            *head = if self.free == NIL {
                self.slab.push(slot);
                (self.slab.len() - 1) as u32
            } else {
                let i = self.free;
                self.free = std::mem::replace(&mut self.slab[i as usize], slot).next;
                i
            };
            self.ring_len += 1;
        } else {
            self.far.push(Entry { at, seq, payload });
        }
    }

    /// Pops the next pending event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.ready()?;
        let entry = self.current.pop()?;
        self.now = entry.at;
        Some((entry.at, entry.payload))
    }

    /// Returns the next pending event — timestamp and a borrow of its
    /// payload — without popping it. Used by batch formation: the world
    /// inspects the queue head to decide whether the next event extends
    /// the current shardable batch. It may open the next bucket.
    pub fn peek(&mut self) -> Option<(SimTime, &E)> {
        self.ready()?;
        self.current.last().map(|entry| (entry.at, &entry.payload))
    }

    /// Makes the last entry of `current` the next event, opening buckets
    /// as needed; `None` when nothing is pending.
    fn ready(&mut self) -> Option<()> {
        if !self.opened {
            self.opened = true;
            self.far = BinaryHeap::from(std::mem::take(&mut self.current));
        }
        (!self.current.is_empty() || self.open_next()).then_some(())
    }

    /// Opens the earliest non-empty bucket after `cur`, the ring's or the
    /// far head's (a jump when the ring is empty), into empty `current`.
    fn open_next(&mut self) -> bool {
        let far = self.far.peek().map(|e| bucket(e.at));
        let ring = (self.ring_len > 0).then(|| {
            (self.cur + 1..)
                .find(|&b| self.heads[ring_index(b)] != NIL)
                .expect("ring events lie within RING buckets")
        });
        let Some(b) = ring.into_iter().chain(far).min() else {
            return false;
        };
        self.cur = b;
        self.take_list(b);
        while self.far.peek().is_some_and(|e| bucket(e.at) == b) {
            self.current.extend(self.far.pop());
        }
        self.current.sort_unstable();
        true
    }

    /// Moves ring bucket `b`'s list onto `current` and frees its slots.
    fn take_list(&mut self, b: u64) {
        let mut i = std::mem::replace(&mut self.heads[ring_index(b)], NIL);
        while i != NIL {
            let slot = &mut self.slab[i as usize];
            self.current.push(Entry {
                at: SimTime::from_micros((b << BUCKET_SHIFT) + slot.offset as u64),
                seq: slot.seq,
                payload: slot.payload.take().expect("a listed slot holds an event"),
            });
            let next = std::mem::replace(&mut slot.next, self.free);
            self.free = i;
            self.ring_len -= 1;
            i = next;
        }
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
        for b in self.cur + 1..self.cur + RING {
            self.take_list(b);
        }
        let mut entries = std::mem::take(&mut self.current);
        entries.append(&mut std::mem::take(&mut self.far).into_vec());
        entries.sort_unstable_by_key(|e| e.seq);
        entries.into_iter().map(|e| (e.at, e.payload)).collect()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.current.len() + self.ring_len + self.far.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
