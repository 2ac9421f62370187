//! Generational slot arenas for per-entity state.
//!
//! [`Arena`] keeps values in flat slots: departures push their slot onto
//! a free list, arrivals pop it back, and a generation counter on each
//! slot invalidates stale [`Handle`]s so a recycled slot can never be
//! confused with its former occupant.
//!
//! [`IdArena`] layers an id table on top so call sites keyed by
//! external u64 ids (client ids in the event vocabulary) keep the exact
//! BTreeMap surface — `get`/`get_mut`/`insert`/`remove`/ascending-id
//! iteration. The table holds a handle per id from the oldest live id
//! on, so a lookup is one index. That assumes ids that mostly increase,
//! as `World::next_client` hands them out: each id skipped costs a slot.
//! The shard layer partitions by slot index ([`Handle::index`]) instead
//! of hashing ids, so shard assignment is allocation-stable too.

use std::collections::VecDeque;
use std::ops::Index;

/// A generational reference to one arena slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct Handle {
    /// Slot position in the arena's storage vector.
    pub index: u32,
    /// Generation the slot had when this handle was issued.
    pub gen: u32,
}

struct Slot<T> {
    gen: u32,
    value: Option<T>,
}

/// A flat generational arena: O(1) insert/remove/lookup, slot reuse
/// through a free list.
pub(crate) struct Arena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
}

impl<T> Arena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Inserts a value, reusing a freed slot when one exists.
    pub fn insert(&mut self, value: T) -> Handle {
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            debug_assert!(slot.value.is_none());
            slot.value = Some(value);
            return Handle {
                index,
                gen: slot.gen,
            };
        }
        let index = self.slots.len() as u32;
        self.slots.push(Slot {
            gen: 0,
            value: Some(value),
        });
        Handle { index, gen: 0 }
    }

    /// Removes the value behind `h`, bumping the slot generation so the
    /// handle (and any copy of it) goes stale.
    pub fn remove(&mut self, h: Handle) -> Option<T> {
        let slot = self.slots.get_mut(h.index as usize)?;
        if slot.gen != h.gen || slot.value.is_none() {
            return None;
        }
        let value = slot.value.take();
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(h.index);
        value
    }

    /// Shared access; `None` when the handle is stale.
    pub fn get(&self, h: Handle) -> Option<&T> {
        let slot = self.slots.get(h.index as usize)?;
        if slot.gen != h.gen {
            return None;
        }
        slot.value.as_ref()
    }

    /// Exclusive access; `None` when the handle is stale.
    pub fn get_mut(&mut self, h: Handle) -> Option<&mut T> {
        let slot = self.slots.get_mut(h.index as usize)?;
        if slot.gen != h.gen {
            return None;
        }
        slot.value.as_mut()
    }
}

/// An id-keyed facade over [`Arena`]: an offset table from id to handle
/// gives the BTreeMap surface while the values, each beside its id, live
/// in reusable flat slots.
pub(crate) struct IdArena<T> {
    arena: Arena<(u64, T)>,
    /// `table[i]` backs id `base + i`; the front is live.
    table: VecDeque<Option<Handle>>,
    base: u64,
}

impl<T> IdArena<T> {
    /// An empty map.
    pub fn new() -> Self {
        IdArena {
            arena: Arena::new(),
            table: VecDeque::new(),
            base: 0,
        }
    }

    /// The handle currently backing `id`, if present.
    pub fn handle_of(&self, id: u64) -> Option<Handle> {
        let i = usize::try_from(id.checked_sub(self.base)?).ok()?;
        *self.table.get(i)?
    }

    /// Whether `id` is present.
    pub fn contains_key(&self, id: &u64) -> bool {
        self.handle_of(*id).is_some()
    }

    /// Shared access by id.
    pub fn get(&self, id: &u64) -> Option<&T> {
        self.arena.get(self.handle_of(*id)?).map(|(_, v)| v)
    }

    /// Exclusive access by id.
    pub fn get_mut(&mut self, id: &u64) -> Option<&mut T> {
        self.arena.get_mut(self.handle_of(*id)?).map(|(_, v)| v)
    }

    /// Inserts or replaces the value under `id`, returning the previous
    /// value if any (BTreeMap `insert` contract).
    pub fn insert(&mut self, id: u64, value: T) -> Option<T> {
        self.base = if self.table.is_empty() { id } else { self.base };
        while id < self.base {
            self.table.push_front(None);
            self.base -= 1;
        }
        let i = (id - self.base) as usize;
        if i >= self.table.len() {
            self.table.resize(i + 1, None);
        }
        let old = self.table[i].and_then(|h| self.arena.remove(h));
        self.table[i] = Some(self.arena.insert((id, value)));
        old.map(|(_, v)| v)
    }

    /// Removes and returns the value under `id`; its slot joins the
    /// free list for the next arrival.
    pub fn remove(&mut self, id: &u64) -> Option<T> {
        let h = self.handle_of(*id)?;
        self.table[(*id - self.base) as usize] = None;
        while self.table.front() == Some(&None) {
            self.table.pop_front();
            self.base += 1;
        }
        self.arena.remove(h).map(|(_, v)| v)
    }

    /// Live `(id, value)` slots in ascending-id order.
    fn entries(&self) -> impl Iterator<Item = &(u64, T)> {
        let live = self.table.iter().flatten();
        live.map(|&h| self.arena.get(h).expect("table handle is live"))
    }

    /// Ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &u64> {
        self.entries().map(|(id, _)| id)
    }

    /// Values in ascending-id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.entries().map(|(_, v)| v)
    }

    /// `(id, &mut value)` pairs in ascending-id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&u64, &mut T)> {
        self.entries_mut().map(|(_, (id, v))| (&*id, v))
    }

    /// `(id, Handle, &mut value)` triples in ascending-id order — the
    /// shard layer partitions on `Handle::index`.
    pub fn iter_mut_handles(&mut self) -> impl Iterator<Item = (u64, Handle, &mut T)> {
        self.entries_mut().map(|(h, (id, v))| (*id, h, v))
    }

    /// Live slots in ascending-id order. Each table entry points at a
    /// distinct live slot, so the yielded `&mut`s are disjoint; `take`
    /// enforces that statically.
    fn entries_mut(&mut self) -> impl Iterator<Item = (Handle, &mut (u64, T))> {
        let IdArena { arena, table, .. } = self;
        let mut by_slot: Vec<Option<&mut (u64, T)>> =
            arena.slots.iter_mut().map(|s| s.value.as_mut()).collect();
        let live = table.iter().flatten();
        live.map(move |&h| (h, by_slot[h.index as usize].take().expect("live slot")))
    }
}

impl<T> Index<&u64> for IdArena<T> {
    type Output = T;

    fn index(&self, id: &u64) -> &T {
        self.get(id).expect("no entry found for key")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_reuses_slots_and_stales_handles() {
        let mut a: Arena<u32> = Arena::new();
        let h1 = a.insert(10);
        let h2 = a.insert(20);
        assert_eq!(a.get(h1), Some(&10));
        assert_eq!(a.remove(h1), Some(10));
        assert_eq!(a.get(h1), None, "removed handle is stale");
        assert_eq!(a.remove(h1), None, "double remove is a no-op");
        let h3 = a.insert(30);
        assert_eq!(h3.index, h1.index, "freed slot is reused");
        assert_ne!(h3.gen, h1.gen, "generation bumped on reuse");
        assert_eq!(a.get(h1), None, "old handle cannot see the new value");
        assert_eq!(a.get(h3), Some(&30));
        assert_eq!(a.get(h2), Some(&20));
    }

    #[test]
    fn id_arena_matches_btreemap_semantics() {
        use std::collections::BTreeMap;
        let mut m: BTreeMap<u64, u32> = BTreeMap::new();
        let mut a: IdArena<u32> = IdArena::new();
        // Deterministic mixed op sequence exercising insert, replace,
        // remove and reuse.
        let ops: [(u8, u64, u32); 12] = [
            (0, 5, 50),
            (0, 1, 10),
            (0, 9, 90),
            (0, 5, 55), // replace
            (1, 1, 0),  // remove
            (0, 3, 30),
            (0, 1, 11), // reinsert into freed slot
            (1, 9, 0),
            (0, 7, 70),
            (0, 2, 20),
            (1, 5, 0),
            (0, 5, 56),
        ];
        for (op, id, v) in ops {
            match op {
                0 => assert_eq!(a.insert(id, v), m.insert(id, v)),
                _ => assert_eq!(a.remove(&id), m.remove(&id)),
            }
            assert_eq!(a.keys().count(), m.len());
        }
        assert_eq!(
            a.keys().copied().collect::<Vec<_>>(),
            m.keys().copied().collect::<Vec<_>>()
        );
        assert_eq!(
            a.values().copied().collect::<Vec<_>>(),
            m.values().copied().collect::<Vec<_>>()
        );
        for id in 0..10u64 {
            assert_eq!(a.get(&id), m.get(&id));
            assert_eq!(a.contains_key(&id), m.contains_key(&id));
        }
    }

    #[test]
    fn id_arena_iter_mut_ascending_and_disjoint() {
        let mut a: IdArena<u32> = IdArena::new();
        for id in [4u64, 2, 8, 6] {
            a.insert(id, id as u32 * 10);
        }
        a.remove(&2);
        a.insert(1, 100); // reuses 2's slot: id order != slot order
        let seen: Vec<u64> = a
            .iter_mut()
            .map(|(id, v)| {
                *v += 1;
                *id
            })
            .collect();
        assert_eq!(seen, vec![1, 4, 6, 8], "ascending id order");
        assert_eq!(a.get(&4), Some(&41));
        assert_eq!(a.get(&1), Some(&101));
    }

    #[test]
    fn id_arena_handles_partition_stably() {
        let mut a: IdArena<u32> = IdArena::new();
        for id in 0..6u64 {
            a.insert(id, id as u32);
        }
        let h3 = a.handle_of(3).unwrap();
        a.remove(&3);
        let h9 = a.handle_of(9).unwrap_or_else(|| {
            a.insert(9, 9);
            a.handle_of(9).unwrap()
        });
        assert_eq!(h9.index, h3.index, "arrival reuses the departed slot");
        let triples: Vec<(u64, u32)> = a
            .iter_mut_handles()
            .map(|(id, h, _)| (id, h.index))
            .collect();
        assert_eq!(
            triples,
            vec![(0, 0), (1, 1), (2, 2), (4, 4), (5, 5), (9, 3)],
            "ids ascend; slot indices reflect reuse"
        );
    }

    use proptest::prelude::*;

    proptest! {
        /// Random inserts and removes agree with a `BTreeMap` on reads
        /// and on ascending-id iteration, and an arrival takes the slot
        /// freed last. Ops 0 and 1 insert the next id and remove a live
        /// one, as `World` does, and `world` runs use only those; ops 2
        /// and 3 insert and remove arbitrary ids.
        #[test]
        fn id_arena_matches_btreemap_under_random_ops(
            world in any::<bool>(),
            ops in proptest::collection::vec((0usize..4, 0u64..40), 1..160),
        ) {
            let mut a: IdArena<usize> = IdArena::new();
            // id -> (slot index, value), beside the arena's free list.
            let mut m = std::collections::BTreeMap::<u64, (u32, usize)>::new();
            let (mut free, mut slots, mut next_id) = (Vec::new(), 0, 0);
            for (v, (op, raw)) in ops.into_iter().enumerate() {
                let op = if world { op % 2 } else { op };
                let live = m.keys().nth(raw as usize % m.len().max(1)).copied();
                let id = [next_id, live.unwrap_or(raw), raw, raw][op];
                if op % 2 == 0 {
                    next_id += 1;
                    let slot = m.get(&id).map(|e| e.0).or_else(|| free.pop()).unwrap_or(slots);
                    slots = slots.max(slot + 1);
                    prop_assert_eq!(a.insert(id, v), m.insert(id, (slot, v)).map(|e| e.1));
                } else {
                    let old = m.remove(&id);
                    free.extend(old.map(|e| e.0));
                    prop_assert_eq!(a.remove(&id), old.map(|e| e.1));
                }
                let reads = |id| (a.get(&id), a.contains_key(&id));
                let expect = |id| (m.get(&id).map(|e| &e.1), m.contains_key(&id));
                prop_assert!((0..=next_id.max(40)).all(|id| reads(id) == expect(id)));
                prop_assert!(a.keys().eq(m.keys()) && a.values().eq(m.values().map(|e| &e.1)));
                let walked = a.iter_mut_handles().map(|(id, h, v)| (id, h.index, *v));
                prop_assert!(walked.eq(m.iter().map(|(&id, &(s, v))| (id, s, v))));
            }
        }
    }
}
