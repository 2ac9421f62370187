//! Generational slot arenas for per-entity state.
//!
//! The hot per-client state used to live in a `BTreeMap<u64, Client>`:
//! every session arrival allocated a fresh tree node and every lookup
//! chased pointers through the tree. [`Arena`] replaces that with flat
//! slot storage — departures push their slot onto a free list, arrivals
//! pop it back, and a generation counter on each slot invalidates stale
//! [`Handle`]s so a recycled slot can never be confused with its former
//! occupant.
//!
//! [`IdArena`] layers a sorted id index on top so call sites keyed by
//! external u64 ids (client ids in the event vocabulary) keep the exact
//! BTreeMap surface — `get`/`get_mut`/`insert`/`remove`/ascending-id
//! iteration — while the values themselves live in arena slots. The
//! shard layer partitions by slot index ([`Handle::index`]) instead of
//! hashing ids, so shard assignment is allocation-stable too.

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

/// An id-keyed facade over [`Arena`]: a sorted `(id, Handle)` index
/// gives the BTreeMap surface (binary-search lookup, ascending-id
/// iteration) while values live in reusable flat slots.
pub(crate) struct IdArena<T> {
    arena: Arena<T>,
    /// Sorted by id; binary-searched on every keyed access.
    index: Vec<(u64, Handle)>,
}

impl<T> IdArena<T> {
    /// An empty map.
    pub fn new() -> Self {
        IdArena {
            arena: Arena::new(),
            index: Vec::new(),
        }
    }

    fn search(&self, id: u64) -> Result<usize, usize> {
        self.index.binary_search_by_key(&id, |&(k, _)| k)
    }

    /// The handle currently backing `id`, if present.
    pub fn handle_of(&self, id: u64) -> Option<Handle> {
        self.search(id).ok().map(|i| self.index[i].1)
    }

    /// Whether `id` is present.
    pub fn contains_key(&self, id: &u64) -> bool {
        self.search(*id).is_ok()
    }

    /// Shared access by id.
    pub fn get(&self, id: &u64) -> Option<&T> {
        let h = self.handle_of(*id)?;
        self.arena.get(h)
    }

    /// Exclusive access by id.
    pub fn get_mut(&mut self, id: &u64) -> Option<&mut T> {
        let h = self.handle_of(*id)?;
        self.arena.get_mut(h)
    }

    /// Inserts or replaces the value under `id`, returning the previous
    /// value if any (BTreeMap `insert` contract).
    pub fn insert(&mut self, id: u64, value: T) -> Option<T> {
        match self.search(id) {
            Ok(i) => {
                let h = self.index[i].1;
                let old = self.arena.remove(h);
                self.index[i].1 = self.arena.insert(value);
                old
            }
            Err(i) => {
                let h = self.arena.insert(value);
                self.index.insert(i, (id, h));
                None
            }
        }
    }

    /// Removes and returns the value under `id`; its slot joins the
    /// free list for the next arrival.
    pub fn remove(&mut self, id: &u64) -> Option<T> {
        let i = self.search(*id).ok()?;
        let (_, h) = self.index.remove(i);
        self.arena.remove(h)
    }

    /// Ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &u64> {
        self.index.iter().map(|(id, _)| id)
    }

    /// Values in ascending-id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.index
            .iter()
            .map(|&(_, h)| self.arena.get(h).expect("index handle is live"))
    }

    /// `(id, &mut value)` pairs in ascending-id order. Each index entry
    /// points at a distinct live slot, so the yielded `&mut`s are
    /// disjoint; `take` enforces that statically.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&u64, &mut T)> {
        let IdArena { arena, index } = self;
        let mut by_slot: Vec<Option<&mut T>> =
            arena.slots.iter_mut().map(|s| s.value.as_mut()).collect();
        index.iter().map(move |(id, h)| {
            let v = by_slot[h.index as usize].take().expect("live slot");
            (id, v)
        })
    }

    /// `(id, Handle, &mut value)` triples in ascending-id order — the
    /// shard layer partitions on `Handle::index`.
    pub fn iter_mut_handles(&mut self) -> impl Iterator<Item = (u64, Handle, &mut T)> {
        let IdArena { arena, index } = self;
        let mut by_slot: Vec<Option<&mut T>> =
            arena.slots.iter_mut().map(|s| s.value.as_mut()).collect();
        index.iter().map(move |&(id, h)| {
            let v = by_slot[h.index as usize].take().expect("live slot");
            (id, h, v)
        })
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
}
