//! The process-wide interner behind [`Label`](crate::Label) and
//! [`SiteKey`](crate::SiteKey): one append-only table of values, each
//! behind a dense id that never changes.
//!
//! Id `n` lives in block `ilog2(n)` at `n - 2^ilog2(n)`, so block `b`
//! holds `2^b` slots. A block, once made, never moves and a slot, once
//! set, never changes: resolving an id takes no lock, only interning does.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::num::NonZeroU32;
use std::sync::{Mutex, OnceLock, PoisonError};

pub(crate) struct Interner<T: 'static> {
    ids: Mutex<HashMap<T, NonZeroU32>>,
    blocks: [OnceLock<Box<[OnceLock<T>]>>; 32],
}

/// The block and slot of id `n`.
pub(crate) fn place(n: u32) -> (usize, usize) {
    let block = n.ilog2();
    (block as usize, (n - (1 << block)) as usize)
}

impl<T: Copy + Hash + Eq + Send + Sync> Interner<T> {
    pub(crate) fn new() -> Self {
        Interner {
            ids: Mutex::default(),
            blocks: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// The id of the value `q` borrows as, made by `make` and given the
    /// next id on first use.
    pub(crate) fn id<Q>(&self, q: &Q, make: impl FnOnce(&Q) -> T) -> NonZeroU32
    where
        T: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut ids = self.ids.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&id) = ids.get(q) {
            return id;
        }
        let n = u32::try_from(ids.len() + 1)
            .ok()
            .and_then(NonZeroU32::new)
            .expect("fewer than 2^32 distinct values");
        let value = make(q);
        let (block, slot) = place(n.get());
        let slots =
            self.blocks[block].get_or_init(|| (0..1 << block).map(|_| OnceLock::new()).collect());
        assert!(slots[slot].set(value).is_ok(), "an id is handed out once");
        ids.insert(value, n);
        n
    }

    /// The value behind `id`.
    pub(crate) fn get(&self, id: NonZeroU32) -> T {
        let (block, slot) = place(id.get());
        *self.blocks[block]
            .get()
            .and_then(|slots| slots[slot].get())
            .expect("a value is set before its id is handed out")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_blocks_double() {
        let table: Interner<u64> = Interner::new();
        let ids: Vec<u32> = (0..300u64).map(|v| table.id(&v, |&v| v).get()).collect();
        assert_eq!(ids, (1..=300).collect::<Vec<u32>>());
        assert_eq!(table.id(&7, |_| unreachable!()).get(), 8);
        for v in 0..300u64 {
            assert_eq!(table.get(NonZeroU32::new(v as u32 + 1).unwrap()), v);
        }
        assert_eq!(place(1), (0, 0));
        assert_eq!(place(2), (1, 0));
        assert_eq!(place(3), (1, 1));
        assert_eq!(place(u32::MAX), (31, (1 << 31) - 1));
    }
}
