//! An append-only log whose copies share their history.
//!
//! A debugger stop saves the whole state of a run, and most of that state
//! is history: the trace records collected so far and the decision log.
//! [`ChunkLog`] keeps such a history as sealed chunks behind `Arc`s, their
//! list behind one more `Arc`, plus one open tail. Cloning a log whose tail
//! is empty copies one pointer, never an entry, and every later append goes
//! to the copy that made it. [`ChunkLog::seal`] empties the tail by moving
//! it into a chunk (no entry is copied; the list of chunk pointers is
//! copied if a clone shares it), so a checkpoint of a run costs a pointer
//! per log, and restoring one another, whatever the run's length.
//!
//! The tail grows geometrically up to a fixed chunk size and is sealed
//! when full, so a short log (one rank's 50 records) is one plain `Vec`
//! and allocates nothing beyond it.

use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// Entries a tail holds before it is sealed.
const CHUNK: usize = 256;

/// A sealed chunk and the number of entries up to and including it, so a
/// lookup by index is a binary search over the chunk list.
type Chunk<T> = (usize, Arc<Vec<T>>);

/// An append-only sequence of sealed, shared chunks and one open tail.
pub struct ChunkLog<T> {
    /// Sealed chunks in order, each with its cumulative end (`None` until
    /// the first seal); each chunk, and the list itself, is shared with
    /// every copy of the log taken since.
    sealed: Option<Arc<Vec<Chunk<T>>>>,
    /// Entries in `sealed`.
    sealed_len: usize,
    /// Entries appended since the last seal.
    tail: Vec<T>,
}

/// Iterator over a [`ChunkLog`]'s entries, oldest first.
pub type Iter<'a, T> = std::iter::Chain<
    std::iter::FlatMap<std::slice::Iter<'a, Chunk<T>>, &'a [T], fn(&'a Chunk<T>) -> &'a [T]>,
    std::slice::Iter<'a, T>,
>;

impl<T> ChunkLog<T> {
    pub const fn new() -> Self {
        ChunkLog {
            sealed: None,
            sealed_len: 0,
            tail: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.sealed_len + self.tail.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn chunks(&self) -> &[Chunk<T>] {
        self.sealed.as_deref().map_or(&[], Vec::as_slice)
    }

    /// Append one entry.
    #[inline]
    pub fn push(&mut self, entry: T) {
        if self.tail.len() == CHUNK {
            // A log that filled a chunk will fill the next: allocate it
            // whole instead of growing it again.
            self.seal();
            self.tail.reserve_exact(CHUNK);
        }
        self.tail.push(entry);
    }

    /// Move the open tail into a sealed chunk, so clones of the log share
    /// every entry it holds. A no-op on an empty tail.
    pub fn seal(&mut self) {
        if !self.tail.is_empty() {
            let chunk = Arc::new(std::mem::take(&mut self.tail));
            self.sealed_len += chunk.len();
            let end = self.sealed_len;
            Arc::make_mut(self.sealed.get_or_insert_with(Default::default)).push((end, chunk));
        }
    }

    /// Append every entry of `other`, in order. Its sealed chunks are
    /// adopted, not copied; only its tail's entries are moved one by one.
    pub fn append(&mut self, other: ChunkLog<T>) {
        let ChunkLog {
            sealed,
            sealed_len,
            tail,
        } = other;
        if let Some(sealed) = sealed {
            self.seal();
            let base = self.sealed_len;
            let mine = Arc::make_mut(self.sealed.get_or_insert_with(Default::default));
            let theirs = Arc::try_unwrap(sealed).unwrap_or_else(|shared| Vec::clone(&shared));
            mine.extend(theirs.into_iter().map(|(end, chunk)| (base + end, chunk)));
            self.sealed_len += sealed_len;
        }
        if self.tail.is_empty() {
            self.tail = tail;
            return;
        }
        let mut tail = tail;
        if self.tail.len() + tail.len() <= CHUNK {
            self.tail.append(&mut tail);
            return;
        }
        let mut rest = tail.into_iter();
        while rest.len() > 0 {
            if self.tail.len() == CHUNK {
                self.seal();
            }
            let room = CHUNK - self.tail.len();
            self.tail.extend(rest.by_ref().take(room));
        }
    }

    /// Entries oldest first.
    pub fn iter(&self) -> Iter<'_, T> {
        let chunk: fn(&Chunk<T>) -> &[T] = |(_, c)| c.as_slice();
        self.chunks().iter().flat_map(chunk).chain(self.tail.iter())
    }

    /// The entries as the slices they are stored in, oldest first: each
    /// sealed chunk, then the tail. Empty slices are left out.
    pub fn slices(&self) -> impl Iterator<Item = &[T]> {
        let chunks = self.chunks().iter().map(|(_, c)| c.as_slice());
        chunks
            .chain(std::iter::once(self.tail.as_slice()))
            .filter(|s| !s.is_empty())
    }

    /// The entry at `index`: a binary search over the chunks' ends.
    pub fn get(&self, index: usize) -> Option<&T> {
        if index >= self.sealed_len {
            return self.tail.get(index - self.sealed_len);
        }
        let chunks = self.chunks();
        let (end, chunk) = &chunks[chunks.partition_point(|(end, _)| *end <= index)];
        chunk.get(index + chunk.len() - end)
    }
}

impl<T: Clone> ChunkLog<T> {
    /// The entries as one `Vec`, exactly as long as the log. A log that
    /// never sealed a chunk gives up its tail without copying it; a chunk
    /// no copy of the log shares is moved out, not cloned.
    pub fn into_vec(self) -> Vec<T> {
        let ChunkLog {
            sealed,
            sealed_len,
            mut tail,
        } = self;
        let Some(sealed) = sealed else {
            tail.shrink_to_fit();
            return tail;
        };
        let mut out = Vec::with_capacity(sealed_len + tail.len());
        let sealed = Arc::try_unwrap(sealed).unwrap_or_else(|shared| Vec::clone(&shared));
        for (_, chunk) in sealed {
            match Arc::try_unwrap(chunk) {
                Ok(mut owned) => out.append(&mut owned),
                Err(shared) => out.extend_from_slice(&shared),
            }
        }
        out.append(&mut tail);
        out
    }

    /// The entries as the vectors they are stored in, oldest first, for a
    /// caller that takes them apart itself: a chunk no copy of the log
    /// shares is moved out, a shared one cloned. Empty vectors are left out.
    pub fn into_parts(self) -> Vec<Vec<T>> {
        let ChunkLog { sealed, tail, .. } = self;
        let sealed = sealed.map_or_else(Vec::new, |sealed| {
            Arc::try_unwrap(sealed).unwrap_or_else(|shared| Vec::clone(&shared))
        });
        let mut parts: Vec<Vec<T>> = sealed
            .into_iter()
            .map(|(_, chunk)| Arc::try_unwrap(chunk).unwrap_or_else(|shared| Vec::clone(&shared)))
            .collect();
        parts.push(tail);
        parts.retain(|part| !part.is_empty());
        parts
    }
}

impl<T> Default for ChunkLog<T> {
    fn default() -> Self {
        ChunkLog::new()
    }
}

/// Shares every sealed chunk and copies the tail.
impl<T: Clone> Clone for ChunkLog<T> {
    fn clone(&self) -> Self {
        ChunkLog {
            sealed: self.sealed.clone(),
            sealed_len: self.sealed_len,
            tail: self.tail.clone(),
        }
    }
}

impl<T> FromIterator<T> for ChunkLog<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut log = ChunkLog::new();
        for entry in iter {
            log.push(entry);
        }
        log
    }
}

impl<'a, T> IntoIterator for &'a ChunkLog<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

impl<T> Index<usize> for ChunkLog<T> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        match self.get(index) {
            Some(entry) => entry,
            None => panic!("index {index} out of a log of {}", self.len()),
        }
    }
}

/// Equal when the entries are, however the two logs are chunked.
impl<T: PartialEq> PartialEq for ChunkLog<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<T: Eq> Eq for ChunkLog<T> {}

impl<T: fmt::Debug> fmt::Debug for ChunkLog<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(n: usize) -> ChunkLog<usize> {
        (0..n).collect()
    }

    #[test]
    fn push_iterate_and_index_across_chunks() {
        let log = log_of(3 * CHUNK + 7);
        assert_eq!(log.len(), 3 * CHUNK + 7);
        assert!(log.iter().copied().eq(0..3 * CHUNK + 7));
        assert!(log.iter().rev().copied().eq((0..3 * CHUNK + 7).rev()));
        for i in [0, CHUNK - 1, CHUNK, 2 * CHUNK + 3, 3 * CHUNK + 6] {
            assert_eq!(log[i], i);
        }
        assert_eq!(log.get(3 * CHUNK + 7), None);
        assert_eq!(log.iter().next_back(), Some(&(3 * CHUNK + 6)));
    }

    #[test]
    fn a_short_log_is_one_tail_with_geometric_slack() {
        let log = log_of(51);
        assert!(log.sealed.is_none());
        assert!(log.tail.capacity() < 2 * 51);
        let full = log_of(CHUNK);
        assert_eq!(full.tail.capacity(), CHUNK, "a full tail has no slack");
    }

    #[test]
    fn a_clone_of_a_sealed_log_shares_every_entry_and_diverges_on_append() {
        let mut log = log_of(CHUNK + 10);
        log.seal();
        let copy = log.clone();
        assert!(copy.tail.is_empty());
        assert!(Arc::ptr_eq(
            log.sealed.as_ref().unwrap(),
            copy.sealed.as_ref().unwrap()
        ));
        log.push(usize::MAX);
        assert_eq!(copy.len(), CHUNK + 10);
        assert_eq!(copy, log_of(CHUNK + 10));
        assert_eq!(log[CHUNK + 10], usize::MAX);
    }

    #[test]
    fn sealing_moves_the_tail_without_copying_it() {
        let mut log = log_of(10);
        let at = log.tail.as_ptr();
        log.seal();
        assert_eq!(log.chunks()[0].1.as_ptr(), at);
        log.seal();
        assert_eq!(log.chunks().len(), 1, "an empty tail seals nothing");
    }

    #[test]
    fn append_adopts_sealed_chunks_and_keeps_order() {
        let mut a = log_of(5);
        let mut b: ChunkLog<usize> = (5..5 + 2 * CHUNK + 3).collect();
        b.seal();
        let adopted = Arc::clone(&b.chunks()[0].1);
        a.append(b);
        assert!(a.iter().copied().eq(0..5 + 2 * CHUNK + 3));
        assert!(a.chunks().iter().any(|(_, c)| Arc::ptr_eq(c, &adopted)));
        // A tail-only log is moved over, then extended past a chunk.
        let mut c = ChunkLog::new();
        c.append(log_of(3));
        c.append((3..CHUNK + 40).collect());
        assert!(c.iter().copied().eq(0..CHUNK + 40));
        assert!(c.tail.len() <= CHUNK);
    }

    #[test]
    fn lookups_find_every_entry_across_partial_adopted_chunks() {
        // Chunks of 3, 10, CHUNK and 1 entries (each sealed early, as a
        // rank's flush seals its buffer), adopted behind a tail of 7.
        let mut log: ChunkLog<usize> = (0..7).collect();
        let mut next = 7;
        for len in [3, 10, CHUNK, 1] {
            let mut part: ChunkLog<usize> = (next..next + len).collect();
            part.seal();
            log.append(part);
            next += len;
        }
        log.push(next);
        assert_eq!(log.len(), next + 1);
        for i in 0..log.len() {
            assert_eq!(log.get(i), Some(&i), "entry {i}");
        }
        assert_eq!(log.get(log.len()), None);
        let lens: Vec<usize> = log.slices().map(<[usize]>::len).collect();
        assert_eq!(lens, [7, 3, 10, CHUNK, 1, 1]);
        let parts = log.clone().into_parts();
        assert!(parts.concat().into_iter().eq(0..next + 1));
    }

    #[test]
    fn into_vec_trims_an_unsealed_tail_and_concatenates_chunks() {
        let v = log_of(20).into_vec();
        assert_eq!(v, (0..20).collect::<Vec<_>>());
        assert_eq!(v.capacity(), 20);
        let mut shared = log_of(2 * CHUNK + 1);
        shared.seal();
        let keep = shared.clone();
        assert_eq!(shared.into_vec(), (0..2 * CHUNK + 1).collect::<Vec<_>>());
        assert_eq!(keep.into_vec(), (0..2 * CHUNK + 1).collect::<Vec<_>>());
    }

    #[test]
    fn equality_ignores_chunking() {
        let mut a = log_of(CHUNK + 3);
        let b = log_of(CHUNK + 3);
        a.seal();
        assert_eq!(a, b);
        assert_eq!(format!("{:?}", log_of(3)), "[0, 1, 2]");
    }
}
