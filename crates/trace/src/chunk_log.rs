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
//! The tail grows geometrically and only [`ChunkLog::seal`] cuts it, so a
//! log no checkpoint was taken of is one plain `Vec`, and
//! [`ChunkLog::into_vec`] hands that `Vec` over without copying it.

use std::fmt;
use std::ops::Index;
use std::sync::Arc;

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

    /// An empty log whose tail grows into `buffer`'s allocation, so a log
    /// that replaces another ([`ChunkLog::into_buffer`]) records into memory
    /// the process already holds.
    pub fn with_buffer(mut buffer: Vec<T>) -> Self {
        buffer.clear();
        ChunkLog {
            sealed: None,
            sealed_len: 0,
            tail: buffer,
        }
    }

    /// The open tail's allocation, emptied. Sealed chunks are let go: a
    /// copy that shares them keeps them.
    pub fn into_buffer(self) -> Vec<T> {
        let mut tail = self.tail;
        tail.clear();
        tail
    }

    /// Entries oldest first.
    pub fn iter(&self) -> Iter<'_, T> {
        let chunk: fn(&Chunk<T>) -> &[T] = |(_, c)| c.as_slice();
        self.chunks().iter().flat_map(chunk).chain(self.tail.iter())
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
    /// never sealed a chunk gives up its tail without copying it; otherwise
    /// the first chunk, when no copy of the log shares it, becomes the
    /// result, and only the entries behind it are moved into it.
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
        let total = sealed_len + tail.len();
        let mut out = Vec::new();
        let sealed = Arc::try_unwrap(sealed).unwrap_or_else(|shared| Vec::clone(&shared));
        for (_, chunk) in sealed {
            match Arc::try_unwrap(chunk) {
                Ok(owned) if out.is_empty() => out = owned,
                chunk => {
                    out.reserve_exact(total - out.len());
                    match chunk {
                        Ok(mut owned) => out.append(&mut owned),
                        Err(shared) => out.extend_from_slice(&shared),
                    }
                }
            }
        }
        out.reserve_exact(total - out.len());
        out.append(&mut tail);
        out.shrink_to_fit();
        out
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

    /// Longer than any slack a tail of a few entries has.
    const N: usize = 300;

    fn log_of(n: usize) -> ChunkLog<usize> {
        (0..n).collect()
    }

    #[test]
    fn push_iterate_and_index_across_chunks() {
        let mut log = ChunkLog::new();
        for i in 0..3 * N + 7 {
            if i % N == 0 {
                log.seal();
            }
            log.push(i);
        }
        assert_eq!(log.len(), 3 * N + 7);
        assert!(log.iter().copied().eq(0..3 * N + 7));
        assert!(log.iter().rev().copied().eq((0..3 * N + 7).rev()));
        for i in [0, N - 1, N, 2 * N + 3, 3 * N + 6] {
            assert_eq!(log[i], i);
        }
        assert_eq!(log.get(3 * N + 7), None);
        assert_eq!(log.iter().next_back(), Some(&(3 * N + 6)));
    }

    #[test]
    fn a_short_log_is_one_tail_with_geometric_slack() {
        let log = log_of(51);
        assert!(log.sealed.is_none());
        assert!(log.tail.capacity() < 2 * 51);
        let long = log_of(10 * N);
        assert!(long.sealed.is_none(), "only a seal cuts a chunk");
        assert_eq!(long.tail.len(), 10 * N);
    }

    #[test]
    fn a_clone_of_a_sealed_log_shares_every_entry_and_diverges_on_append() {
        let mut log = log_of(N + 10);
        log.seal();
        let copy = log.clone();
        assert!(copy.tail.is_empty());
        assert!(Arc::ptr_eq(
            log.sealed.as_ref().unwrap(),
            copy.sealed.as_ref().unwrap()
        ));
        log.push(usize::MAX);
        assert_eq!(copy.len(), N + 10);
        assert_eq!(copy, log_of(N + 10));
        assert_eq!(log[N + 10], usize::MAX);
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
    fn lookups_find_every_entry_across_uneven_chunks() {
        // Chunks of 7, 3, 10, N and 1 entries, then a tail of 1.
        let mut log = ChunkLog::new();
        let mut next = 0;
        for len in [7, 3, 10, N, 1] {
            for i in next..next + len {
                log.push(i);
            }
            log.seal();
            next += len;
        }
        log.push(next);
        assert_eq!(log.len(), next + 1);
        for i in 0..log.len() {
            assert_eq!(log.get(i), Some(&i), "entry {i}");
        }
        assert_eq!(log.get(log.len()), None);
        let lens: Vec<usize> = log.chunks().iter().map(|(_, c)| c.len()).collect();
        assert_eq!(lens, [7, 3, 10, N, 1]);
    }

    #[test]
    fn into_vec_trims_an_unsealed_tail_and_concatenates_chunks() {
        let v = log_of(21).into_vec();
        assert_eq!(v, (0..21).collect::<Vec<_>>());
        assert_eq!(v.capacity(), 21);

        let mut log = log_of(N);
        log.seal();
        for i in N..2 * N {
            log.push(i);
        }
        log.seal();
        log.push(2 * N);
        let v = log.into_vec();
        assert_eq!(v, (0..=2 * N).collect::<Vec<_>>());
        assert_eq!(v.capacity(), 2 * N + 1);

        let mut shared = log_of(2 * N + 1);
        shared.seal();
        let keep = shared.clone();
        assert_eq!(shared.into_vec(), (0..2 * N + 1).collect::<Vec<_>>());
        assert_eq!(keep, log_of(2 * N + 1), "the copy is untouched");
        assert_eq!(keep.into_vec(), (0..2 * N + 1).collect::<Vec<_>>());
    }

    #[test]
    fn equality_ignores_chunking() {
        let mut a = log_of(N + 3);
        let b = log_of(N + 3);
        a.seal();
        assert_eq!(a, b);
        assert_eq!(format!("{:?}", log_of(3)), "[0, 1, 2]");
    }
}
