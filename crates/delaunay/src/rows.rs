//! Copy-on-write tables in `Arc`-shared chunks.
//!
//! A published Voronoi index is copied on write: the next generation
//! shares with its predecessor, by pointer, every chunk of [`CHUNK`]
//! consecutive entries that its batch did not write, so a publish costs
//! what the batch changes rather than the size of the dataset. Sites are
//! laid out along the Hilbert curve and a batch's edits are local, so a
//! batch writes few chunks; a retired generation frees only the chunks
//! nobody else holds. Two tables carry that rule:
//!
//! * [`CowChunks`] — one fixed-size entry per index: the triangulation's
//!   triangle slots and the Voronoi index's cell boxes. A write copies the
//!   chunk it lands on (`Arc::make_mut`); a build borrows every chunk
//!   `&mut` once and pays no copy-on-write check.
//! * [`Rows`] — one variable-length row per site: the Delaunay neighbour
//!   lists. The next generation ([`Rows::patched`]) rebuilds the chunks
//!   holding a row that changed.

use std::ops::Index;
use std::sync::Arc;

/// Entries per chunk, in both tables. Measured with the benchmark's
/// 200-op batches (100 uniform inserts, 100 random deletes) on 100k /
/// 200k clustered points, sites kept in their slots:
///
/// * neighbour lists: one batch writes 23–24 % / 14–15 % of 64-site
///   chunks, against 16 % / 10 % for 32, 35 % / 22 % for 128 and
///   89 % / 69 % for 1 024 — 64 shares most while keeping the per-chunk
///   header (65 offsets) under 5 % of a chunk of lists;
/// * triangle slots (1.75 KiB of 28-byte slots per chunk): one batch
///   writes 20 % / 11 % of 64-slot chunks, against 13 % / 7 % for 32,
///   31 % / 17 % for 128, 45 % / 26 % for 256 and 81 % / 55 % for 1 024.
///   At 200k points that is 1.1 MiB copied per batch for 64, against
///   2.7 MiB for 256 and 0.7 MiB for 32, which doubles the chunk table
///   that every clone and every drop walks. At 1M points a batch writes
///   2.3 % of the 64-slot chunks.
pub const CHUNK: usize = 64;

/// Chunks `a` shares with `b`: the same allocation at the same position,
/// not equal contents.
fn shared<C>(a: &[Arc<C>], b: &[Arc<C>]) -> usize {
    a.iter().zip(b).filter(|(a, b)| Arc::ptr_eq(a, b)).count()
}

/// Entries `0..len` of a fixed size: entry `i` is slot `i % CHUNK` of
/// chunk `i / CHUNK`, each chunk behind an `Arc`. A clone copies one
/// pointer per chunk; a write copies the chunk it lands on first when
/// another table still holds it (`Arc::make_mut`), so an edited clone
/// shares every chunk it did not write. Slots past `len` in the last
/// chunk hold whatever filled it and are never read.
#[derive(Clone, Debug)]
pub struct CowChunks<T> {
    chunks: Vec<Arc<[T; CHUNK]>>,
    len: usize,
}

/// Writes to a chunk table: a [`CowChunks`] copies on write, the borrow
/// a build writes through writes its chunks in place. One algorithm runs
/// on either.
pub trait Arena<T>: Index<u32, Output = T> {
    /// Entry `i` for writing.
    fn get_mut(&mut self, i: u32) -> &mut T;
    /// Appends `value` and returns its index.
    fn push(&mut self, value: T) -> u32;
}

impl<T: Copy> CowChunks<T> {
    /// `len` copies of `fill`, to be rewritten by a [`CowChunks::build`].
    pub(crate) fn filled(len: usize, fill: T) -> CowChunks<T> {
        let chunks = (0..len.div_ceil(CHUNK))
            .map(|_| Arc::new([fill; CHUNK]))
            .collect();
        CowChunks { chunks, len }
    }

    /// Borrows every chunk for a build that rewrites the table from entry
    /// 0: each chunk is taken `&mut` once, through `Arc::make_mut` — which
    /// copies nothing on a table [`CowChunks::filled`] made — so the
    /// build's writes pay no copy-on-write check. The build may push up to
    /// [`CowChunks::len`] entries; [`CowChunks::truncate`] the table to
    /// its [`BuildChunks::len`] afterwards.
    pub(crate) fn build(&mut self) -> BuildChunks<'_, T> {
        BuildChunks {
            chunks: self.chunks.iter_mut().map(Arc::make_mut).collect(),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the table has no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Keeps the first `len` entries (all of them when there are fewer)
    /// and frees the chunks past them.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
        self.chunks.truncate(self.len.div_ceil(CHUNK));
    }

    /// The entries in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.chunks.iter().flat_map(|c| c.iter()).take(self.len)
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Chunks `self` shares with `other` — the same allocation at the same
    /// position, not equal contents: for an edited clone and its
    /// original, the chunks the edits did not write.
    pub fn shared_chunks(&self, other: &CowChunks<T>) -> usize {
        shared(&self.chunks, &other.chunks)
    }
}

impl<T> Index<u32> for CowChunks<T> {
    type Output = T;

    #[inline]
    // ssq-analyze: deny-alloc
    fn index(&self, i: u32) -> &T {
        &self.chunks[i as usize / CHUNK][i as usize % CHUNK]
    }
}

impl<T: Copy> Arena<T> for CowChunks<T> {
    #[inline]
    fn get_mut(&mut self, i: u32) -> &mut T {
        &mut Arc::make_mut(&mut self.chunks[i as usize / CHUNK])[i as usize % CHUNK]
    }

    /// Opens a new chunk at a multiple of [`CHUNK`]; otherwise writes into
    /// the last one, copying it if it is shared.
    fn push(&mut self, value: T) -> u32 {
        let i = self.len as u32;
        self.len += 1;
        if (i as usize).is_multiple_of(CHUNK) {
            self.chunks.push(Arc::new([value; CHUNK]));
        } else {
            *self.get_mut(i) = value;
        }
        i
    }
}

impl<T: Copy> FromIterator<T> for CowChunks<T> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> CowChunks<T> {
        let mut table = CowChunks {
            chunks: Vec::new(),
            len: 0,
        };
        for value in items {
            table.push(value);
        }
        table
    }
}

/// A build in progress over a [`CowChunks`] ([`CowChunks::build`]): every
/// chunk borrowed `&mut` once, so the writes of a build's inner loop pay
/// no copy-on-write check and no second copy of the table is ever made.
pub(crate) struct BuildChunks<'a, T> {
    chunks: Vec<&'a mut [T; CHUNK]>,
    len: usize,
}

impl<T> BuildChunks<'_, T> {
    /// Entries pushed so far.
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

impl<T> Index<u32> for BuildChunks<'_, T> {
    type Output = T;

    #[inline]
    fn index(&self, i: u32) -> &T {
        &self.chunks[i as usize / CHUNK][i as usize % CHUNK]
    }
}

impl<T: Copy> Arena<T> for BuildChunks<'_, T> {
    #[inline]
    fn get_mut(&mut self, i: u32) -> &mut T {
        &mut self.chunks[i as usize / CHUNK][i as usize % CHUNK]
    }

    fn push(&mut self, value: T) -> u32 {
        let i = self.len as u32;
        self.len += 1;
        *self.get_mut(i) = value;
        i
    }
}

/// [`CHUNK`] rows stored back to back.
struct Chunk<T> {
    /// Row `i` is `data[offsets[i]..offsets[i + 1]]`; rows past the end
    /// of a partial last chunk are empty.
    offsets: [u32; CHUNK + 1],
    data: Box<[T]>,
}

/// One variable-length row per site `0..len`, in `Arc`-shared chunks of
/// [`CHUNK`] sites.
pub struct Rows<T> {
    chunks: Vec<Arc<Chunk<T>>>,
    len: usize,
}

impl<T: Copy> Rows<T> {
    /// Rows for sites `0..len`: `row(s, out)` appends site `s`'s items to
    /// `out` (and nothing else), called for every site in ascending order.
    pub fn new(len: usize, mut row: impl FnMut(u32, &mut Vec<T>)) -> Rows<T> {
        let mut buf = Vec::new();
        let chunks = (0..len.div_ceil(CHUNK))
            .map(|c| build_chunk(c * CHUNK, len, &mut buf, &mut row))
            .collect();
        Rows { chunks, len }
    }

    /// The next generation over `len >= self.len()` sites: each site in
    /// `dirty` (strictly ascending) gets a fresh row from `row`, called in
    /// ascending order as in [`Rows::new`]; every other site keeps its row
    /// (a site past `self.len()` not in `dirty` gets an empty one). A
    /// chunk with no dirty site and no new site is shared, not copied.
    pub fn patched(
        &self,
        len: usize,
        dirty: &[u32],
        mut row: impl FnMut(u32, &mut Vec<T>),
    ) -> Rows<T> {
        debug_assert!(len >= self.len);
        debug_assert!(dirty.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(dirty.last().is_none_or(|&s| (s as usize) < len));
        let mut buf = Vec::new();
        let mut rest = dirty;
        let chunks = (0..len.div_ceil(CHUNK))
            .map(|c| {
                let (lo, hi) = (c * CHUNK, ((c + 1) * CHUNK).min(len));
                let (here, after) = rest.split_at(rest.partition_point(|&s| (s as usize) < hi));
                rest = after;
                match self.chunks.get(c) {
                    Some(old) if here.is_empty() && hi <= self.len => Arc::clone(old),
                    _ => {
                        let mut here = here.iter().peekable();
                        build_chunk(lo, len, &mut buf, |s, out| {
                            if here.next_if(|&&d| d == s).is_some() {
                                row(s, out);
                            } else if (s as usize) < self.len {
                                out.extend_from_slice(self.row(s));
                            }
                        })
                    }
                }
            })
            .collect();
        Rows { chunks, len }
    }

    /// Site `s`'s row.
    #[inline]
    // ssq-analyze: deny-alloc
    pub fn row(&self, s: u32) -> &[T] {
        let (c, i) = (s as usize / CHUNK, s as usize % CHUNK);
        let chunk = &self.chunks[c];
        &chunk.data[chunk.offsets[i] as usize..chunk.offsets[i + 1] as usize]
    }

    /// Total items over all rows.
    pub fn item_count(&self) -> usize {
        self.chunks.iter().map(|c| c.data.len()).sum()
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Chunks `self` shares with `other` — the same allocation at the same
    /// position, not equal contents.
    pub fn shared_chunks(&self, other: &Rows<T>) -> usize {
        shared(&self.chunks, &other.chunks)
    }
}

/// The chunk of sites `lo..min(lo + CHUNK, len)`, its rows appended by
/// `row` through the reusable buffer `buf`.
fn build_chunk<T: Copy>(
    lo: usize,
    len: usize,
    buf: &mut Vec<T>,
    mut row: impl FnMut(u32, &mut Vec<T>),
) -> Arc<Chunk<T>> {
    buf.clear();
    let mut offsets = [0u32; CHUNK + 1];
    for (i, s) in (lo..(lo + CHUNK).min(len)).enumerate() {
        row(s as u32, buf);
        offsets[i + 1] = buf.len() as u32;
    }
    let end = (len - lo).min(CHUNK);
    let last = offsets[end];
    offsets[end..].fill(last);
    Arc::new(Chunk {
        offsets,
        data: buf.as_slice().into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Row `s` of generation `g`: `s % 5` copies of `s * 10 + g`.
    fn row_of(s: u32, g: u32, out: &mut Vec<u32>) {
        out.extend(std::iter::repeat_n(s * 10 + g, s as usize % 5));
    }

    #[test]
    fn rows_read_back_what_was_written() {
        for len in [0, 1, 63, 64, 65, 200] {
            let rows = Rows::new(len, |s, out| row_of(s, 0, out));
            assert_eq!(rows.chunk_count(), len.div_ceil(CHUNK));
            let mut want = Vec::new();
            for s in 0..len as u32 {
                want.clear();
                row_of(s, 0, &mut want);
                assert_eq!(rows.row(s), want.as_slice(), "len {len} row {s}");
            }
        }
    }

    #[test]
    fn patching_copies_only_the_chunks_it_writes() {
        let old = Rows::new(200, |s, out| row_of(s, 0, out));
        // Dirty rows in chunks 0 and 2, two rows appended to chunk 3.
        let dirty = [3u32, 140, 141, 200, 201];
        let new = old.patched(202, &dirty, |s, out| row_of(s, 1, out));
        assert_eq!(new.chunk_count(), 4);
        assert_eq!(new.shared_chunks(&old), 1, "only chunk 1 is clean");
        let mut want = Vec::new();
        for s in 0..202u32 {
            want.clear();
            row_of(s, u32::from(dirty.contains(&s)), &mut want);
            assert_eq!(new.row(s), want.as_slice(), "row {s}");
        }
        // An empty patch shares everything.
        let same = new.patched(202, &[], |_, _| unreachable!());
        assert_eq!(same.shared_chunks(&new), new.chunk_count());
        assert_eq!(same.item_count(), new.item_count());
    }

    /// Every chunk of `table`, slots past its length included.
    fn raw(table: &CowChunks<u32>) -> Vec<[u32; CHUNK]> {
        table.chunks.iter().map(|c| **c).collect()
    }

    #[test]
    fn a_clone_shares_every_chunk() {
        let table: CowChunks<u32> = (0..200).collect();
        assert_eq!((table.len(), table.chunk_count()), (200, 4));
        let copy = table.clone();
        assert_eq!(copy.shared_chunks(&table), 4);
        assert!(copy.iter().eq(table.iter()));
    }

    #[test]
    fn a_write_copies_only_the_chunk_it_lands_in() {
        let table: CowChunks<u32> = (0..200).collect();
        let before = raw(&table);
        let mut copy = table.clone();
        *copy.get_mut(70) = 9999;
        assert_eq!(copy.shared_chunks(&table), 3);
        assert!(!Arc::ptr_eq(&copy.chunks[1], &table.chunks[1]));
        assert_eq!(raw(&table), before, "the original changed");
        assert!((0..200u32).all(|i| copy[i] == if i == 70 { 9999 } else { i }));
        // A second write to the same chunk copies nothing more.
        *copy.get_mut(71) = 1;
        assert_eq!(copy.shared_chunks(&table), 3);
    }

    #[test]
    fn a_push_at_a_chunk_boundary_opens_a_new_chunk() {
        let table: CowChunks<u32> = (0..2 * CHUNK as u32).collect();
        let mut grown = table.clone();
        assert_eq!(grown.push(7), 2 * CHUNK as u32);
        assert_eq!(grown.chunk_count(), 3);
        assert_eq!(grown.shared_chunks(&table), 2, "full chunks stay shared");
        // Inside a partial last chunk, a push writes that chunk: copied
        // once it is shared, left alone in the original.
        let partial = grown.clone();
        grown.push(8);
        assert_eq!(grown.chunk_count(), 3);
        assert_eq!(grown.shared_chunks(&partial), 2);
        assert_eq!((partial.len(), grown.len()), (2 * CHUNK + 1, 2 * CHUNK + 2));
        assert_eq!(grown[2 * CHUNK as u32 + 1], 8);
    }

    #[test]
    fn a_build_fills_every_slot_and_copies_nothing() {
        let mut table = CowChunks::filled(200, u32::MAX);
        let chunks: Vec<*const [u32; CHUNK]> = table.chunks.iter().map(Arc::as_ptr).collect();
        let built = {
            let mut build = table.build();
            for i in 0..200 {
                assert_eq!(build.push(3 * i), i);
            }
            *build.get_mut(5) = 1;
            build.len()
        };
        let after: Vec<*const [u32; CHUNK]> = table.chunks.iter().map(Arc::as_ptr).collect();
        assert_eq!(after, chunks, "the build copied a chunk");
        assert_eq!(built, table.len());
        assert!((0..200u32).all(|i| table[i] == if i == 5 { 1 } else { 3 * i }));
        // What a build left unused goes with its chunks.
        table.truncate(130);
        assert_eq!((table.len(), table.chunk_count()), (130, 3));
        assert_eq!(table.iter().count(), 130);
    }
}
