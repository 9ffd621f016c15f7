//! Per-site rows in `Arc`-shared chunks.
//!
//! What the Voronoi side stores per site — a Delaunay neighbour list, a
//! cell ring — is a row of variable length. [`Rows`] keeps them in chunks
//! of [`CHUNK`] consecutive sites, each chunk behind an `Arc`, so the next
//! generation of a streamed index ([`Rows::patched`]) copies only the
//! chunks holding a row that changed and shares every other chunk with
//! its predecessor by pointer. Sites are laid out along the Hilbert curve
//! and a batch's edits are local, so a batch writes few chunks; a retired
//! generation frees only the chunks nobody else holds.

use std::sync::Arc;

/// Sites per chunk. Measured on 100k / 200k clustered points with the
/// benchmark's 200-op batches, sites kept in their slots: one batch
/// writes 23–24 % / 14–15 % of 64-site chunks, against 16 % / 10 % for
/// 32, 35 % / 22 % for 128 and 89 % / 69 % for 1 024 — 64 shares most
/// while keeping the per-chunk header (65 offsets) under 5 % of a chunk of
/// neighbour lists.
pub const CHUNK: usize = 64;

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
        self.chunks
            .iter()
            .zip(&other.chunks)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
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
}
