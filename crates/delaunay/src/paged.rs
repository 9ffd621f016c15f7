//! A page-access-counting view of the Delaunay adjacency "file".
//!
//! The paper stores the Delaunay adjacency list in a flat file whose pages
//! group points by Hilbert value (§4.2), and reports the R-tree
//! competitors' I/O as "number of accessed nodes" (Fig. 12c/f). To compare
//! VS²'s data accesses on the same footing, [`PagedAdjacency`] assigns each
//! point to a page (Hilbert order, fixed fan-out) and counts a *page
//! access* the first time any point of a page is touched since the counter
//! was reset — i.e. an LRU-∞ (buffer never evicts within one query), the
//! same accounting the R-tree side uses.

use ssq_geom::Point;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::hilbert;

/// Page assignment plus an access counter for a point set.
///
/// The counters use relaxed atomics so a shared index stays `Sync` and can
/// serve queries from many threads at once; under concurrent use the page
/// counts are best-effort (a page touched simultaneously by two threads may
/// be counted twice), which is fine for the paper's single-query I/O
/// accounting the counter exists to reproduce. A query path that runs
/// on several workers at once keeps its own page set instead, keyed by
/// [`PagedAdjacency::page_of`], and leaves these counters alone.
pub struct PagedAdjacency {
    /// `page_of[i]` is the page holding point `i`'s adjacency list.
    page_of: Vec<u32>,
    page_count: u32,
    /// Epoch-stamped "page in buffer" marks.
    stamps: Vec<AtomicU32>,
    epoch: AtomicU32,
    accesses: AtomicU64,
}

impl PagedAdjacency {
    /// Lays out `points` into pages of `per_page` entries in Hilbert order.
    ///
    /// `per_page` mirrors the paper's R-tree node capacity (≤ 50 entries
    /// per 1 KB page) so I/O numbers are comparable.
    pub fn new(points: &[Point], per_page: usize) -> PagedAdjacency {
        assert!(per_page > 0, "page capacity must be positive");
        let mut order: Vec<u32> = (0..points.len() as u32).collect();
        hilbert::sort_by_hilbert(points, &mut order);
        let mut page_of = vec![0u32; points.len()];
        for (rank, &i) in order.iter().enumerate() {
            page_of[i as usize] = (rank / per_page) as u32;
        }
        let page_count = points.len().div_ceil(per_page) as u32;
        PagedAdjacency {
            page_of,
            page_count,
            stamps: (0..page_count).map(|_| AtomicU32::new(0)).collect(),
            epoch: AtomicU32::new(1),
            accesses: AtomicU64::new(0),
        }
    }

    /// Builds a view from an explicit page assignment, without re-running
    /// the Hilbert layout.
    ///
    /// Delta builds use this to carry the previous generation's layout
    /// forward: surviving points keep their page, inserted points are
    /// assigned the page of a Delaunay neighbour. Any assignment is valid —
    /// pages are an accounting fiction, so the only requirement is
    /// `page_of[i] < page_count` for every point.
    pub fn with_layout(page_of: Vec<u32>, page_count: u32) -> PagedAdjacency {
        assert!(
            page_of.iter().all(|&p| p < page_count),
            "page assignment out of range"
        );
        PagedAdjacency {
            page_of,
            page_count,
            stamps: (0..page_count).map(|_| AtomicU32::new(0)).collect(),
            epoch: AtomicU32::new(1),
            accesses: AtomicU64::new(0),
        }
    }

    /// Total number of pages.
    pub fn page_count(&self) -> u32 {
        self.page_count
    }

    /// The page holding point `i`.
    pub fn page_of(&self, i: u32) -> u32 {
        self.page_of[i as usize]
    }

    /// Records an access to point `i`'s adjacency list; counts one page
    /// access the first time the page is touched in the current epoch.
    pub fn touch(&self, i: u32) {
        let page = self.page_of[i as usize] as usize;
        let epoch = self.epoch.load(Ordering::Relaxed);
        if self.stamps[page].swap(epoch, Ordering::Relaxed) != epoch {
            self.accesses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of distinct page accesses since the last reset.
    pub fn accesses(&self) -> u64 {
        self.accesses.load(Ordering::Relaxed)
    }

    /// Resets the counter and empties the simulated buffer.
    pub fn reset(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
        self.accesses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new((i % 13) as f64, (i / 13) as f64))
            .collect()
    }

    #[test]
    fn page_layout_covers_all_points() {
        let p = pts(103);
        let paged = PagedAdjacency::new(&p, 10);
        assert_eq!(paged.page_count(), 11);
        for i in 0..103u32 {
            assert!(paged.page_of(i) < 11);
        }
    }

    #[test]
    fn touch_counts_distinct_pages_once() {
        let p = pts(40);
        let paged = PagedAdjacency::new(&p, 10);
        paged.touch(0);
        paged.touch(0);
        paged.touch(0);
        assert_eq!(paged.accesses(), 1);
        // Touch every point: exactly page_count accesses.
        for i in 0..40u32 {
            paged.touch(i);
        }
        assert_eq!(paged.accesses(), paged.page_count() as u64);
    }

    #[test]
    fn reset_clears_buffer() {
        let p = pts(20);
        let paged = PagedAdjacency::new(&p, 5);
        paged.touch(3);
        assert_eq!(paged.accesses(), 1);
        paged.reset();
        assert_eq!(paged.accesses(), 0);
        paged.touch(3);
        assert_eq!(paged.accesses(), 1);
    }

    #[test]
    fn hilbert_layout_groups_nearby_points() {
        // Points in a tight cluster should share few pages.
        let mut p: Vec<Point> = (0..50)
            .map(|i| Point::new(i as f64 * 0.01, i as f64 * 0.01))
            .collect();
        p.push(Point::new(1000.0, 1000.0));
        let paged = PagedAdjacency::new(&p, 25);
        let far_page = paged.page_of(50);
        let cluster_pages: std::collections::HashSet<u32> =
            (0..50).map(|i| paged.page_of(i)).collect();
        assert!(cluster_pages.len() <= 3);
        // The far point sits in the last page along the curve.
        assert!(far_page >= *cluster_pages.iter().max().unwrap());
    }
}
