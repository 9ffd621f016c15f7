//! The page layout of the Delaunay adjacency "file".
//!
//! The paper stores the Delaunay adjacency list in a flat file whose pages
//! group points by Hilbert value (§4.2), and reports the R-tree
//! competitors' I/O as "number of accessed nodes" (Fig. 12c/f). To compare
//! VS²'s data accesses on the same footing, [`PagedAdjacency`] assigns each
//! point to a page (Hilbert order, fixed fan-out). It is the immutable
//! layout only: a traversal counts a *page access* the first time it
//! touches any point of a page — an LRU-∞ (buffer never evicts within one
//! query), the same accounting the R-tree side uses — in a page set of
//! its own, keyed by [`PagedAdjacency::page_of`], so queries running side
//! by side on one index share no counter.

use ssq_geom::Point;

use crate::hilbert;

/// Page assignment for a point set.
pub struct PagedAdjacency {
    /// `page_of[i]` is the page holding point `i`'s adjacency list.
    page_of: Vec<u32>,
    page_count: u32,
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
        }
    }

    /// Builds a layout from an explicit page assignment, without
    /// re-running the Hilbert layout.
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
