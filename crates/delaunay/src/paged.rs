//! The page layout of the Delaunay adjacency "file".
//!
//! The paper stores the Delaunay adjacency list in a flat file whose pages
//! group points by Hilbert value (§4.2), and reports the R-tree
//! competitors' I/O as "number of accessed nodes" (Fig. 12c/f). To compare
//! VS²'s data accesses on the same footing, [`PagedAdjacency`] cuts a
//! sequence of *sites* — points already laid out along the curve by
//! [`crate::hilbert::sort_by_hilbert`] — into pages of fixed fan-out, so a
//! site's page is plain arithmetic on its position. It is the layout only:
//! a traversal counts a *page access* the first time it touches any site
//! of a page — an LRU-∞ (buffer never evicts within one query), the same
//! accounting the R-tree side uses — in a page set of its own, keyed by
//! [`PagedAdjacency::page_of`], so queries running side by side on one
//! index share no counter. No file is written: this page model is the
//! only one in the workspace, and every VS² page count the reproduction
//! reports (Fig. 12c/f) is its count.
//!
//! A site appended after the layout — a point inserted by a delta — has no
//! position on the curve's pages. It is accounted to a page chosen for it
//! ([`PagedAdjacency::append`]): a file organized by Hilbert value stores
//! a new point beside its neighbours, so that is the page it would be
//! inserted into, and the page count stays as laid out.

/// Page assignment for a sequence of sites in Hilbert order, plus any
/// sites appended since.
#[derive(Clone, Debug)]
pub struct PagedAdjacency {
    per_page: u32,
    page_count: u32,
    /// Sites `0..laid_out` are on the pages by position.
    laid_out: u32,
    /// The page of each site appended after them, in order.
    appended: Vec<u32>,
}

impl PagedAdjacency {
    /// Lays out `sites` consecutive sites into pages of `per_page` entries.
    ///
    /// `per_page` mirrors the paper's R-tree node capacity (≤ 50 entries
    /// per 1 KB page) so I/O numbers are comparable.
    pub fn new(sites: usize, per_page: usize) -> PagedAdjacency {
        assert!(per_page > 0, "page capacity must be positive");
        PagedAdjacency {
            per_page: per_page as u32,
            page_count: sites.div_ceil(per_page) as u32,
            laid_out: sites as u32,
            appended: Vec::new(),
        }
    }

    /// Accounts the next site to `page`, one of the laid-out pages.
    pub fn append(&mut self, page: u32) {
        debug_assert!(page < self.page_count);
        self.appended.push(page);
    }

    /// Total number of pages.
    pub fn page_count(&self) -> u32 {
        self.page_count
    }

    /// Entries per page.
    pub fn per_page(&self) -> usize {
        self.per_page as usize
    }

    /// The page holding site `i`.
    #[inline]
    pub fn page_of(&self, i: u32) -> u32 {
        if i < self.laid_out {
            i / self.per_page
        } else {
            self.appended[(i - self.laid_out) as usize]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hilbert;
    use ssq_geom::{Point, Rect};

    #[test]
    fn page_layout_covers_all_points() {
        let paged = PagedAdjacency::new(103, 10);
        assert_eq!(paged.page_count(), 11);
        assert_eq!(paged.page_of(0), 0);
        assert_eq!(paged.page_of(9), 0);
        assert_eq!(paged.page_of(10), 1);
        assert_eq!(paged.page_of(102), 10);
        assert_eq!(PagedAdjacency::new(0, 10).page_count(), 0);
        // Appended sites take the pages they are given.
        let mut grown = paged.clone();
        grown.append(4);
        grown.append(0);
        assert_eq!((grown.page_of(103), grown.page_of(104)), (4, 0));
        assert_eq!(grown.page_of(57), 5);
        assert_eq!(grown.page_count(), 11);
    }

    #[test]
    fn hilbert_layout_groups_nearby_points() {
        // Points in a tight cluster should share few pages.
        let mut p: Vec<Point> = (0..50)
            .map(|i| Point::new(i as f64 * 0.01, i as f64 * 0.01))
            .collect();
        p.push(Point::new(1000.0, 1000.0));
        let order = hilbert::sort_by_hilbert(&p, &Rect::bounding(p.iter().copied()));
        let paged = PagedAdjacency::new(p.len(), 25);
        let page_of_point = |i: u32| {
            let site = order.iter().position(|&x| x == i).unwrap();
            paged.page_of(site as u32)
        };
        let far_page = page_of_point(50);
        let cluster_pages: std::collections::HashSet<u32> = (0..50).map(page_of_point).collect();
        assert!(cluster_pages.len() <= 3);
        // The far point sits in the last page along the curve.
        assert!(far_page >= *cluster_pages.iter().max().unwrap());
    }
}
