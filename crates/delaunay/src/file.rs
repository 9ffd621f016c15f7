//! The on-disk adjacency "flat file" of §4.2.
//!
//! The paper's VS² setup assumes no R-tree: "the adjacency list of the
//! Delaunay graph of the points in P is stored in a flat file. To
//! preserve locality, points are organized in pages according to their
//! Hilbert values." This module implements that file format for real, so
//! a Delaunay graph can be persisted once and reopened without
//! re-triangulating:
//!
//! ```text
//! header:   magic "SSQDG1\0\0" · u64 point count · u64 page size ·
//!           u64 page count · u64 directory offset
//! pages:    fixed-size pages; each holds whole records
//!           record = u32 point id · f64 x · f64 y ·
//!                    u32 degree · degree × u32 neighbour ids
//! directory: page count × (u64 file offset, u32 record count)
//!            then point count × u32 (page index of each point id)
//! ```
//!
//! All integers are little-endian. Records never span pages (a record
//! larger than the page payload gets a page of its own — degrees above
//! ~120 cannot occur in a Delaunay graph of distinct points in practice,
//! but the format stays correct regardless).

use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use ssq_geom::{Point, Rect};

use crate::graph::DelaunayGraph;
use crate::hilbert;

const MAGIC: &[u8; 8] = b"SSQDG1\0\0";

/// Default page size in bytes, matching the paper's 1 KB pages (§7).
pub const DEFAULT_PAGE_SIZE: usize = 1024;

/// Errors from reading/writing adjacency files.
#[derive(Debug)]
pub enum FileError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not an adjacency file or is corrupt.
    Format(String),
}

impl From<io::Error> for FileError {
    fn from(e: io::Error) -> Self {
        FileError::Io(e)
    }
}

impl std::fmt::Display for FileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FileError::Io(e) => write!(f, "I/O error: {e}"),
            FileError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for FileError {}

/// Writes the graph's adjacency lists to `path` in Hilbert-paged layout.
///
/// Returns the number of pages written.
pub fn write_adjacency_file(
    graph: &DelaunayGraph,
    path: &Path,
    page_size: usize,
) -> Result<u64, FileError> {
    assert!(page_size >= 64, "page size too small to hold any record");
    let n = graph.len();
    let points = graph.points();

    // Hilbert layout of the records.
    let order = hilbert::sort_by_hilbert(points, &Rect::bounding(points.iter().copied()));

    // Assign records to pages greedily in Hilbert order.
    let record_len = |i: u32| 4 + 8 + 8 + 4 + 4 * graph.neighbors(i).len();
    let mut pages: Vec<Vec<u32>> = Vec::new();
    let mut current: Vec<u32> = Vec::new();
    let mut used = 0usize;
    for &i in &order {
        let len = record_len(i);
        if used + len > page_size && !current.is_empty() {
            pages.push(std::mem::take(&mut current));
            used = 0;
        }
        current.push(i);
        used += len;
    }
    if !current.is_empty() {
        pages.push(current);
    }

    let mut w = BufWriter::new(File::create(path)?);
    // Header (directory offset patched at the end).
    w.write_all(MAGIC)?;
    w.write_all(&(n as u64).to_le_bytes())?;
    w.write_all(&(page_size as u64).to_le_bytes())?;
    w.write_all(&(pages.len() as u64).to_le_bytes())?;
    let dir_offset_pos = 8 + 8 + 8 + 8;
    w.write_all(&0u64.to_le_bytes())?; // placeholder

    // Pages.
    let mut page_offsets: Vec<(u64, u32)> = Vec::with_capacity(pages.len());
    let mut page_of = vec![0u32; n];
    let mut offset = dir_offset_pos as u64 + 8;
    for (pidx, page) in pages.iter().enumerate() {
        page_offsets.push((offset, page.len() as u32));
        let mut buf: Vec<u8> = Vec::with_capacity(page_size);
        for &i in page {
            page_of[i as usize] = pidx as u32;
            buf.extend_from_slice(&i.to_le_bytes());
            let p = points[i as usize];
            buf.extend_from_slice(&p.x.to_le_bytes());
            buf.extend_from_slice(&p.y.to_le_bytes());
            let ns = graph.neighbors(i);
            buf.extend_from_slice(&(ns.len() as u32).to_le_bytes());
            for &nb in ns {
                buf.extend_from_slice(&nb.to_le_bytes());
            }
        }
        buf.resize(page_size.max(buf.len()), 0); // pad to page size
        offset += buf.len() as u64;
        w.write_all(&buf)?;
    }

    // Directory.
    let dir_offset = offset;
    for &(off, count) in &page_offsets {
        w.write_all(&off.to_le_bytes())?;
        w.write_all(&count.to_le_bytes())?;
    }
    for &pg in &page_of {
        w.write_all(&pg.to_le_bytes())?;
    }
    // Patch the header.
    w.flush()?;
    let mut f = w.into_inner().map_err(|e| FileError::Io(e.into_error()))?;
    f.seek(SeekFrom::Start(dir_offset_pos as u64))?;
    f.write_all(&dir_offset.to_le_bytes())?;
    f.sync_all()?;
    Ok(pages.len() as u64)
}

/// A reader over an adjacency file that fetches whole pages on demand and
/// counts page reads — the physical realization of the I/O model the
/// in-memory [`crate::paged::PagedAdjacency`] simulates.
pub struct AdjacencyFile {
    file: File,
    n: usize,
    /// `(offset, record count)` per page.
    directory: Vec<(u64, u32)>,
    /// Page index per point id.
    page_of: Vec<u32>,
    /// File offset where the directory begins (end of the page area).
    dir_offset: u64,
    /// Cached pages (page index -> parsed records), an unbounded buffer
    /// like the in-memory model.
    cache: std::collections::HashMap<u32, Vec<Record>>,
    reads: u64,
}

/// One parsed adjacency record.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Point id.
    pub id: u32,
    /// Point location.
    pub location: Point,
    /// Voronoi neighbour ids.
    pub neighbors: Vec<u32>,
}

impl AdjacencyFile {
    /// Opens an adjacency file and reads its header and directory.
    pub fn open(path: &Path) -> Result<AdjacencyFile, FileError> {
        let mut file = File::open(path)?;
        let mut header = [0u8; 8 + 8 + 8 + 8 + 8];
        file.read_exact(&mut header)?;
        if &header[..8] != MAGIC {
            return Err(FileError::Format("bad magic".into()));
        }
        let read_u64 = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte slice"));
        let n = read_u64(&header[8..16]) as usize;
        let page_size = read_u64(&header[16..24]) as usize;
        let page_count = read_u64(&header[24..32]) as usize;
        let dir_offset = read_u64(&header[32..40]);

        file.seek(SeekFrom::Start(dir_offset))?;
        let mut dir_buf = vec![0u8; page_count * 12 + n * 4];
        file.read_exact(&mut dir_buf)?;
        let mut directory = Vec::with_capacity(page_count);
        for k in 0..page_count {
            let off = read_u64(&dir_buf[k * 12..k * 12 + 8]);
            let count = u32::from_le_bytes(
                dir_buf[k * 12 + 8..k * 12 + 12]
                    .try_into()
                    .expect("4-byte slice"),
            );
            directory.push((off, count));
        }
        let base = page_count * 12;
        let mut page_of = Vec::with_capacity(n);
        for k in 0..n {
            page_of.push(u32::from_le_bytes(
                dir_buf[base + k * 4..base + k * 4 + 4]
                    .try_into()
                    .expect("4-byte slice"),
            ));
        }
        let _ = page_size;
        Ok(AdjacencyFile {
            file,
            n,
            directory,
            page_of,
            dir_offset,
            cache: std::collections::HashMap::new(),
            reads: 0,
        })
    }

    /// Number of points stored.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the file stores no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.directory.len()
    }

    /// Page reads performed since opening (or the last
    /// [`AdjacencyFile::reset_reads`]).
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Resets the read counter and drops the page cache.
    pub fn reset_reads(&mut self) {
        self.reads = 0;
        self.cache.clear();
    }

    /// Fetches the record of point `id`, reading (and caching) its page.
    pub fn record(&mut self, id: u32) -> Result<Record, FileError> {
        if id as usize >= self.n {
            return Err(FileError::Format(format!("point id {id} out of range")));
        }
        let page = self.page_of[id as usize];
        if !self.cache.contains_key(&page) {
            let records = self.read_page(page)?;
            self.cache.insert(page, records);
            self.reads += 1;
        }
        self.cache[&page]
            .iter()
            .find(|r| r.id == id)
            .cloned()
            .ok_or_else(|| FileError::Format(format!("record {id} missing from its page")))
    }

    fn read_page(&mut self, page: u32) -> Result<Vec<Record>, FileError> {
        let (offset, count) = self.directory[page as usize];
        // Page byte length: up to the next page's offset (an oversized
        // record gets a page longer than page_size); the last page ends
        // where the directory begins.
        let end = self
            .directory
            .get(page as usize + 1)
            .map(|&(off, _)| off)
            .unwrap_or(self.dir_offset);
        let len = (end - offset) as usize;
        self.file.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len];
        let got = self.file.read(&mut buf)?;
        let buf = &buf[..got];
        let mut records = Vec::with_capacity(count as usize);
        let mut pos = 0usize;
        let take_u32 = |b: &[u8], pos: usize| -> u32 {
            u32::from_le_bytes(b[pos..pos + 4].try_into().expect("4-byte slice"))
        };
        let take_f64 = |b: &[u8], pos: usize| -> f64 {
            f64::from_le_bytes(b[pos..pos + 8].try_into().expect("8-byte slice"))
        };
        for _ in 0..count {
            if pos + 24 > buf.len() {
                return Err(FileError::Format("truncated page".into()));
            }
            let id = take_u32(buf, pos);
            let x = take_f64(buf, pos + 4);
            let y = take_f64(buf, pos + 12);
            let degree = take_u32(buf, pos + 20) as usize;
            pos += 24;
            if pos + 4 * degree > buf.len() {
                return Err(FileError::Format("truncated record".into()));
            }
            let mut neighbors = Vec::with_capacity(degree);
            for k in 0..degree {
                neighbors.push(take_u32(buf, pos + 4 * k));
            }
            pos += 4 * degree;
            records.push(Record {
                id,
                location: Point::new(x, y),
                neighbors,
            });
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: usize, seed: u64) -> DelaunayGraph {
        let mut s = seed.max(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::new(next() * 100.0, next() * 100.0))
            .collect();
        DelaunayGraph::new(&pts).unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ssq_adj_{name}_{}.bin", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_preserves_graph() {
        let g = graph(150, 7);
        let path = tmp("roundtrip");
        let pages = write_adjacency_file(&g, &path, DEFAULT_PAGE_SIZE).unwrap();
        assert!(pages >= 1);
        let mut f = AdjacencyFile::open(&path).unwrap();
        assert_eq!(f.len(), 150);
        for i in 0..150u32 {
            let r = f.record(i).unwrap();
            assert_eq!(r.id, i);
            assert_eq!(r.location, g.point(i));
            assert_eq!(r.neighbors, g.neighbors(i));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn page_reads_are_counted_once_per_page() {
        let g = graph(200, 9);
        let path = tmp("reads");
        write_adjacency_file(&g, &path, DEFAULT_PAGE_SIZE).unwrap();
        let mut f = AdjacencyFile::open(&path).unwrap();
        // Reading the same record repeatedly costs one page read.
        f.record(5).unwrap();
        f.record(5).unwrap();
        f.record(5).unwrap();
        assert_eq!(f.reads(), 1);
        // Reading everything costs at most page_count reads.
        for i in 0..200u32 {
            f.record(i).unwrap();
        }
        assert_eq!(f.reads() as usize, f.page_count());
        f.reset_reads();
        assert_eq!(f.reads(), 0);
    }

    #[test]
    fn hilbert_layout_localizes_nearby_points() {
        // Points in one tight cluster should occupy few pages relative to
        // scattered ones.
        let mut pts: Vec<Point> = (0..100)
            .map(|i| Point::new(0.001 * i as f64, 0.001 * i as f64))
            .collect();
        pts.extend(
            (0..100).map(|i| Point::new(50.0 + (i % 10) as f64 * 7.0, (i / 10) as f64 * 9.0)),
        );
        let g = DelaunayGraph::new(&pts).unwrap();
        let path = tmp("locality");
        write_adjacency_file(&g, &path, DEFAULT_PAGE_SIZE).unwrap();
        let mut f = AdjacencyFile::open(&path).unwrap();
        for i in 0..100u32 {
            f.record(i).unwrap();
        }
        let cluster_reads = f.reads();
        assert!(
            (cluster_reads as usize) < f.page_count(),
            "cluster should not touch every page"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let path = tmp("badmagic");
        std::fs::write(&path, [0x55u8; 64]).unwrap();
        assert!(matches!(
            AdjacencyFile::open(&path),
            Err(FileError::Format(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_id_is_rejected() {
        let g = graph(20, 3);
        let path = tmp("range");
        write_adjacency_file(&g, &path, DEFAULT_PAGE_SIZE).unwrap();
        let mut f = AdjacencyFile::open(&path).unwrap();
        assert!(f.record(20).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tiny_page_size_still_roundtrips() {
        // Pages that fit one record each.
        let g = graph(30, 5);
        let path = tmp("tinypages");
        write_adjacency_file(&g, &path, 64).unwrap();
        let mut f = AdjacencyFile::open(&path).unwrap();
        for i in 0..30u32 {
            let r = f.record(i).unwrap();
            assert_eq!(r.neighbors, g.neighbors(i));
        }
        std::fs::remove_file(&path).ok();
    }
}
