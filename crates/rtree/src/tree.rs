//! The R*-tree implementation.
//!
//! Nodes live in an arena of `Arc`-shared nodes (`Vec<Arc<Node>>`);
//! entries of an internal node are `(mbr, child id)` pairs, entries of a
//! leaf are `(mbr, item)` pairs. A child is named by its arena slot, not
//! by pointer, so a clone of the tree copies one pointer per node and
//! every later write copies only the node it lands on
//! (`Arc::make_mut`): an edit writes its root-to-leaf path, and not even
//! all of that — a parent's entry is rewritten only when its child's MBR
//! actually changed. A tree and the clone it was edited from share every
//! other node ([`RTree::shared_nodes`]).
//!
//! Insertion follows Beckmann et al.'s R* heuristics (choose-subtree by
//! minimum overlap enlargement at the leaf level, split axis by minimum
//! margin sum, split distribution by minimum overlap); the forced-reinsert
//! optimization is omitted — it only improves MBR quality marginally for
//! our workloads, and the STR bulk loader (used for the big experiment
//! datasets) produces near-optimal packing anyway.

use ssq_geom::{Point, Rect};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default node capacity, matching the paper's setup ("a maximum of 50
/// entries in each node", §7).
pub const DEFAULT_MAX_ENTRIES: usize = 50;

/// Identifier of a node in the tree arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId(u32);

/// Tree construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct RTreeConfig {
    /// Maximum entries per node (fan-out). Must be ≥ 4.
    pub max_entries: usize,
    /// Minimum entries per node after a split. Must satisfy
    /// `2 ≤ min_entries ≤ max_entries / 2`.
    pub min_entries: usize,
}

impl Default for RTreeConfig {
    fn default() -> Self {
        RTreeConfig {
            max_entries: DEFAULT_MAX_ENTRIES,
            // The R* paper recommends m = 40% of M.
            min_entries: DEFAULT_MAX_ENTRIES * 2 / 5,
        }
    }
}

impl RTreeConfig {
    /// A configuration with the given fan-out and the R*-recommended 40%
    /// minimum fill.
    pub fn with_max_entries(max_entries: usize) -> RTreeConfig {
        assert!(max_entries >= 4, "fan-out must be at least 4");
        RTreeConfig {
            max_entries,
            min_entries: (max_entries * 2 / 5).max(2),
        }
    }
}

/// One entry of a node, as exposed by [`RTree::entries`].
#[derive(Clone, Copy, Debug)]
pub enum Entry<T> {
    /// An internal entry: the MBR of a child node.
    Node {
        /// MBR of the subtree.
        mbr: Rect,
        /// The child node.
        child: NodeId,
    },
    /// A leaf entry: one indexed item.
    Item {
        /// MBR of the item.
        mbr: Rect,
        /// The item payload.
        item: T,
    },
}

impl<T> Entry<T> {
    /// The entry's MBR.
    pub fn mbr(&self) -> Rect {
        match *self {
            Entry::Node { mbr, .. } | Entry::Item { mbr, .. } => mbr,
        }
    }
}

#[derive(Clone, Debug)]
struct Node<T> {
    rects: Vec<Rect>,
    /// For internal nodes: child node ids (parallel to `rects`).
    children: Vec<u32>,
    /// For leaves: item payloads (parallel to `rects`).
    items: Vec<T>,
    is_leaf: bool,
    /// Height of the subtree rooted here (leaf = 0). Kept so reinsertion of
    /// split roots lands at the right level.
    level: u32,
}

impl<T> Node<T> {
    fn new(is_leaf: bool, level: u32) -> Node<T> {
        Node {
            rects: Vec::new(),
            children: Vec::new(),
            items: Vec::new(),
            is_leaf,
            level,
        }
    }

    fn len(&self) -> usize {
        self.rects.len()
    }

    fn mbr(&self) -> Rect {
        self.rects.iter().fold(Rect::EMPTY, |acc, r| acc.union(r))
    }
}

/// An R*-tree over items of type `T`.
///
/// `T` is any cheap-to-copy payload; the SSQ crates use the index of the
/// data point. Node accesses are counted on every [`RTree::entries`] call
/// (and internally by the built-in queries), mirroring the paper's I/O
/// metric; reset the counter with [`RTree::reset_node_accesses`] before
/// each measured query. The counter is tree-wide, so it is only
/// meaningful for one query at a time; [`RTree::entries_in_place`] is
/// the non-counting read for callers that account per query.
#[derive(Debug)]
pub struct RTree<T: Copy> {
    /// The arena. Every write goes through `RTree::node_mut`, which
    /// copies a node another tree still holds before writing it.
    nodes: Vec<Arc<Node<T>>>,
    root: Option<u32>,
    len: usize,
    config: RTreeConfig,
    /// Arena slots vacated by deletions, reused by later node pushes so
    /// a long-lived tree mutated across many generations stays compact.
    free: Vec<u32>,
    // Relaxed atomic (not `Cell`) so a shared tree stays `Sync`; counts
    // are best-effort when several threads query concurrently.
    accesses: AtomicU64,
}

impl<T: Copy> Clone for RTree<T> {
    /// Copies the arena's node pointers, not the nodes: the two trees
    /// share every node until one of them writes it. This is where delta
    /// builds start from. The access counter starts at zero: it is
    /// per-instance measurement state, not index state.
    fn clone(&self) -> RTree<T> {
        RTree {
            nodes: self.nodes.clone(),
            root: self.root,
            len: self.len,
            config: self.config,
            free: self.free.clone(),
            accesses: AtomicU64::new(0),
        }
    }
}

impl<T: Copy> RTree<T> {
    /// Creates an empty tree with the default configuration.
    pub fn new() -> RTree<T> {
        Self::with_config(RTreeConfig::default())
    }

    /// Creates an empty tree with the given configuration.
    pub fn with_config(config: RTreeConfig) -> RTree<T> {
        assert!(config.max_entries >= 4);
        assert!(config.min_entries >= 2 && config.min_entries <= config.max_entries / 2);
        RTree {
            nodes: Vec::new(),
            root: None,
            len: 0,
            config,
            free: Vec::new(),
            accesses: AtomicU64::new(0),
        }
    }

    /// Bulk-loads `items` with Sort-Tile-Recursive packing.
    ///
    /// STR produces a fully-packed tree whose leaves tile the data in
    /// `√(n/M)` vertical slices of `√(n/M)` horizontal runs each — the
    /// standard way to build a high-quality static index, which is what the
    /// SSQ experiments need.
    pub fn bulk_load(items: Vec<(Rect, T)>) -> RTree<T> {
        Self::bulk_load_with_config(items, RTreeConfig::default())
    }

    /// [`RTree::bulk_load`] with an explicit configuration.
    pub fn bulk_load_with_config(mut items: Vec<(Rect, T)>, config: RTreeConfig) -> RTree<T> {
        let mut tree = Self::with_config(config);
        tree.len = items.len();
        if items.is_empty() {
            return tree;
        }
        let cap = config.max_entries;

        // Leaf level: STR packing.
        let n = items.len();
        let leaf_count = n.div_ceil(cap);
        let slices = (leaf_count as f64).sqrt().ceil() as usize;
        let per_slice = n.div_ceil(slices);
        items.sort_by(|a, b| a.0.center().x.total_cmp(&b.0.center().x));
        let mut leaf_ids: Vec<u32> = Vec::with_capacity(leaf_count);
        for slice in items.chunks_mut(per_slice) {
            slice.sort_by(|a, b| a.0.center().y.total_cmp(&b.0.center().y));
            for run in slice.chunks(cap) {
                let mut node = Node::new(true, 0);
                for &(r, t) in run {
                    node.rects.push(r);
                    node.items.push(t);
                }
                leaf_ids.push(tree.push_node(node));
            }
        }

        // Pack upper levels the same way until one node remains.
        let mut level = 0u32;
        let mut ids = leaf_ids;
        while ids.len() > 1 {
            level += 1;
            let count = ids.len().div_ceil(cap);
            let slices = (count as f64).sqrt().ceil() as usize;
            let per_slice = ids.len().div_ceil(slices);
            let mut with_mbr: Vec<(Rect, u32)> =
                ids.iter().map(|&id| (tree.node(id).mbr(), id)).collect();
            with_mbr.sort_by(|a, b| a.0.center().x.total_cmp(&b.0.center().x));
            let mut next: Vec<u32> = Vec::with_capacity(count);
            for slice in with_mbr.chunks_mut(per_slice) {
                slice.sort_by(|a, b| a.0.center().y.total_cmp(&b.0.center().y));
                for run in slice.chunks(cap) {
                    let mut node = Node::new(false, level);
                    for &(r, id) in run {
                        node.rects.push(r);
                        node.children.push(id);
                    }
                    next.push(tree.push_node(node));
                }
            }
            ids = next;
        }
        tree.root = Some(ids[0]);
        tree
    }

    /// Bulk-loads a set of points (degenerate rectangles) with their
    /// indices as payloads — the common case for SSQ data sets.
    pub fn bulk_load_points(points: &[Point], config: RTreeConfig) -> RTree<u32> {
        RTree::bulk_load_with_config(
            points
                .iter()
                .enumerate()
                .map(|(i, &p)| (Rect::from_point(p), i as u32))
                .collect(),
            config,
        )
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the tree holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (leaf level = 1, empty tree = 0).
    pub fn height(&self) -> usize {
        match self.root {
            None => 0,
            Some(r) => self.node(r).level as usize + 1,
        }
    }

    /// Number of allocated nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The root node, if any.
    pub fn root(&self) -> Option<NodeId> {
        self.root.map(NodeId)
    }

    /// The MBR of the whole tree.
    pub fn mbr(&self) -> Rect {
        match self.root {
            None => Rect::EMPTY,
            Some(r) => self.node(r).mbr(),
        }
    }

    /// Arena slots holding the same node allocation in `self` and
    /// `other` — the nodes neither has written since one was cloned from
    /// the other (freed slots included), not equal contents.
    pub fn shared_nodes(&self, other: &RTree<T>) -> usize {
        self.nodes
            .iter()
            .zip(&other.nodes)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Reads the entries of a node, counting one node access.
    ///
    /// This is the primitive the skyline algorithms build their best-first
    /// traversals on.
    pub fn entries(&self, id: NodeId) -> Vec<Entry<T>> {
        self.read_node(id).collect()
    }

    /// Counts one node access and visits the node's entries in place.
    fn read_node(&self, id: NodeId) -> impl Iterator<Item = Entry<T>> + '_ {
        self.accesses.fetch_add(1, Ordering::Relaxed);
        self.entries_in_place(id)
    }

    /// Visits the entries of a node in place: no `Vec`, and **no** node
    /// access counted — for callers that keep their own per-query count
    /// (the kernel algorithms add one to their `QueryStats` per node
    /// read, so queries running concurrently on one shared tree never
    /// see each other's accesses).
    pub fn entries_in_place(&self, id: NodeId) -> impl Iterator<Item = Entry<T>> + '_ {
        let node = self.node(id.0);
        node.rects.iter().enumerate().map(move |(i, &mbr)| {
            if node.is_leaf {
                Entry::Item {
                    mbr,
                    item: node.items[i],
                }
            } else {
                Entry::Node {
                    mbr,
                    child: NodeId(node.children[i]),
                }
            }
        })
    }

    /// Node accesses since the last reset.
    pub fn node_accesses(&self) -> u64 {
        self.accesses.load(Ordering::Relaxed)
    }

    /// Resets the node-access counter.
    pub fn reset_node_accesses(&self) {
        self.accesses.store(0, Ordering::Relaxed);
    }

    /// Inserts an item with the given MBR (R* heuristics).
    pub fn insert(&mut self, mbr: Rect, item: T) {
        self.len += 1;
        let Some(root) = self.root else {
            let mut node = Node::new(true, 0);
            node.rects.push(mbr);
            node.items.push(item);
            let id = self.push_node(node);
            self.root = Some(id);
            return;
        };
        if let Some((r1, r2)) = self.insert_at(root, mbr, item) {
            // Root split: grow the tree.
            let level = self.node(root).level + 1;
            let mut new_root = Node::new(false, level);
            new_root.rects.push(self.node(r1).mbr());
            new_root.children.push(r1);
            new_root.rects.push(self.node(r2).mbr());
            new_root.children.push(r2);
            let id = self.push_node(new_root);
            self.root = Some(id);
        }
    }

    /// Deletes one entry matching `(mbr, item)` exactly, condensing the
    /// tree on the way back up (delete-with-reinsert).
    ///
    /// Nodes that fall below the minimum fill are dissolved and their
    /// surviving items reinserted through the regular R* insertion path,
    /// which keeps MBR quality comparable to a fresh build. Returns
    /// `false` (tree unchanged) when no such entry exists.
    pub fn delete(&mut self, mbr: Rect, item: T) -> bool
    where
        T: PartialEq,
    {
        let Some(root) = self.root else {
            return false;
        };
        let mut orphans: Vec<(Rect, T)> = Vec::new();
        if !self.delete_at(root, &mbr, &item, &mut orphans) {
            return false;
        }
        self.len -= 1;
        // Shrink the root: an internal root with one child hands the root
        // role to that child; an empty root leaves the tree empty.
        while let Some(r) = self.root {
            let node = self.node(r);
            if node.len() == 0 {
                self.free_node(r);
                self.root = None;
                break;
            }
            if node.is_leaf || node.len() > 1 {
                break;
            }
            let child = node.children[0];
            self.free_node(r);
            self.root = Some(child);
        }
        // Reinsert orphaned items from dissolved nodes. They were never
        // subtracted from `len`, so compensate for `insert`'s increment.
        self.len -= orphans.len();
        for (r, t) in orphans {
            self.insert(r, t);
        }
        true
    }

    /// All items whose MBR intersects `query`.
    pub fn query_rect(&self, query: &Rect) -> Vec<T> {
        let mut out = Vec::new();
        let Some(root) = self.root else {
            return out;
        };
        let mut stack = vec![NodeId(root)];
        while let Some(id) = stack.pop() {
            for e in self.read_node(id) {
                match e {
                    Entry::Node { mbr, child } => {
                        if mbr.intersects(query) {
                            stack.push(child);
                        }
                    }
                    Entry::Item { mbr, item } => {
                        if mbr.intersects(query) {
                            out.push(item);
                        }
                    }
                }
            }
        }
        out
    }

    /// The item nearest to `q` (by MBR `mindist`), via best-first search.
    pub fn nearest(&self, q: Point) -> Option<T> {
        use std::collections::BinaryHeap;

        enum HeapEntry<T> {
            Node(NodeId),
            Item(T),
        }

        /// Min-heap item: ordered by key ascending, ties by insertion
        /// sequence (unique, so the payload is never compared).
        struct HeapItem<T> {
            key: f64,
            seq: u64,
            entry: HeapEntry<T>,
        }
        impl<T> PartialEq for HeapItem<T> {
            fn eq(&self, other: &Self) -> bool {
                self.key == other.key && self.seq == other.seq
            }
        }
        impl<T> Eq for HeapItem<T> {}
        impl<T> PartialOrd for HeapItem<T> {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl<T> Ord for HeapItem<T> {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Reversed: BinaryHeap is a max-heap, we want min-key first.
                other
                    .key
                    .total_cmp(&self.key)
                    .then(other.seq.cmp(&self.seq))
            }
        }

        let root = self.root?;
        let mut heap: BinaryHeap<HeapItem<T>> = BinaryHeap::new();
        let mut seq = 0u64;
        heap.push(HeapItem {
            key: 0.0,
            seq,
            entry: HeapEntry::Node(NodeId(root)),
        });
        while let Some(HeapItem { entry, .. }) = heap.pop() {
            match entry {
                HeapEntry::Item(t) => return Some(t),
                HeapEntry::Node(id) => {
                    for e in self.read_node(id) {
                        seq += 1;
                        let entry = match e {
                            Entry::Node { child, .. } => HeapEntry::Node(child),
                            Entry::Item { item, .. } => HeapEntry::Item(item),
                        };
                        heap.push(HeapItem {
                            key: e.mbr().mindist(q),
                            seq,
                            entry,
                        });
                    }
                }
            }
        }
        None
    }

    // -- insertion internals -------------------------------------------------

    #[inline]
    fn node(&self, id: u32) -> &Node<T> {
        &self.nodes[id as usize]
    }

    /// Node `id` for writing: copied first when another tree shares it.
    #[inline]
    fn node_mut(&mut self, id: u32) -> &mut Node<T> {
        Arc::make_mut(&mut self.nodes[id as usize])
    }

    fn push_node(&mut self, node: Node<T>) -> u32 {
        if let Some(id) = self.free.pop() {
            self.nodes[id as usize] = Arc::new(node);
            return id;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(Arc::new(node));
        id
    }

    /// Retires a node slot and returns the node it held: this tree lets
    /// go of it (another tree may still share it) and the slot becomes
    /// available for reuse by later inserts.
    fn free_node(&mut self, node_id: u32) -> Arc<Node<T>> {
        let level = self.node(node_id).level;
        self.free.push(node_id);
        std::mem::replace(
            &mut self.nodes[node_id as usize],
            Arc::new(Node::new(true, level)),
        )
    }

    /// Recursive delete; returns `true` when the entry was found and
    /// removed somewhere below `node_id`. Underfull children are dissolved
    /// into `orphans` on the way back up.
    fn delete_at(
        &mut self,
        node_id: u32,
        mbr: &Rect,
        item: &T,
        orphans: &mut Vec<(Rect, T)>,
    ) -> bool
    where
        T: PartialEq,
    {
        if self.node(node_id).is_leaf {
            let pos = {
                let node = self.node(node_id);
                node.rects
                    .iter()
                    .zip(&node.items)
                    .position(|(r, t)| r == mbr && t == item)
            };
            let Some(i) = pos else { return false };
            let node = self.node_mut(node_id);
            node.rects.swap_remove(i);
            node.items.swap_remove(i);
            return true;
        }

        let candidates: Vec<(usize, u32)> = {
            let node = self.node(node_id);
            node.rects
                .iter()
                .zip(&node.children)
                .enumerate()
                .filter(|(_, (r, _))| r.contains_rect(mbr))
                .map(|(i, (_, &c))| (i, c))
                .collect()
        };
        for (idx, child) in candidates {
            if !self.delete_at(child, mbr, item, orphans) {
                continue;
            }
            if self.node(child).len() < self.config.min_entries {
                // Dissolve the underfull child: unlink it, queue its
                // remaining items for reinsertion, recycle its slots.
                let node = self.node_mut(node_id);
                node.rects.swap_remove(idx);
                node.children.swap_remove(idx);
                self.collect_items(child, orphans);
            } else {
                self.refresh_entry(node_id, idx, child);
            }
            return true;
        }
        false
    }

    /// Moves every item stored in the subtree rooted at `node_id` into
    /// `out` and frees all of the subtree's node slots.
    fn collect_items(&mut self, node_id: u32, out: &mut Vec<(Rect, T)>) {
        let node = self.free_node(node_id);
        if node.is_leaf {
            out.extend(node.rects.iter().copied().zip(node.items.iter().copied()));
        } else {
            for &c in &node.children {
                self.collect_items(c, out);
            }
        }
    }

    /// Rewrites entry `idx` of `node_id` to its child's MBR — only when
    /// that changed, so an ancestor the edit did not grow or shrink stays
    /// shared.
    fn refresh_entry(&mut self, node_id: u32, idx: usize, child: u32) {
        let new_mbr = self.node(child).mbr();
        if self.node(node_id).rects[idx] != new_mbr {
            self.node_mut(node_id).rects[idx] = new_mbr;
        }
    }

    /// Recursive insert; returns `Some((left, right))` when `node` split.
    fn insert_at(&mut self, node_id: u32, mbr: Rect, item: T) -> Option<(u32, u32)> {
        let max = self.config.max_entries;
        if self.node(node_id).is_leaf {
            let node = self.node_mut(node_id);
            node.rects.push(mbr);
            node.items.push(item);
            if node.len() > max {
                return Some(self.split(node_id));
            }
            return None;
        }

        let child_idx = self.choose_subtree(node_id, &mbr);
        let child_id = self.node(node_id).children[child_idx];
        let split = self.insert_at(child_id, mbr, item);
        match split {
            None => {
                self.refresh_entry(node_id, child_idx, child_id);
                None
            }
            Some((left, right)) => {
                // Replace the child entry with the two split halves.
                let lm = self.node(left).mbr();
                let rm = self.node(right).mbr();
                let node = self.node_mut(node_id);
                node.rects[child_idx] = lm;
                node.children[child_idx] = left;
                node.rects.push(rm);
                node.children.push(right);
                if node.len() > max {
                    Some(self.split(node_id))
                } else {
                    None
                }
            }
        }
    }

    /// R* choose-subtree: minimum overlap enlargement for nodes whose
    /// children are leaves, minimum area enlargement otherwise; ties broken
    /// by area enlargement then area.
    fn choose_subtree(&self, node_id: u32, mbr: &Rect) -> usize {
        let node = self.node(node_id);
        let children_are_leaves = node.level == 1;
        let mut best = 0usize;
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for (i, r) in node.rects.iter().enumerate() {
            let enlarged = r.union(mbr);
            let area_enlargement = enlarged.area() - r.area();
            let key = if children_are_leaves {
                // Overlap enlargement of entry i with its siblings.
                let mut overlap_delta = 0.0;
                for (j, other) in node.rects.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    overlap_delta +=
                        enlarged.intersection(other).area() - r.intersection(other).area();
                }
                (overlap_delta, area_enlargement, r.area())
            } else {
                (area_enlargement, r.area(), 0.0)
            };
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }

    /// R* split of an overfull node; returns the two replacement node ids
    /// (the original id is reused as the left node).
    fn split(&mut self, node_id: u32) -> (u32, u32) {
        let m = self.config.min_entries;
        let total = self.node(node_id).len();
        debug_assert!(total == self.config.max_entries + 1);

        // Gather (rect, payload index) pairs; payloads are moved at the end.
        let rects: Vec<Rect> = self.node(node_id).rects.clone();
        let k = total - 2 * m + 1; // number of candidate distributions per sort

        // Choose the split axis: minimum sum of perimeters over all
        // candidate distributions of both sorts (by min and by max) on each
        // axis.
        let mut best_axis = 0usize;
        let mut best_margin = f64::INFINITY;
        let mut best_orders: Vec<Vec<usize>> = Vec::new();
        for axis in 0..2usize {
            let mut orders: Vec<Vec<usize>> = Vec::with_capacity(2);
            for by_max in [false, true] {
                let mut idx: Vec<usize> = (0..total).collect();
                idx.sort_by(|&a, &b| {
                    let (ka, kb) = if by_max {
                        match axis {
                            0 => (rects[a].max.x, rects[b].max.x),
                            _ => (rects[a].max.y, rects[b].max.y),
                        }
                    } else {
                        match axis {
                            0 => (rects[a].min.x, rects[b].min.x),
                            _ => (rects[a].min.y, rects[b].min.y),
                        }
                    };
                    ka.total_cmp(&kb)
                });
                orders.push(idx);
            }
            let mut margin = 0.0;
            for order in &orders {
                for split_at in 0..k {
                    let cut = m + split_at;
                    let left = group_mbr(&rects, &order[..cut]);
                    let right = group_mbr(&rects, &order[cut..]);
                    margin += left.perimeter() + right.perimeter();
                }
            }
            if margin < best_margin {
                best_margin = margin;
                best_axis = axis;
                best_orders = orders;
            }
        }
        let _ = best_axis;

        // Choose the distribution on the winning axis: minimum overlap,
        // ties by minimum total area.
        let mut best_cut: Option<(Vec<usize>, usize)> = None;
        let mut best_key = (f64::INFINITY, f64::INFINITY);
        for order in best_orders {
            for split_at in 0..k {
                let cut = m + split_at;
                let left = group_mbr(&rects, &order[..cut]);
                let right = group_mbr(&rects, &order[cut..]);
                let key = (left.intersection(&right).area(), left.area() + right.area());
                if key < best_key {
                    best_key = key;
                    best_cut = Some((order.clone(), cut));
                }
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "the R*-split loop evaluates at least one distribution, so best_cut is always Some"
        )]
        let (order, cut) = best_cut.expect("at least one distribution");

        // Materialize the two nodes: the left one takes the old node's
        // slot with a fresh allocation, so a shared old node is read, not
        // copied.
        let is_leaf = self.node(node_id).is_leaf;
        let level = self.node(node_id).level;
        let old = std::mem::replace(
            &mut self.nodes[node_id as usize],
            Arc::new(Node::new(is_leaf, level)),
        );
        let mut right_node = Node::new(is_leaf, level);
        {
            let left_node = self.node_mut(node_id);
            for (rank, &i) in order.iter().enumerate() {
                let target = if rank < cut {
                    &mut *left_node
                } else {
                    &mut right_node
                };
                target.rects.push(old.rects[i]);
                if is_leaf {
                    target.items.push(old.items[i]);
                } else {
                    target.children.push(old.children[i]);
                }
            }
        }
        let right_id = self.push_node(right_node);
        (node_id, right_id)
    }

    /// Checks structural invariants (parent MBRs cover children, fill
    /// bounds, level consistency). Used by tests.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let Some(root) = self.root else {
            assert_eq!(self.len, 0);
            return;
        };
        let mut count = 0usize;
        let mut stack = vec![(root, None::<Rect>)];
        while let Some((id, parent_mbr)) = stack.pop() {
            let node = self.node(id);
            if let Some(pm) = parent_mbr {
                assert!(pm.contains_rect(&node.mbr()), "parent MBR must cover child");
                // Non-root nodes respect the capacity; STR packing may
                // leave one trailing node per level below the R* minimum
                // fill, so only non-emptiness is asserted on the low side.
                assert!(
                    node.len() >= 1 && node.len() <= self.config.max_entries,
                    "node fill {} out of [1, {}]",
                    node.len(),
                    self.config.max_entries
                );
            }
            if node.is_leaf {
                assert_eq!(node.level, 0);
                count += node.len();
            } else {
                for (i, &c) in node.children.iter().enumerate() {
                    assert_eq!(
                        self.node(c).level + 1,
                        node.level,
                        "levels must decrease by one"
                    );
                    stack.push((c, Some(node.rects[i])));
                }
            }
        }
        assert_eq!(count, self.len, "item count must match");
    }
}

impl<T: Copy> Default for RTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

fn group_mbr(rects: &[Rect], idx: &[usize]) -> Rect {
    idx.iter().fold(Rect::EMPTY, |acc, &i| acc.union(&rects[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn pseudorandom(n: usize, seed: u64) -> Vec<Point> {
        let mut s = seed.max(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| p(next() * 1000.0, next() * 1000.0))
            .collect()
    }

    fn small_config() -> RTreeConfig {
        RTreeConfig::with_max_entries(4)
    }

    #[test]
    fn empty_tree() {
        let t: RTree<u32> = RTree::new();
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert!(t.root().is_none());
        assert!(t.nearest(p(0.0, 0.0)).is_none());
        assert!(t.query_rect(&Rect::EVERYTHING).is_empty());
    }

    #[test]
    fn insert_and_query() {
        let mut t = RTree::with_config(small_config());
        let pts = pseudorandom(200, 1);
        for (i, &q) in pts.iter().enumerate() {
            t.insert(Rect::from_point(q), i as u32);
        }
        t.check_invariants();
        assert_eq!(t.len(), 200);

        let query = Rect::from_corners(p(100.0, 100.0), p(400.0, 400.0));
        let mut got = t.query_rect(&query);
        got.sort_unstable();
        let mut want: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, &q)| query.contains(q))
            .map(|(i, _)| i as u32)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn bulk_load_matches_linear_scan() {
        let pts = pseudorandom(500, 7);
        let t = RTree::<u32>::bulk_load_points(&pts, small_config());
        t.check_invariants();
        assert_eq!(t.len(), 500);
        for query in [
            Rect::from_corners(p(0.0, 0.0), p(50.0, 50.0)),
            Rect::from_corners(p(500.0, 0.0), p(1000.0, 1000.0)),
            Rect::from_point(pts[17]),
        ] {
            let mut got = t.query_rect(&query);
            got.sort_unstable();
            let mut want: Vec<u32> = pts
                .iter()
                .enumerate()
                .filter(|(_, &q)| query.contains(q))
                .map(|(i, _)| i as u32)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn nearest_matches_brute_force() {
        let pts = pseudorandom(300, 13);
        let t = RTree::<u32>::bulk_load_points(&pts, small_config());
        for q in pseudorandom(40, 99) {
            let got = t.nearest(q).unwrap();
            let brute = (0..pts.len() as u32)
                .min_by(|&a, &b| {
                    pts[a as usize]
                        .distance_sq(q)
                        .total_cmp(&pts[b as usize].distance_sq(q))
                })
                .unwrap();
            assert_eq!(
                pts[got as usize].distance_sq(q),
                pts[brute as usize].distance_sq(q)
            );
        }
    }

    #[test]
    fn incremental_nearest_matches_too() {
        let pts = pseudorandom(150, 21);
        let mut t = RTree::with_config(small_config());
        for (i, &q) in pts.iter().enumerate() {
            t.insert(Rect::from_point(q), i as u32);
        }
        t.check_invariants();
        for q in pseudorandom(20, 5) {
            let got = t.nearest(q).unwrap();
            let brute = (0..pts.len() as u32)
                .min_by(|&a, &b| {
                    pts[a as usize]
                        .distance_sq(q)
                        .total_cmp(&pts[b as usize].distance_sq(q))
                })
                .unwrap();
            assert_eq!(
                pts[got as usize].distance_sq(q),
                pts[brute as usize].distance_sq(q)
            );
        }
    }

    #[test]
    fn node_access_counter() {
        let pts = pseudorandom(300, 3);
        let t = RTree::<u32>::bulk_load_points(&pts, small_config());
        t.reset_node_accesses();
        assert_eq!(t.node_accesses(), 0);
        let _ = t.query_rect(&Rect::from_corners(p(0.0, 0.0), p(10.0, 10.0)));
        let small = t.node_accesses();
        assert!(small >= 1);
        t.reset_node_accesses();
        let _ = t.query_rect(&Rect::EVERYTHING);
        let all = t.node_accesses();
        assert_eq!(all as usize, t.node_count(), "full scan touches every node");
        assert!(small < all);
    }

    #[test]
    fn height_grows_logarithmically() {
        let pts = pseudorandom(1000, 17);
        let t = RTree::<u32>::bulk_load_points(&pts, RTreeConfig::with_max_entries(10));
        t.check_invariants();
        assert!(t.height() >= 3, "1000 items at fan-out 10 needs 3+ levels");
        assert!(t.height() <= 5);
    }

    #[test]
    fn duplicate_positions_are_allowed() {
        let mut t = RTree::with_config(small_config());
        for i in 0..20u32 {
            t.insert(Rect::from_point(p(1.0, 1.0)), i);
        }
        t.check_invariants();
        let got = t.query_rect(&Rect::from_point(p(1.0, 1.0)));
        assert_eq!(got.len(), 20);
    }

    #[test]
    fn entries_expose_structure() {
        let pts = pseudorandom(100, 31);
        let t = RTree::<u32>::bulk_load_points(&pts, small_config());
        let root = t.root().unwrap();
        let mut item_count = 0usize;
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            for e in t.entries(id) {
                match e {
                    Entry::Node { mbr, child } => {
                        assert!(!mbr.is_empty());
                        stack.push(child);
                    }
                    Entry::Item { mbr, item } => {
                        assert_eq!(mbr, Rect::from_point(pts[item as usize]));
                        item_count += 1;
                    }
                }
            }
        }
        assert_eq!(item_count, 100);
    }

    #[test]
    fn delete_then_query_matches_linear_scan() {
        let pts = pseudorandom(300, 57);
        let mut t = RTree::with_config(small_config());
        for (i, &q) in pts.iter().enumerate() {
            t.insert(Rect::from_point(q), i as u32);
        }
        // Delete every third point.
        let mut alive: Vec<u32> = Vec::new();
        for (i, &q) in pts.iter().enumerate() {
            if i % 3 == 0 {
                assert!(t.delete(Rect::from_point(q), i as u32));
            } else {
                alive.push(i as u32);
            }
        }
        t.check_invariants();
        assert_eq!(t.len(), alive.len());
        let query = Rect::from_corners(p(200.0, 200.0), p(800.0, 800.0));
        let mut got = t.query_rect(&query);
        got.sort_unstable();
        let mut want: Vec<u32> = alive
            .iter()
            .copied()
            .filter(|&i| query.contains(pts[i as usize]))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn delete_missing_entry_is_a_noop() {
        let pts = pseudorandom(50, 61);
        let mut t = RTree::with_config(small_config());
        for (i, &q) in pts.iter().enumerate() {
            t.insert(Rect::from_point(q), i as u32);
        }
        assert!(!t.delete(Rect::from_point(p(-5.0, -5.0)), 0));
        assert!(!t.delete(Rect::from_point(pts[3]), 999));
        assert_eq!(t.len(), 50);
        t.check_invariants();
    }

    #[test]
    fn delete_everything_empties_the_tree() {
        let pts = pseudorandom(120, 67);
        let mut t = RTree::with_config(small_config());
        for (i, &q) in pts.iter().enumerate() {
            t.insert(Rect::from_point(q), i as u32);
        }
        for (i, &q) in pts.iter().enumerate() {
            assert!(t.delete(Rect::from_point(q), i as u32));
            t.check_invariants();
        }
        assert!(t.is_empty());
        assert!(t.root().is_none());
        // The tree is reusable after being emptied.
        t.insert(Rect::from_point(p(1.0, 2.0)), 7);
        assert_eq!(t.query_rect(&Rect::EVERYTHING), vec![7]);
        t.check_invariants();
    }

    #[test]
    fn clone_is_independent_and_resets_access_counter() {
        let pts = pseudorandom(200, 71);
        let t = RTree::<u32>::bulk_load_points(&pts, small_config());
        let _ = t.query_rect(&Rect::EVERYTHING);
        assert!(t.node_accesses() > 0);
        let mut c = t.clone();
        assert_eq!(c.node_accesses(), 0, "clone starts with a fresh counter");
        // Mutating the clone leaves the original untouched.
        assert!(c.delete(Rect::from_point(pts[0]), 0));
        c.insert(Rect::from_point(p(1.0, 1.0)), 1000);
        c.check_invariants();
        t.check_invariants();
        assert_eq!(t.len(), 200);
        assert_eq!(c.len(), 200);
        let mut orig = t.query_rect(&Rect::from_point(pts[0]));
        orig.sort_unstable();
        assert!(orig.contains(&0));
        assert!(!c.query_rect(&Rect::from_point(pts[0])).contains(&0));

        // A fresh clone shares every node; deleting and reinserting 30 %
        // of its items copies the nodes it writes and never writes
        // through one the original still holds.
        let probes = pseudorandom(40, 73);
        let windows: Vec<Rect> = probes
            .chunks(2)
            .map(|w| {
                let (a, b) = (w[0], w[1]);
                Rect::from_corners(p(a.x.min(b.x), a.y.min(b.y)), p(a.x.max(b.x), a.y.max(b.y)))
            })
            .collect();
        let answers = |t: &RTree<u32>| {
            let rects = windows.iter().map(|w| {
                let mut got = t.query_rect(w);
                got.sort_unstable();
                got
            });
            let nearest = probes.iter().map(|&q| t.nearest(q));
            (rects.collect::<Vec<_>>(), nearest.collect::<Vec<_>>())
        };
        let before = answers(&t);
        let mut c = t.clone();
        assert_eq!(c.shared_nodes(&t), t.node_count());
        for (i, &q) in pts.iter().enumerate().filter(|(i, _)| i % 10 < 3) {
            assert!(c.delete(Rect::from_point(q), i as u32));
        }
        for (i, &q) in pts.iter().enumerate().filter(|(i, _)| i % 10 < 3) {
            c.insert(Rect::from_point(q), i as u32);
        }
        c.check_invariants();
        t.check_invariants();
        assert_eq!(answers(&t), before, "the original answers as before");
        assert!(c.shared_nodes(&t) < t.node_count());
    }

    /// Property test: pseudorandom interleavings of insert / delete /
    /// reinsert uphold the structural invariants, and the mutated tree is
    /// query-equivalent to a fresh STR bulk load of the surviving points.
    #[test]
    fn interleaved_mutations_match_fresh_bulk_load() {
        for seed in [5u64, 19, 43, 101] {
            let mut s = seed;
            let mut next = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            let mut rnd = move || (next() >> 11) as f64 / (1u64 << 53) as f64;

            let mut t = RTree::with_config(small_config());
            // (point, payload) pairs currently stored in the tree.
            let mut live: Vec<(Point, u32)> = Vec::new();
            let mut next_id = 0u32;
            for step in 0..600usize {
                let roll = rnd();
                if roll < 0.55 || live.len() < 4 {
                    let q = p(rnd() * 1000.0, rnd() * 1000.0);
                    t.insert(Rect::from_point(q), next_id);
                    live.push((q, next_id));
                    next_id += 1;
                } else if roll < 0.85 {
                    let victim = (rnd() * live.len() as f64) as usize % live.len();
                    let (q, id) = live.swap_remove(victim);
                    assert!(t.delete(Rect::from_point(q), id));
                } else {
                    // Reinsert: delete an entry and immediately add it back.
                    let victim = (rnd() * live.len() as f64) as usize % live.len();
                    let (q, id) = live[victim];
                    assert!(t.delete(Rect::from_point(q), id));
                    t.insert(Rect::from_point(q), id);
                }
                if step % 97 == 0 {
                    t.check_invariants();
                }
            }
            t.check_invariants();
            assert_eq!(t.len(), live.len());

            let fresh = RTree::bulk_load_with_config(
                live.iter()
                    .map(|&(q, id)| (Rect::from_point(q), id))
                    .collect(),
                small_config(),
            );
            fresh.check_invariants();
            let mut s2 = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
            let mut next2 = move || {
                s2 ^= s2 << 13;
                s2 ^= s2 >> 7;
                s2 ^= s2 << 17;
                (s2 >> 11) as f64 / (1u64 << 53) as f64
            };
            for _ in 0..40 {
                let a = p(next2() * 1000.0, next2() * 1000.0);
                let b = p(next2() * 1000.0, next2() * 1000.0);
                let query = Rect::from_corners(
                    p(a.x.min(b.x), a.y.min(b.y)),
                    p(a.x.max(b.x), a.y.max(b.y)),
                );
                let mut got = t.query_rect(&query);
                got.sort_unstable();
                let mut want = fresh.query_rect(&query);
                want.sort_unstable();
                assert_eq!(got, want, "mutated tree must agree with fresh bulk load");
                let probe = p(next2() * 1000.0, next2() * 1000.0);
                let got_n = t.nearest(probe);
                let want_n = fresh.nearest(probe);
                match (got_n, want_n) {
                    (Some(g), Some(w)) => {
                        let dg = live.iter().find(|&&(_, id)| id == g).unwrap().0;
                        let dw = live.iter().find(|&&(_, id)| id == w).unwrap().0;
                        assert_eq!(dg.distance_sq(probe), dw.distance_sq(probe));
                    }
                    (g, w) => assert_eq!(g.is_none(), w.is_none()),
                }
            }
        }
    }

    #[test]
    fn freed_slots_are_reused() {
        let pts = pseudorandom(200, 83);
        let mut t = RTree::with_config(small_config());
        for (i, &q) in pts.iter().enumerate() {
            t.insert(Rect::from_point(q), i as u32);
        }
        let before = t.node_count();
        // Churn: repeatedly delete and reinsert the same window of points.
        for _round in 0..20 {
            for (i, &q) in pts.iter().enumerate().take(60) {
                assert!(t.delete(Rect::from_point(q), i as u32));
            }
            for (i, &q) in pts.iter().enumerate().take(60) {
                t.insert(Rect::from_point(q), i as u32);
            }
        }
        t.check_invariants();
        assert!(
            t.node_count() <= before + before / 2 + 8,
            "arena must not grow unboundedly under churn: {} -> {}",
            before,
            t.node_count()
        );
    }

    #[test]
    fn paper_default_fanout() {
        assert_eq!(RTreeConfig::default().max_entries, 50);
        let pts = pseudorandom(5000, 41);
        let t = RTree::<u32>::bulk_load_points(&pts, RTreeConfig::default());
        t.check_invariants();
        assert_eq!(t.len(), 5000);
    }
}
