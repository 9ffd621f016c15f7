//! The interprocedural rules (R6, R8), each a traversal over the
//! [`CallGraph`]:
//!
//! * [`alloc`] — `deny-alloc-transitive`: allocation-freedom
//!   propagates from `// ssq-analyze: deny-alloc` roots through every
//!   reachable callee.
//! * [`lockrank`] — `lock-rank-static`: the §12.2 rank table is
//!   extracted from `RankedMutex::new` sites and every statically
//!   reachable out-of-order acquisition is flagged.
//!
//! Each rule returns `(file index, Violation)` pairs; the workspace
//! driver merges them with the local scans and applies the shared
//! allow-directive suppression before reporting.

pub mod alloc;
pub mod lockrank;

use crate::callgraph::{CallGraph, Unit};
use crate::rules::{LocalScan, Violation};

/// Shared input to every interprocedural rule. The two slices are
/// parallel: `scans[i]` describes `units[i]`.
pub struct Ctx<'a> {
    /// All analyzed files.
    pub units: &'a [Unit],
    /// Local scan results per file (for `deny-alloc` root regions).
    pub scans: &'a [LocalScan],
    /// The resolved workspace call graph.
    pub graph: &'a CallGraph,
}

/// A violation attributed to a file by index.
pub type FileViolation = (usize, Violation);
