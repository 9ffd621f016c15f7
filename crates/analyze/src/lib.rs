//! `ssq-analyze`: repo-invariant static analysis for the
//! spatial-skyline workspace.
//!
//! A std-only, dependency-free lint pass for the conventions rustc and
//! clippy cannot express. The panic, `unsafe`, shared-state and SIMD
//! dispatch rules live in the compiler (`DESIGN.md` §12.1 has the
//! table); what stays here are the rules that need a workspace call
//! graph or a repo-specific annotation. Two local rules scan one token
//! stream at a time:
//!
//! | rule | what it enforces |
//! |------|------------------|
//! | `float-cmp` | no `partial_cmp(..).unwrap()/.expect(..)` — use `total_cmp` |
//! | `deny-alloc` | no allocating calls in functions annotated `// ssq-analyze: deny-alloc` |
//!
//! Two interprocedural rules then walk a workspace-wide call graph
//! ([`parser`] recovers items, [`callgraph`] resolves calls) so the
//! invariants hold *transitively*, not just in the annotated file:
//!
//! | rule | what it proves |
//! |------|----------------|
//! | `deny-alloc-transitive` | no allocation reachable from a `deny-alloc` kernel root |
//! | `lock-rank-static` | the §12.2 `RankedMutex` rank table admits no statically reachable out-of-order acquisition |
//!
//! Suppress a finding with `// ssq-analyze: allow(<rule>): <reason>`
//! on the offending line or the line above; the reason is mandatory,
//! and `--audit-suppressions` lists directives that no longer match
//! anything.
//!
//! The binary (`cargo run -p ssq-analyze`) walks the workspace and
//! exits 0 when clean, 1 on violations, 2 on an internal error
//! (unreadable file, unlexable source). `--json <path>` writes the
//! machine-readable report. See `DESIGN.md` §12.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::all)]

pub mod callgraph;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod workspace;

pub use rules::{analyze_source, Rule, Violation};
pub use workspace::{analyze_files, dep_graph_from_manifests, SourceFile, WorkspaceReport};
