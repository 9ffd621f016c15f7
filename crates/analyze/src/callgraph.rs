//! The workspace call graph: conservative resolution of
//! [`CallSite`](crate::parser::CallSite)s to
//! [`FnItem`](crate::parser::FnItem)s across files.
//!
//! Resolution is name-based (the analyzer has no type information) and
//! deliberately over-approximates: a call that *might* target a fn
//! produces an edge, so the reachability-based rules
//! (`deny-alloc-transitive`, `lock-rank-static`) can miss nothing the
//! resolver can see.
//! Precision comes from three restrictions that keep the
//! over-approximation honest rather than useless:
//!
//! * **crate visibility** — an edge from crate A into crate B exists
//!   only when A depends (transitively) on B, per the workspace
//!   `Cargo.toml` dependency graph;
//! * **plain-call locality** — a bare `helper()` call prefers same-file
//!   candidates, then same-crate, before falling back to every visible
//!   free fn of that name;
//! * **path qualifiers** — `kernel::dominates(..)` only matches free
//!   fns in a module/file named `kernel` or methods of a type named
//!   `kernel`; `Self::drain()` only matches the caller's own impl type;
//! * **receiver anchoring** — `self.m(..)` only matches methods of the
//!   caller's own impl type; `field.m(..)` whose receiver ident is a
//!   declared struct field of the caller's crate only matches methods
//!   of the field's declared type (wrapper layers like `Option`/`Arc`/
//!   `RankedMutex` peeled, so guard and deref calls land on the
//!   payload); `field.lock().m(..)` only matches methods of the mutex
//!   payload type. Receivers the parser cannot classify (locals,
//!   parameters, longer chains) keep the full name-based fan-out.
//!
//! Test fns (`#[test]`, `#[cfg(test)] mod` bodies) and files under
//! `tests/`, `benches/`, or `examples/` never become graph nodes: the
//! invariants are about library serving paths, and test scaffolding
//! allocates and locks however it likes. DESIGN.md §12.4 documents the remaining blind
//! spots (closures passed as values, trait-object dispatch, macros).

use std::collections::HashMap;

use crate::lexer::Lexed;
use crate::parser::{CallKind, ParsedFile, Recv};

/// `(crate, field name)` → declared `(outer, payload)` type pairs, for
/// receiver-anchored method resolution. Multiple structs in a crate may
/// share a field name; resolution unions their types.
type FieldIndex = HashMap<(String, String), Vec<(String, String)>>;

/// `(caller node, local name)` → type names, for locals bound as
/// `let x = call();` from a call whose callees' return types are known.
type LocalIndex = HashMap<(usize, String), Vec<String>>;

/// One analyzed file: the inputs the graph builder and the rules share.
#[derive(Debug)]
pub struct Unit {
    /// Repo-relative path with `/` separators.
    pub path: String,
    /// The crate the file belongs to (`engine`, `geom`, … from
    /// `crates/<name>/…`; the root package for `src/`, `tests/`, …).
    pub crate_name: String,
    /// `false` for test/bench/example files: they are still scanned by
    /// local rules but never become call-graph nodes.
    pub indexable: bool,
    /// The token stream (rules re-scan fn bodies through this).
    pub lexed: Lexed,
    /// Parsed items.
    pub parsed: ParsedFile,
}

/// Crate-level visibility derived from the workspace dependency graph.
///
/// Empty means "no dependency information": every edge is allowed
/// (used by fixture tests, which analyze loose files).
#[derive(Debug, Default)]
pub struct DepGraph {
    visible: HashMap<String, Vec<String>>,
}

impl DepGraph {
    /// Builds the transitive closure from direct dependency lists:
    /// `deps[crate] = direct deps by crate name`.
    pub fn from_direct(deps: &HashMap<String, Vec<String>>) -> DepGraph {
        let mut visible = HashMap::new();
        for name in deps.keys() {
            let mut seen = vec![name.clone()];
            let mut stack = vec![name.clone()];
            while let Some(current) = stack.pop() {
                for dep in deps.get(&current).into_iter().flatten() {
                    if !seen.contains(dep) {
                        seen.push(dep.clone());
                        stack.push(dep.clone());
                    }
                }
            }
            visible.insert(name.clone(), seen);
        }
        DepGraph { visible }
    }

    /// `true` when code in `caller` may call items of `callee`.
    /// Unknown crates (or an empty graph) are conservatively visible.
    pub fn allows(&self, caller: &str, callee: &str) -> bool {
        if caller == callee || self.visible.is_empty() {
            return true;
        }
        match self.visible.get(caller) {
            Some(seen) => seen.iter().any(|c| c == callee),
            None => true,
        }
    }
}

/// A node reference: `units[file].parsed.fns[item]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FnRef {
    /// Index into the unit slice.
    pub file: usize,
    /// Index into that unit's `parsed.fns`.
    pub item: usize,
}

/// An outgoing call edge.
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    /// Index into the *caller's* `parsed.calls`.
    pub call: usize,
    /// The resolved callee node.
    pub callee: usize,
}

/// The resolved workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All indexed (non-test, library) fns.
    pub nodes: Vec<FnRef>,
    /// Outgoing edges per node, parallel to [`CallGraph::nodes`].
    pub edges: Vec<Vec<Edge>>,
    node_of: HashMap<FnRef, usize>,
}

impl CallGraph {
    /// Builds the graph over every indexable unit.
    pub fn build(units: &[Unit], deps: &DepGraph) -> CallGraph {
        let mut graph = CallGraph::default();

        // Node set: non-test fns with bodies in indexable files.
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (file, unit) in units.iter().enumerate() {
            if !unit.indexable {
                continue;
            }
            for (item, f) in unit.parsed.fns.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                let fref = FnRef { file, item };
                let id = graph.nodes.len();
                graph.nodes.push(fref);
                graph.node_of.insert(fref, id);
                by_name.entry(f.name.as_str()).or_default().push(id);
            }
        }
        graph.edges = vec![Vec::new(); graph.nodes.len()];

        // Field declarations, for receiver-anchored method resolution.
        let mut fields: FieldIndex = HashMap::new();
        for unit in units.iter().filter(|u| u.indexable) {
            for ft in &unit.parsed.field_types {
                fields
                    .entry((unit.crate_name.clone(), ft.name.clone()))
                    .or_default()
                    .push((ft.outer.clone(), ft.payload.clone()));
            }
        }

        // Pass A (run twice so a local typed from another local's call
        // converges): type `let x = call();` bindings by the callees'
        // declared return types. A candidate without a parsed return
        // type leaves the local untyped — conservative fan-out.
        let mut locals = LocalIndex::new();
        for _ in 0..2 {
            for (file, unit) in units.iter().enumerate() {
                if !unit.indexable {
                    continue;
                }
                for (call_idx, call) in unit.parsed.calls.iter().enumerate() {
                    let Some(bind) = &call.binds_local else {
                        continue;
                    };
                    let Some(item) = unit.parsed.enclosing_fn(call.tok) else {
                        continue;
                    };
                    let Some(&caller) = graph.node_of.get(&FnRef { file, item }) else {
                        continue;
                    };
                    let candidates = by_name.get(call.name.as_str()).map_or(&[][..], |v| v);
                    let resolved = resolve(
                        &graph, units, deps, &fields, &locals, caller, call_idx, candidates,
                    );
                    let mut types: Vec<String> = Vec::new();
                    let mut complete = !resolved.is_empty();
                    for c in &resolved {
                        let r = graph.nodes[*c];
                        let f = &units[r.file].parsed.fns[r.item];
                        let Some((outer, payload)) = &f.ret else {
                            complete = false;
                            break;
                        };
                        for t in [outer, payload] {
                            let t = if t == "Self" {
                                match &f.impl_type {
                                    Some(ty) => ty.clone(),
                                    None => t.clone(),
                                }
                            } else {
                                t.clone()
                            };
                            if !types.contains(&t) {
                                types.push(t);
                            }
                        }
                    }
                    if complete {
                        locals.insert((caller, bind.clone()), types);
                    }
                }
            }
        }

        // Pass B: resolve every call attributed to an indexed fn body.
        for (file, unit) in units.iter().enumerate() {
            if !unit.indexable {
                continue;
            }
            for (call_idx, call) in unit.parsed.calls.iter().enumerate() {
                let Some(item) = unit.parsed.enclosing_fn(call.tok) else {
                    continue;
                };
                let Some(&caller) = graph.node_of.get(&FnRef { file, item }) else {
                    continue; // test fn
                };
                let candidates = by_name.get(call.name.as_str()).map_or(&[][..], |v| v);
                let resolved = resolve(
                    &graph, units, deps, &fields, &locals, caller, call_idx, candidates,
                );
                for callee in resolved {
                    graph.edges[caller].push(Edge {
                        call: call_idx,
                        callee,
                    });
                }
            }
        }
        graph
    }

    /// The node id of `units[file].parsed.fns[item]`, if indexed.
    pub fn node(&self, file: usize, item: usize) -> Option<usize> {
        self.node_of.get(&FnRef { file, item }).copied()
    }

    /// Breadth-first reachability from `roots`. Returns, for every
    /// reached node, the edge it was discovered through
    /// (`None` for roots) — enough to reconstruct one call chain per
    /// finding.
    pub fn reach(&self, roots: &[usize]) -> HashMap<usize, Option<(usize, usize)>> {
        let mut parent: HashMap<usize, Option<(usize, usize)>> = HashMap::new();
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &r in roots {
            if let std::collections::hash_map::Entry::Vacant(slot) = parent.entry(r) {
                slot.insert(None);
                queue.push_back(r);
            }
        }
        while let Some(node) = queue.pop_front() {
            for edge in &self.edges[node] {
                if let std::collections::hash_map::Entry::Vacant(slot) = parent.entry(edge.callee) {
                    slot.insert(Some((node, edge.call)));
                    queue.push_back(edge.callee);
                }
            }
        }
        parent
    }

    /// Renders the discovery chain `root -> … -> node` as fn names,
    /// given the `reach` parent map.
    pub fn chain(
        &self,
        units: &[Unit],
        parents: &HashMap<usize, Option<(usize, usize)>>,
        node: usize,
    ) -> String {
        let mut names = Vec::new();
        let mut current = node;
        loop {
            let fref = self.nodes[current];
            names.push(units[fref.file].parsed.fns[fref.item].name.clone());
            match parents.get(&current) {
                Some(Some((parent, _))) => current = *parent,
                _ => break,
            }
        }
        names.reverse();
        names.join(" -> ")
    }

    /// The display name of a node (`Type::fn` or `fn`).
    pub fn name(&self, units: &[Unit], node: usize) -> String {
        let fref = self.nodes[node];
        let f = &units[fref.file].parsed.fns[fref.item];
        match &f.impl_type {
            Some(ty) => format!("{ty}::{}", f.name),
            None => f.name.clone(),
        }
    }
}

/// Resolves one call from `caller` to candidate nodes (already
/// name-filtered), applying kind/qualifier/visibility restrictions.
#[allow(clippy::too_many_arguments)]
fn resolve(
    graph: &CallGraph,
    units: &[Unit],
    deps: &DepGraph,
    fields: &FieldIndex,
    locals: &LocalIndex,
    caller: usize,
    call_idx: usize,
    candidates: &[usize],
) -> Vec<usize> {
    let caller_ref = graph.nodes[caller];
    let caller_unit = &units[caller_ref.file];
    let caller_fn = &caller_unit.parsed.fns[caller_ref.item];
    let call = &caller_unit.parsed.calls[call_idx];

    let visible: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&c| {
            c != caller
                && deps.allows(
                    &caller_unit.crate_name,
                    &units[graph.nodes[c].file].crate_name,
                )
        })
        .collect();

    let is_free = |c: usize| {
        let r = graph.nodes[c];
        units[r.file].parsed.fns[r.item].impl_type.is_none()
    };
    let is_method = |c: usize| !is_free(c);

    match call.kind {
        CallKind::Method => {
            let methods: Vec<usize> = visible.into_iter().filter(|&c| is_method(c)).collect();
            let impl_type_of = |c: usize| {
                let r = graph.nodes[c];
                units[r.file].parsed.fns[r.item].impl_type.as_deref()
            };
            let of_types = |types: &[&str]| -> Vec<usize> {
                methods
                    .iter()
                    .copied()
                    .filter(|&c| impl_type_of(c).is_some_and(|ty| types.contains(&ty)))
                    .collect()
            };
            let field_entry =
                |name: &str| fields.get(&(caller_unit.crate_name.clone(), name.to_string()));
            match &call.recv {
                // `self.m(..)`: the receiver type is the caller's own.
                Recv::SelfRecv if caller_fn.impl_type.is_some() => methods
                    .iter()
                    .copied()
                    .filter(|&c| {
                        let r = graph.nodes[c];
                        units[r.file].parsed.fns[r.item].impl_type == caller_fn.impl_type
                            && units[r.file].crate_name == caller_unit.crate_name
                    })
                    .collect(),
                // `name.m(..)` where `name` is a return-typed local of
                // this fn, or a declared field of some struct in the
                // caller's crate: methods of the known type (or its
                // wrapper payload — guards and derefs pass method calls
                // through). Locals shadow fields, as in Rust scoping.
                Recv::Ident(name) => {
                    if let Some(types) = locals.get(&(caller, name.clone())) {
                        let types: Vec<&str> = types.iter().map(String::as_str).collect();
                        of_types(&types)
                    } else if let Some(entries) = field_entry(name) {
                        let types: Vec<&str> = entries
                            .iter()
                            .flat_map(|(outer, payload)| [outer.as_str(), payload.as_str()])
                            .collect();
                        of_types(&types)
                    } else {
                        methods
                    }
                }
                // `field.lock().m(..)`: the guard derefs to the mutex
                // payload; the wrapper type itself is not a receiver.
                Recv::LockChain(name) => match field_entry(name) {
                    Some(entries) => {
                        let types: Vec<&str> = entries
                            .iter()
                            .map(|(_, payload)| payload.as_str())
                            .collect();
                        of_types(&types)
                    }
                    None => methods,
                },
                _ => methods,
            }
        }
        CallKind::Plain => {
            let free: Vec<usize> = visible.into_iter().filter(|&c| is_free(c)).collect();
            // Locality ladder: same file, then same crate, then all.
            let same_file: Vec<usize> = free
                .iter()
                .copied()
                .filter(|&c| graph.nodes[c].file == caller_ref.file)
                .collect();
            if !same_file.is_empty() {
                return same_file;
            }
            let same_crate: Vec<usize> = free
                .iter()
                .copied()
                .filter(|&c| units[graph.nodes[c].file].crate_name == caller_unit.crate_name)
                .collect();
            if !same_crate.is_empty() {
                return same_crate;
            }
            free
        }
        CallKind::Path => match call.qualifier.as_deref() {
            Some("Self") => visible
                .into_iter()
                .filter(|&c| {
                    let r = graph.nodes[c];
                    units[r.file].parsed.fns[r.item].impl_type == caller_fn.impl_type
                        && units[r.file].crate_name == caller_unit.crate_name
                })
                .collect(),
            // `crate::helper(..)` / `self::helper(..)` / `super::..`:
            // path-to-a-free-fn with no type information — treat like a
            // plain call restricted to the caller's crate.
            Some("crate") | Some("self") | Some("super") | None => visible
                .into_iter()
                .filter(|&c| {
                    is_free(c) && units[graph.nodes[c].file].crate_name == caller_unit.crate_name
                })
                .collect(),
            Some(qualifier) => visible
                .into_iter()
                .filter(|&c| {
                    let r = graph.nodes[c];
                    let f = &units[r.file].parsed.fns[r.item];
                    match &f.impl_type {
                        // `Type::assoc(..)`.
                        Some(ty) => ty == qualifier,
                        // `module::free_fn(..)`: the defining file's
                        // stem or an enclosing in-file `mod` must match.
                        None => {
                            f.modules.iter().any(|m| m == qualifier)
                                || file_stem(&units[r.file].path) == qualifier
                        }
                    }
                })
                .collect(),
        },
    }
}

/// `crates/geom/src/simd.rs` → `simd`.
fn file_stem(path: &str) -> &str {
    path.rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".rs")
}

/// Classifies a repo-relative path into `(crate_name, indexable)`.
pub fn classify_path(path: &str) -> (String, bool) {
    let p = path.replace('\\', "/");
    let indexable = !(p.contains("/tests/")
        || p.starts_with("tests/")
        || p.contains("/benches/")
        || p.contains("/examples/")
        || p.starts_with("examples/"));
    let crate_name = p
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("spatial-skyline")
        .to_string();
    (crate_name, indexable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn unit(path: &str, src: &str) -> Unit {
        let lexed = lex(src).expect("fixture lexes");
        let parsed = parse(&lexed);
        let (crate_name, indexable) = classify_path(path);
        Unit {
            path: path.to_string(),
            crate_name,
            indexable,
            lexed,
            parsed,
        }
    }

    fn edge_names(graph: &CallGraph, units: &[Unit], from: &str) -> Vec<String> {
        let from_id = (0..graph.nodes.len())
            .find(|&n| graph.name(units, n).ends_with(from))
            .expect("caller exists");
        graph.edges[from_id]
            .iter()
            .map(|e| graph.name(units, e.callee))
            .collect()
    }

    #[test]
    fn plain_calls_prefer_same_file_then_same_crate() {
        let units = vec![
            unit(
                "crates/a/src/lib.rs",
                "fn caller() { helper(); }\nfn helper() {}",
            ),
            unit("crates/b/src/lib.rs", "fn helper() {}"),
        ];
        let graph = CallGraph::build(&units, &DepGraph::default());
        assert_eq!(edge_names(&graph, &units, "caller"), ["helper"]);
        let callee = graph.edges[graph.node(0, 0).expect("node")][0].callee;
        assert_eq!(graph.nodes[callee].file, 0, "same-file helper wins");
    }

    #[test]
    fn method_calls_fan_out_to_visible_impls_only() {
        let mut deps = HashMap::new();
        deps.insert("a".to_string(), vec!["b".to_string()]);
        deps.insert("b".to_string(), vec![]);
        deps.insert("c".to_string(), vec![]);
        let units = vec![
            unit("crates/a/src/lib.rs", "fn caller(x: &X) { x.resolve(); }"),
            unit("crates/b/src/lib.rs", "impl X { pub fn resolve(&self) {} }"),
            unit("crates/c/src/lib.rs", "impl Y { pub fn resolve(&self) {} }"),
        ];
        let graph = CallGraph::build(&units, &DepGraph::from_direct(&deps));
        // crate c is not a dependency of a: its `resolve` is invisible.
        assert_eq!(edge_names(&graph, &units, "caller"), ["X::resolve"]);
    }

    #[test]
    fn path_calls_match_modules_file_stems_and_types() {
        let units = vec![
            unit(
                "crates/a/src/lib.rs",
                "fn caller() { kernel::dominates(); Point::new(); }",
            ),
            unit("crates/a/src/kernel.rs", "pub fn dominates() {}"),
            unit(
                "crates/a/src/point.rs",
                "impl Point { pub fn new() {} }\npub fn dominates() {}",
            ),
        ];
        let graph = CallGraph::build(&units, &DepGraph::default());
        let names = edge_names(&graph, &units, "caller");
        assert!(names.contains(&"dominates".to_string()));
        assert!(names.contains(&"Point::new".to_string()));
        // point.rs's free `dominates` must not match `kernel::`.
        assert_eq!(names.len(), 2, "{names:?}");
    }

    #[test]
    fn test_fns_and_test_files_are_not_nodes() {
        let units = vec![
            unit(
                "crates/a/src/lib.rs",
                "pub fn real() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { real(); }\n}",
            ),
            unit("crates/a/tests/integration.rs", "fn helper() {}"),
        ];
        let graph = CallGraph::build(&units, &DepGraph::default());
        assert_eq!(graph.nodes.len(), 1);
        assert_eq!(graph.name(&units, 0), "real");
    }

    #[test]
    fn reach_produces_shortest_chains() {
        let units = vec![unit(
            "crates/a/src/lib.rs",
            "pub fn entry() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}",
        )];
        let graph = CallGraph::build(&units, &DepGraph::default());
        let entry = graph.node(0, 0).expect("entry");
        let leaf = graph.node(0, 2).expect("leaf");
        let parents = graph.reach(&[entry]);
        assert!(parents.contains_key(&leaf));
        assert_eq!(graph.chain(&units, &parents, leaf), "entry -> mid -> leaf");
    }
}
