//! The traced pass: a single-threaded, depth-1 replay of the first requests
//! of a workload's own stream that walks the served-query pipeline stage
//! by stage through the layers' public functions, recording a span around
//! each call, then sends the same request down every full path. The spans
//! stay in memory until the pass ends.
//!
//! Every traced run measures every layer, on the dataset and the query
//! sets of the workload it was asked for: `direct-full` never touches
//! `ssq-net` end to end, but its traced pass still reports what a loopback
//! round trip of its requests costs, so that a layer's numbers can be read
//! on each workload's inputs.

use crate::inputs::{self, Pacer, QuerySets};
use crate::report::Metric;
use crate::spec::{
    Kind, Workload, CHURN_PERIOD, PER_LAYER, SESSIONS_PER_CLIENT, SHARDS,
    TRACE_REQUESTS_PER_SECOND, WORKERS,
};
use crate::stats;
use crate::workloads::{self, engine_config, produce, shard_config, warm_keys, Window};
use ssq_core::{
    b2s2_kernel, vs2_kernel, ContinuousSkyline, DistanceScratch, QueryContext, QueryKey,
    QueryStats, RTreeIndex, UpdateOutcome, VoronoiIndex,
};
use ssq_engine::{
    Algorithm, ContextCache, DiagramConfig, Engine, EngineConfig, Planner, QueryRequest,
    QueryResponse, ServedBy, Snapshot,
};
use ssq_geom::simd::{self, Lane4, LANES};
use ssq_geom::{monotone_chain_into, HullScratch, Point};
use ssq_net::wire::{self, FrameBuffer, WireResult};
use ssq_net::{Client, Frame, Server, ServerConfig};
use ssq_shard::merge::merge_candidates_with;
use ssq_shard::{dominates_rect, partition, rect_lower_bounds, PartitionPolicy, ShardedEngine};
use std::hint::black_box;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queries per `submit_batch` of the batch metric.
const ENGINE_BATCH: usize = 32;
/// Queries per `query_batch` / `Client::batch` of the batch metrics.
const ROUTED_BATCH: usize = 8;
/// Batches each batch metric averages over.
const BATCH_ROUNDS: usize = 8;
/// Round trips behind `net.ping_rtt_us`.
const PINGS: usize = 200;
/// Delta batches behind the ingest and apply-delta metrics.
const DELTA_BATCHES: usize = 8;
/// Shapes the diagram probe warms and queries.
const DIAGRAM_SHAPES: usize = 64;
/// Data points per `fill_rows` / `resolve` leaf measurement.
const LEAF_ROWS: usize = 4096;
/// Iterations of the tile-kernel leaf measurements.
const TILE_ITERATIONS: u32 = 200_000;

/// One recorded call: which request it served, which span caused it, when
/// it ran, and the cost counters at that boundary when the layer has any.
struct Span {
    request: u32,
    name: &'static str,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
    stats: Option<QueryStats>,
}

/// A span that has started: its id (for children to name as parent) and
/// its start.
struct Open {
    id: Option<u32>,
    started: Instant,
}

/// The in-memory span log. With `recording` off every call still runs and
/// is still timed but nothing is stored, which is what the tracing
/// overhead is measured against.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    recording: bool,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            recording: true,
        }
    }

    fn open(&mut self, request: u32, name: &'static str, parent: Option<u32>) -> Open {
        let id = self.recording.then(|| {
            self.spans.push(Span {
                request,
                name,
                parent,
                start_ns: 0,
                end_ns: 0,
                stats: None,
            });
            (self.spans.len() - 1) as u32
        });
        Open {
            id,
            started: Instant::now(),
        }
    }

    /// Ends a span, returning its duration in nanoseconds.
    fn close(&mut self, open: Open, stats: Option<QueryStats>) -> u64 {
        let ended = Instant::now();
        if let Some(id) = open.id {
            let span = &mut self.spans[id as usize];
            span.start_ns = (open.started - self.origin).as_nanos() as u64;
            span.end_ns = (ended - self.origin).as_nanos() as u64;
            span.stats = stats;
        }
        (ended - open.started).as_nanos() as u64
    }

    /// Runs `f` inside a span of its own.
    fn time<T>(
        &mut self,
        request: u32,
        name: &'static str,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let open = self.open(request, name, parent);
        let out = f();
        (out, self.close(open, None))
    }

    /// Mean duration of the spans called `name`, nanoseconds.
    fn mean_ns(&self, name: &str) -> f64 {
        let durations: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        stats::mean(&durations)
    }

    /// Writes one JSON object per span.
    fn write(&self, path: &PathBuf) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\": {id}, \"request\": {}, \"name\": \"{}\", \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}",
                s.request,
                s.name,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns
            )?;
            if let Some(c) = &s.stats {
                write!(
                    out,
                    ", \"dominance_checks\": {}, \"distance_computations\": {}, \"node_accesses\": {}, \"points_examined\": {}, \"entries_visited\": {}, \"allocations\": {}",
                    c.dominance_checks,
                    c.distance_computations,
                    c.node_accesses,
                    c.points_examined,
                    c.entries_visited,
                    c.allocations
                )?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}

/// Where span files go: `benchmark/` under the cargo target directory.
fn span_file(workload: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"));
    target
        .join("benchmark")
        .join(format!("trace-{workload}.jsonl"))
}

/// What the traced pass reports.
pub struct Traced {
    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Answers compared with the oracle.
    pub attempted: u64,
    /// Answers that differed.
    pub failed: u64,
    /// The span file written.
    pub span_file: PathBuf,
}

/// The per-layer numbers being collected, by metric name.
#[derive(Default)]
struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.0 == name), "{name} undeclared");
        self.0.push((name, value));
    }

    /// The metrics in declaration order; an error names any that the pass
    /// failed to produce.
    fn into_metrics(self) -> Result<Vec<Metric>, String> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                self.0
                    .iter()
                    .find(|m| m.0 == name)
                    .map(|m| Metric {
                        name,
                        value: m.1,
                        unit,
                    })
                    .ok_or_else(|| format!("the traced pass did not produce {name}"))
            })
            .collect()
    }
}

/// Answers compared and answers wrong.
#[derive(Default)]
struct Checked {
    attempted: u64,
    failed: u64,
}

impl Checked {
    fn expect(&mut self, correct: bool) {
        self.attempted += 1;
        self.failed += u64::from(!correct);
    }
}

/// One request's paired measurements, for the metrics that are
/// differences or ratios within a request.
struct Replayed {
    chosen_ns: u64,
    best_ns: u64,
    engine_ns: u64,
    service_ns: u64,
    shard_ns: u64,
    wire_ns: u64,
}

/// The systems a traced pass drives, all over one snapshot.
struct Stack {
    snapshot: Arc<Snapshot>,
    /// An engine with the diagram off.
    plain_engine: Engine,
    /// An engine with the diagram on, warm-started with the probe shapes.
    diagram_engine: Engine,
    /// Whether the workload's own engine runs the diagram.
    diagram: bool,
    fleet: ShardedEngine,
    server: Server,
    client: Client,
    /// Shard rectangles, ids and R-trees, for the staged routing walk.
    shards: Vec<(ssq_geom::Rect, Vec<u32>, RTreeIndex)>,
}

impl Stack {
    /// The in-process engine configured as the workload's own.
    fn engine(&self) -> &Engine {
        if self.diagram {
            &self.diagram_engine
        } else {
            &self.plain_engine
        }
    }
}

/// Runs the traced pass of `w`.
pub fn run(w: &Workload, seed: u64, seconds: u64) -> Result<Traced, String> {
    let requests = TRACE_REQUESTS_PER_SECOND * seconds as usize;
    let mut layers = Layers::default();
    let mut tracer = Tracer::new();
    let mut checked = Checked::default();

    // ---- build every layer, each build a span under the snapshot build.
    let points = inputs::dataset(w.points, seed);
    let build = tracer.open(0, "engine.snapshot_build", None);
    let (rtree, bulk_load_ns) =
        tracer.time(0, "rtree.bulk_load", build.id, || RTreeIndex::new(&points));
    let (voronoi, delaunay_ns) =
        tracer.time(0, "delaunay.build", build.id, || VoronoiIndex::new(&points));
    let voronoi = voronoi.map_err(|e| e.to_string())?;
    let snapshot = Arc::new(Snapshot::from_indexes(
        0,
        Arc::new(rtree),
        Arc::new(voronoi),
    ));
    let snapshot_ns = tracer.close(build, None);
    layers.set("rtree.bulk_load_s", bulk_load_ns as f64 / 1e9);
    layers.set("delaunay.build_s", delaunay_ns as f64 / 1e9);
    layers.set("engine.snapshot_build_s", snapshot_ns as f64 / 1e9);

    let oracle_started = Instant::now();
    let sets = workloads::oracle(w, seed, &snapshot)?;
    layers.set("harness.oracle_s", oracle_started.elapsed().as_secs_f64());

    let stream = request_stream(w, seed, &sets, requests);
    let shapes = diagram_shapes(&sets);
    let mut stack = build_stack(w, &points, &snapshot, &shapes, &mut tracer, &mut layers)?;

    // ---- the replay.
    let replayed = replay(
        &mut stack,
        &stream,
        &sets,
        &mut tracer,
        &mut checked,
        &mut layers,
    )?;
    layers.set("harness.samples", replayed.len() as f64);
    paired_metrics(&replayed, &mut layers);
    span_means(&tracer, &mut layers);

    // ---- measurements beside the replay.
    diagram_probe(
        &stack.diagram_engine,
        &shapes,
        &snapshot,
        &mut checked,
        &mut layers,
    );
    batches(&mut stack, &stream, &sets, &mut checked, &mut layers)?;
    pings(&mut stack.client, &mut layers)?;
    deltas(w, seed, &snapshot, &mut layers)?;
    sessions(w, seed, &sets, &stack, requests, &mut checked, &mut layers)?;
    leaf_kernels(&stream, &snapshot, &mut layers);
    layers.set(
        "harness.trace_overhead_frac",
        trace_overhead(stack.engine(), &stream, &mut tracer),
    );

    let net = stack.server.net_counters();
    layers.set("net.shed_requests", net.shed_requests as f64);
    layers.set("net.frame_errors", net.frame_errors as f64);
    if net.frame_errors > 0 {
        return Err(format!("{} frame errors on the wire", net.frame_errors));
    }

    let Stack {
        plain_engine,
        diagram_engine,
        fleet,
        server,
        client,
        ..
    } = stack;
    // A failed goodbye only means the server closes the connection itself.
    let _ = client.goodbye();
    server.shutdown();
    fleet.shutdown();
    plain_engine.shutdown();
    diagram_engine.shutdown();

    let span_file = span_file(w.name);
    tracer.write(&span_file).map_err(|e| e.to_string())?;
    Ok(Traced {
        metrics: layers.into_metrics()?,
        attempted: checked.attempted,
        failed: checked.failed,
        span_file,
    })
}

/// The first `n` requests of the workload's own stream: client 0's picks,
/// or for `moving` the positions of its sessions after each update, taken
/// round-robin. Each comes with its oracle answer when one is known.
fn request_stream(
    w: &Workload,
    seed: u64,
    sets: &QuerySets,
    n: usize,
) -> Vec<(Vec<Point>, Option<usize>)> {
    if w.kind != Kind::Moving {
        return inputs::request_order(sets, seed, 0, n)
            .into_iter()
            .map(|i| (sets.sets[i].clone(), Some(i)))
            .collect();
    }
    let mut motions: Vec<_> = sets
        .drawn_as
        .iter()
        .map(|&j| Pacer::new(&w.shape, seed, j))
        .collect();
    (0..n)
        .map(|k| {
            let motion = &mut motions[k % sets.len()];
            motion.next_update();
            (motion.positions().to_vec(), None)
        })
        .collect()
}

/// The shapes the diagram probe warms: the first three points of each of
/// the first [`DIAGRAM_SHAPES`] sets (the diagram materializes at most
/// three anchors), snapped to the cache quantum so that the key stands
/// for exactly the points queried. For `wire-hot` these are its own hot
/// shapes.
fn diagram_shapes(sets: &QuerySets) -> Vec<Vec<Point>> {
    let limit = DiagramConfig::default().max_anchors;
    sets.sets
        .iter()
        .take(DIAGRAM_SHAPES)
        .map(|q| q.iter().take(limit).map(|&p| inputs::snap(p)).collect())
        .collect()
}

fn build_stack(
    w: &Workload,
    points: &[Point],
    snapshot: &Arc<Snapshot>,
    shapes: &[Vec<Point>],
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<Stack, String> {
    let with_diagram = EngineConfig::default()
        .with_workers(WORKERS)
        .with_diagram(DiagramConfig::default());
    let start = |config: &EngineConfig| {
        Engine::with_snapshot(Arc::clone(snapshot), config.clone()).map_err(|e| e.to_string())
    };
    let keys = warm_keys(shapes, &with_diagram);

    let diagram_engine = start(&with_diagram)?;
    let (warmed, warm_ns) = tracer.time(0, "engine.warm_start", None, || {
        diagram_engine.warm_start(&keys)
    });
    warmed.map_err(|e| e.to_string())?;
    layers.set("engine.warm_start_s", warm_ns as f64 / 1e9);

    let plain_engine = start(&EngineConfig::default().with_workers(WORKERS))?;
    let served = start(&engine_config(w))?;
    if w.diagram {
        served.warm_start(&keys).map_err(|e| e.to_string())?;
    }
    let server =
        Server::serve("127.0.0.1:0", served, ServerConfig::default()).map_err(|e| e.to_string())?;
    let client = Client::connect(&server.local_addr().to_string()).map_err(|e| e.to_string())?;

    let (fleet, fleet_ns) = tracer.time(0, "shard.fleet_build", None, || {
        ShardedEngine::new(points, shard_config())
    });
    layers.set("shard.fleet_build_s", fleet_ns as f64 / 1e9);
    let (specs, partition_ns) = tracer.time(0, "shard.partition", None, || {
        partition(points, SHARDS, PartitionPolicy::Grid)
    });
    layers.set("shard.partition_ms", partition_ns as f64 / 1e6);
    let shards = specs
        .into_iter()
        .map(|spec| {
            let rtree = RTreeIndex::new(&spec.points);
            (spec.rect, spec.ids, rtree)
        })
        .collect();

    Ok(Stack {
        snapshot: Arc::clone(snapshot),
        plain_engine,
        diagram_engine,
        diagram: w.diagram,
        fleet: fleet.map_err(|e| e.to_string())?,
        server,
        client,
        shards,
    })
}

/// Replays the stream: per request, the staged walk under one `staged`
/// span, then each full path as a parent-less span of the same request.
fn replay(
    stack: &mut Stack,
    stream: &[(Vec<Point>, Option<usize>)],
    sets: &QuerySets,
    tracer: &mut Tracer,
    checked: &mut Checked,
    layers: &mut Layers,
) -> Result<Vec<Replayed>, String> {
    let snapshot = Arc::clone(&stack.snapshot);
    let (rtree, voronoi) = (snapshot.rtree(), snapshot.voronoi());
    let planner = Planner::new(None);
    let cache = ContextCache::new(
        EngineConfig::default().cache_capacity,
        ContextCache::DEFAULT_QUANTUM,
    );
    let mut scratch = DistanceScratch::new();
    let mut hull = HullScratch::new();
    let mut frames = FrameBuffer::new();
    let mut bytes = Vec::new();
    let max_frame = wire::DEFAULT_MAX_FRAME_LEN;

    let mut replayed = Vec::with_capacity(stream.len());
    let mut chosen_stats = QueryStats::default();
    let (mut skyline_sizes, mut rtree_accesses, mut hops) = (0u64, 0u64, 0u64);
    let (mut hits, mut planned, mut diagram_hits, mut vs2_chosen, mut b2s2_chosen) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut fanout, mut pruned, mut routed_ns) = (0u64, 0u64, 0u64);
    let mut hop_ns = Vec::with_capacity(stream.len());
    let net_before = stack.server.net_counters();

    for (k, (q, answer)) in stream.iter().enumerate() {
        let r = k as u32;
        let staged = tracer.open(r, "staged", None);
        let at = staged.id;

        // ssq-net, inbound.
        let request_frame = Frame::Query {
            force: None,
            query: q.clone(),
        };
        bytes.clear();
        tracer
            .time(r, "net.encode_request", at, || {
                wire::encode_frame(u64::from(r), &request_frame, max_frame, &mut bytes)
            })
            .0
            .map_err(|e| e.to_string())?;
        let (decoded, _) = tracer.time(r, "net.decode_request", at, || {
            frames.extend(&bytes);
            frames.next(max_frame)
        });
        checked.expect(matches!(decoded, Ok(Some(env)) if env.frame == request_frame));

        // ssq-engine front: key, cache, plan.
        tracer.time(r, "core.key_canonical", at, || {
            black_box(QueryKey::canonical(q, ContextCache::DEFAULT_QUANTUM))
        });
        tracer.time(r, "engine.cache_probe", at, || {
            black_box(cache.get_or_build(0, q))
        });
        tracer.time(r, "geom.hull", at, || {
            black_box(monotone_chain_into(q, &mut hull).len())
        });
        let (ctx, _) = tracer.time(r, "core.context_build", at, || QueryContext::new(q));
        let (algorithm, _) = tracer.time(r, "engine.plan", at, || {
            planner.choose(snapshot.len(), &ctx)
        });

        // ssq-core on both indexes; the planner's choice is the one a
        // served query pays for.
        let open = tracer.open(r, "core.vs2", at);
        let by_vs2 = vs2_kernel(voronoi, &ctx, &mut scratch);
        let vs2_ns = tracer.close(open, Some(by_vs2.stats));
        let open = tracer.open(r, "core.b2s2", at);
        let by_b2s2 = b2s2_kernel(rtree, &ctx, &mut scratch);
        let b2s2_ns = tracer.close(open, Some(by_b2s2.stats));
        let expected = by_b2s2.skyline;
        checked.expect(by_vs2.skyline == expected);
        if let Some(i) = answer {
            checked.expect(sets.answers[*i] == expected);
        }
        let (chosen_ns, chosen) = match algorithm {
            Algorithm::Vs2 => (vs2_ns, by_vs2.stats),
            _ => (b2s2_ns, by_b2s2.stats),
        };
        chosen_stats.absorb(&chosen);
        skyline_sizes += expected.len() as u64;

        // Index entry points.
        rtree.tree().reset_node_accesses();
        tracer.time(r, "rtree.nearest", at, || {
            black_box(rtree.tree().nearest(q[0]))
        });
        rtree_accesses += rtree.tree().node_accesses();
        tracer.time(r, "delaunay.nearest", at, || {
            black_box(voronoi.nearest(q[0], 0))
        });
        hops += voronoi.graph().greedy_nearest(q[0], 0).1 as u64;

        // ssq-shard: bound every shard, answer each, merge.
        let route = tracer.open(r, "shard.route", at);
        let anchors = ctx.anchors();
        tracer.time(r, "shard.bound", route.id, || {
            let probe = rect_lower_bounds(&stack.shards[0].0, anchors);
            for (rect, _, _) in &stack.shards {
                black_box(dominates_rect(&probe, &rect_lower_bounds(rect, anchors)));
            }
        });
        let mut candidates: Vec<(u32, Point)> = Vec::new();
        for (_, ids, shard_rtree) in &stack.shards {
            let open = tracer.open(r, "shard.exec", route.id);
            let local = b2s2_kernel(shard_rtree, &ctx, &mut scratch);
            tracer.close(open, Some(local.stats));
            candidates.extend(
                local
                    .skyline
                    .iter()
                    .map(|&l| (ids[l as usize], shard_rtree.point(l))),
            );
        }
        let open = tracer.open(r, "shard.merge", route.id);
        let mut merge_stats = QueryStats::default();
        let merged = merge_candidates_with(&ctx, &candidates, &mut merge_stats, &mut scratch);
        tracer.close(open, Some(merge_stats));
        tracer.close(route, None);
        checked.expect(merged == expected);

        // ssq-net, outbound.
        let response_frame = Frame::QueryResult(WireResult {
            generation: 0,
            algorithm: algorithm.index() as u8,
            served_by: wire::SERVED_BY_PLANNER,
            skyline: expected.clone(),
        });
        bytes.clear();
        tracer
            .time(r, "net.encode_response", at, || {
                wire::encode_frame(u64::from(r), &response_frame, max_frame, &mut bytes)
            })
            .0
            .map_err(|e| e.to_string())?;
        let (decoded, _) = tracer.time(r, "net.decode_response", at, || {
            frames.extend(&bytes);
            frames.next(max_frame)
        });
        checked.expect(matches!(decoded, Ok(Some(env)) if env.frame == response_frame));
        tracer.close(staged, None);

        // The full paths.
        let (reply, engine_ns) = tracer.time(r, "full.engine", None, || {
            stack.engine().submit(QueryRequest::new(q.clone())).wait()
        });
        checked.expect(reply.skyline == expected);
        let service_ns = reply.latency.as_nanos() as u64;
        hop_ns.push(engine_ns.saturating_sub(service_ns));
        match reply.served_by {
            ServedBy::Diagram => diagram_hits += 1,
            ServedBy::Cache => {
                hits += 1;
                planned += 1;
            }
            ServedBy::Planner => planned += 1,
        }
        vs2_chosen += u64::from(reply.algorithm == Algorithm::Vs2);
        b2s2_chosen += u64::from(reply.algorithm == Algorithm::B2s2);

        let (routed, shard_ns) = tracer.time(r, "full.shard", None, || stack.fleet.query(q));
        let routed = routed.map_err(|e| e.to_string())?;
        checked.expect(routed.skyline == expected);
        fanout += routed.shards_queried as u64;
        pruned += routed.shards_pruned as u64;
        routed_ns += routed.latency.as_nanos() as u64;

        let (wired, wire_ns) = tracer.time(r, "full.wire", None, || stack.client.query(q));
        checked.expect(wired.map_err(|e| e.to_string())?.skyline == expected);

        replayed.push(Replayed {
            chosen_ns,
            best_ns: vs2_ns.min(b2s2_ns),
            engine_ns,
            service_ns,
            shard_ns,
            wire_ns,
        });
    }

    let n = stream.len().max(1) as f64;
    let net_after = stack.server.net_counters();
    layers.set(
        "net.bytes_in_per_query",
        (net_after.bytes_in - net_before.bytes_in) as f64 / n,
    );
    layers.set(
        "net.bytes_out_per_query",
        (net_after.bytes_out - net_before.bytes_out) as f64 / n,
    );
    layers.set(
        "core.exec_dominance_checks",
        chosen_stats.dominance_checks as f64 / n,
    );
    layers.set(
        "core.exec_distance_computations",
        chosen_stats.distance_computations as f64 / n,
    );
    layers.set(
        "core.exec_node_accesses",
        chosen_stats.node_accesses as f64 / n,
    );
    layers.set("core.exec_allocations", chosen_stats.allocations as f64 / n);
    layers.set("core.skyline_size", skyline_sizes as f64 / n);
    layers.set("rtree.nearest_node_accesses", rtree_accesses as f64 / n);
    layers.set("delaunay.greedy_hops", hops as f64 / n);
    layers.set("engine.hop_us", stats::median_ns(&mut hop_ns) / 1e3);
    layers.set("engine.cache_hit_frac", hits as f64 / planned.max(1) as f64);
    layers.set("engine.diagram_hit_frac", diagram_hits as f64 / n);
    layers.set("engine.algo_vs2_frac", vs2_chosen as f64 / n);
    layers.set("engine.algo_b2s2_frac", b2s2_chosen as f64 / n);
    layers.set("shard.query_us", routed_ns as f64 / n / 1e3);
    layers.set("shard.mean_fanout", fanout as f64 / n);
    layers.set(
        "shard.prune_rate",
        pruned as f64 / (fanout + pruned).max(1) as f64,
    );
    Ok(replayed)
}

/// Metrics that pair two measurements of one request.
fn paired_metrics(replayed: &[Replayed], layers: &mut Layers) {
    let sum = |f: fn(&Replayed) -> u64| replayed.iter().map(f).sum::<u64>() as f64;
    let n = replayed.len().max(1) as f64;
    layers.set("engine.service_us", sum(|r| r.service_ns) / n / 1e3);
    layers.set(
        "engine.planner_regret",
        sum(|r| r.chosen_ns) / sum(|r| r.best_ns).max(1.0),
    );
    let median_of = |f: fn(&Replayed) -> f64| {
        let mut values: Vec<f64> = replayed.iter().map(f).collect();
        stats::median(&mut values)
    };
    layers.set(
        "shard.route_overhead_us",
        median_of(|r| (r.shard_ns as f64 - r.engine_ns as f64) / 1e3),
    );
    layers.set("net.query_rtt_us", median_of(|r| r.wire_ns as f64 / 1e3));
    layers.set(
        "net.transport_us",
        median_of(|r| (r.wire_ns as f64 - r.engine_ns as f64) / 1e3),
    );
}

/// Metrics that are the mean duration of one span name.
fn span_means(tracer: &Tracer, layers: &mut Layers) {
    for (metric, span, per) in [
        ("geom.hull_ns", "geom.hull", 1.0),
        ("rtree.nearest_ns", "rtree.nearest", 1.0),
        ("delaunay.nearest_ns", "delaunay.nearest", 1.0),
        ("core.context_build_ns", "core.context_build", 1.0),
        ("core.key_canonical_ns", "core.key_canonical", 1.0),
        ("core.vs2_us", "core.vs2", 1e3),
        ("core.b2s2_us", "core.b2s2", 1e3),
        ("engine.plan_ns", "engine.plan", 1.0),
        ("shard.bound_ns", "shard.bound", 1.0),
        ("shard.merge_us", "shard.merge", 1e3),
        ("net.encode_request_ns", "net.encode_request", 1.0),
        ("net.decode_request_ns", "net.decode_request", 1.0),
        ("net.encode_response_ns", "net.encode_response", 1.0),
        ("net.decode_response_ns", "net.decode_response", 1.0),
    ] {
        layers.set(metric, tracer.mean_ns(span) / per);
    }
}

/// Queries every warmed shape a few times on the diagram engine: the
/// service time of a diagram hit.
fn diagram_probe(
    engine: &Engine,
    shapes: &[Vec<Point>],
    snapshot: &Snapshot,
    checked: &mut Checked,
    layers: &mut Layers,
) {
    let mut scratch = DistanceScratch::new();
    let mut hit_ns = Vec::new();
    for round in 0..4 {
        for q in shapes {
            let reply = engine.submit(QueryRequest::new(q.clone())).wait();
            if reply.served_by == ServedBy::Diagram {
                hit_ns.push(reply.latency.as_nanos() as f64);
            }
            if round == 0 {
                let expected = b2s2_kernel(snapshot.rtree(), &QueryContext::new(q), &mut scratch);
                checked.expect(reply.skyline == expected.skyline);
            }
        }
    }
    layers.set("engine.diagram_hit_service_ns", stats::mean(&hit_ns));
}

/// The batched entry point of each serving layer, per query.
fn batches(
    stack: &mut Stack,
    stream: &[(Vec<Point>, Option<usize>)],
    sets: &QuerySets,
    checked: &mut Checked,
    layers: &mut Layers,
) -> Result<(), String> {
    let queries = |size: usize, round: usize| -> Vec<&(Vec<Point>, Option<usize>)> {
        (0..size)
            .map(|i| &stream[(round * size + i) % stream.len()])
            .collect()
    };
    let mut check = |batch: &[&(Vec<Point>, Option<usize>)], replies: Vec<&Vec<u32>>| {
        for (request, reply) in batch.iter().zip(replies) {
            if let Some(i) = request.1 {
                checked.expect(*reply == sets.answers[i]);
            }
        }
    };
    let (mut engine_us, mut fleet_us, mut wire_us) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..BATCH_ROUNDS {
        let batch = queries(ENGINE_BATCH, round);
        let requests: Vec<QueryRequest> = batch
            .iter()
            .map(|r| QueryRequest::new(r.0.clone()))
            .collect();
        let sent = Instant::now();
        let replies: Vec<QueryResponse> = stack.engine().submit_batch(requests).wait();
        engine_us.push(sent.elapsed().as_secs_f64() * 1e6 / ENGINE_BATCH as f64);
        check(&batch, replies.iter().map(|r| &r.skyline).collect());

        let batch = queries(ROUTED_BATCH, round);
        let plain: Vec<Vec<Point>> = batch.iter().map(|r| r.0.clone()).collect();
        let sent = Instant::now();
        let replies = stack.fleet.query_batch(&plain).map_err(|e| e.to_string())?;
        fleet_us.push(sent.elapsed().as_secs_f64() * 1e6 / ROUTED_BATCH as f64);
        check(&batch, replies.iter().map(|r| &r.skyline).collect());

        let sent = Instant::now();
        let replies = stack.client.batch(&plain).map_err(|e| e.to_string())?;
        wire_us.push(sent.elapsed().as_secs_f64() * 1e6 / ROUTED_BATCH as f64);
        check(&batch, replies.iter().map(|r| &r.skyline).collect());
    }
    layers.set("engine.batch_us_per_query", stats::mean(&engine_us));
    layers.set("shard.query_batch_us_per_query", stats::mean(&fleet_us));
    layers.set("net.batch_us_per_query", stats::mean(&wire_us));
    Ok(())
}

fn pings(client: &mut Client, layers: &mut Layers) -> Result<(), String> {
    let mut rtt_ns = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let sent = Instant::now();
        client.ping().map_err(|e| e.to_string())?;
        rtt_ns.push(sent.elapsed().as_nanos() as u64);
    }
    layers.set("net.ping_rtt_us", stats::median_ns(&mut rtt_ns) / 1e3);
    Ok(())
}

/// Delta maintenance: each index's `apply_delta` on generation 0, then the
/// same batches streamed through `Engine::ingest` on the `churn`
/// producer's schedule into an engine of their own.
fn deltas(
    w: &Workload,
    seed: u64,
    snapshot: &Arc<Snapshot>,
    layers: &mut Layers,
) -> Result<(), String> {
    let batches = inputs::update_batches(seed, w.points, DELTA_BATCHES);
    let (mut rtree_ms, mut voronoi_ms) = (Vec::new(), Vec::new());
    for batch in &batches {
        let mut batch = batch.clone();
        batch.validate(snapshot.len()).map_err(|e| e.to_string())?;
        batch.normalize(&snapshot.universe());
        let started = Instant::now();
        black_box(snapshot.rtree().apply_delta(&batch));
        rtree_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let started = Instant::now();
        black_box(
            snapshot
                .voronoi()
                .apply_delta(&batch)
                .map_err(|e| e.to_string())?,
        );
        voronoi_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    layers.set("core.rtree_apply_delta_ms", stats::mean(&rtree_ms));
    layers.set("core.voronoi_apply_delta_ms", stats::mean(&voronoi_ms));

    let engine = Engine::with_snapshot(
        Arc::clone(snapshot),
        EngineConfig::default().with_workers(WORKERS),
    )
    .map_err(|e| e.to_string())?;
    let window = Window::starting_now(Duration::ZERO, CHURN_PERIOD * DELTA_BATCHES as u32);
    let produced = produce(&engine, batches, &window);
    engine.shutdown();
    if produced.failed > 0 || produced.published.is_empty() {
        return Err("a traced delta batch failed to publish".into());
    }
    let n = produced.published.len() as f64;
    let mut build_ms: Vec<f64> = produced
        .published
        .iter()
        .map(|p| p.report.build.as_secs_f64() * 1e3)
        .collect();
    let waited: f64 = produced
        .published
        .iter()
        .map(|p| p.sent_to_ack_ms - p.report.build.as_secs_f64() * 1e3)
        .sum();
    let dirty: usize = produced
        .published
        .iter()
        .map(|p| p.report.stats.dirty_cells)
        .sum();
    let incremental = produced
        .published
        .iter()
        .filter(|p| p.report.stats.incremental)
        .count();
    layers.set("engine.apply_delta_ms", stats::median(&mut build_ms));
    layers.set("engine.ingest_queue_wait_ms", waited / n);
    layers.set("engine.ingest_dirty_cells", dirty as f64 / n);
    layers.set("engine.ingest_incremental_frac", incremental as f64 / n);
    layers.set("harness.generator_late_ms", produced.late_ms);
    Ok(())
}

/// VCS² directly and through the engine's sessions, on the same motion
/// streams: the workload's own sessions for `moving`, unstratified ones
/// elsewhere.
fn sessions(
    w: &Workload,
    seed: u64,
    sets: &QuerySets,
    stack: &Stack,
    updates: usize,
    checked: &mut Checked,
    layers: &mut Layers,
) -> Result<(), String> {
    let drawn: Vec<u64> = if w.kind == Kind::Moving {
        sets.drawn_as.clone()
    } else {
        (0..SESSIONS_PER_CLIENT as u64).collect()
    };
    let shape = &crate::spec::SESSIONS;
    let motions = || drawn.iter().map(|&j| Pacer::new(shape, seed, j));
    let voronoi = stack.snapshot.voronoi();

    let mut direct: Vec<_> = motions()
        .map(|m| {
            (
                ContinuousSkyline::new(Arc::clone(voronoi), m.positions()),
                m,
            )
        })
        .collect();
    let (mut direct_ns, mut recomputed) = (0u64, 0u64);
    for k in 0..updates {
        let (sky, motion) = &mut direct[k % drawn.len()];
        let step = motion.next_update();
        let started = Instant::now();
        let (outcome, _) = sky.update(step.index, step.location);
        direct_ns += started.elapsed().as_nanos() as u64;
        recomputed += u64::from(outcome == UpdateOutcome::Recomputed);
    }
    layers.set(
        "core.vcs2_update_us",
        direct_ns as f64 / updates as f64 / 1e3,
    );
    layers.set(
        "core.vcs2_recompute_frac",
        recomputed as f64 / updates as f64,
    );

    let mut served: Vec<_> = motions()
        .map(|m| (stack.engine().open_session(m.positions()), m))
        .collect();
    let mut served_ns = 0u64;
    for k in 0..updates {
        let (id, motion) = &mut served[k % drawn.len()];
        let step = motion.next_update();
        let started = Instant::now();
        stack
            .engine()
            .update_session(*id, step.index, step.location)
            .map_err(|e| e.to_string())?
            .wait();
        served_ns += started.elapsed().as_nanos() as u64;
    }
    layers.set(
        "engine.session_update_us",
        served_ns as f64 / updates as f64 / 1e3,
    );

    let mut scratch = DistanceScratch::new();
    for ((sky, motion), (id, _)) in direct.iter().zip(&served) {
        let ctx = QueryContext::new(motion.positions());
        let expected = vs2_kernel(voronoi, &ctx, &mut scratch).skyline;
        checked.expect(sky.skyline() == expected);
        checked.expect(stack.engine().session_skyline(*id) == Some(expected));
        stack.engine().close_session(*id);
    }
    Ok(())
}

/// Leaf kernels, timed on inputs captured from the replayed requests: the
/// anchors of each request against a fixed slice of the data.
fn leaf_kernels(stream: &[(Vec<Point>, Option<usize>)], snapshot: &Snapshot, layers: &mut Layers) {
    let rows = &snapshot.points()[..LEAF_ROWS.min(snapshot.len())];
    let contexts: Vec<QueryContext> = stream
        .iter()
        .take(64)
        .map(|(q, _)| QueryContext::new(q))
        .collect();
    let mut scratch = DistanceScratch::new();
    let mut counters = QueryStats::default();
    let (mut fill_ns, mut resolve_ns) = (0u64, 0u64);
    for ctx in &contexts {
        scratch.begin(ctx.anchors().len());
        let started = Instant::now();
        scratch.fill_rows(rows, ctx.anchors());
        fill_ns += started.elapsed().as_nanos() as u64;
        let started = Instant::now();
        black_box(scratch.resolve(&mut counters).len());
        resolve_ns += started.elapsed().as_nanos() as u64;
    }
    let total_rows = (contexts.len() * rows.len()) as f64;
    layers.set("core.fill_rows_ns_per_point", fill_ns as f64 / total_rows);
    layers.set("core.resolve_ns_per_row", resolve_ns as f64 / total_rows);

    // One four-point tile at the stream's mean anchor width.
    let width = (contexts.iter().map(|c| c.anchors().len()).sum::<usize>() as f64
        / contexts.len() as f64)
        .round() as usize;
    let anchors: Vec<Point> = contexts
        .iter()
        .flat_map(|c| c.anchors().iter().copied())
        .take(width)
        .collect();
    let tile_points: [Point; LANES] = std::array::from_fn(|l| rows[l % rows.len()]);
    let dispatch = simd::dispatch();
    let mut tile = vec![Lane4::PAD; anchors.len()];
    let mut keys = [0.0; LANES];
    let started = Instant::now();
    for _ in 0..TILE_ITERATIONS {
        dispatch.fill_tile(
            black_box(&tile_points),
            black_box(&anchors),
            &mut tile,
            &mut keys,
        );
        black_box(&mut tile);
    }
    layers.set(
        "geom.fill_tile_ns",
        started.elapsed().as_nanos() as f64 / f64::from(TILE_ITERATIONS),
    );
    let candidate: Vec<f64> = tile.iter().map(|lane| lane.0[0] * 1.5).collect();
    let started = Instant::now();
    for _ in 0..TILE_ITERATIONS {
        black_box(dispatch.dominators_of(black_box(&candidate), black_box(&tile)));
    }
    layers.set(
        "geom.dominance_tile_ns",
        started.elapsed().as_nanos() as f64 / f64::from(TILE_ITERATIONS),
    );

    // The context cache from both sides: a generation of its own per
    // request makes the first probe a miss and the second a hit.
    let cache = ContextCache::new(
        EngineConfig::default().cache_capacity,
        ContextCache::DEFAULT_QUANTUM,
    );
    let (mut miss_ns, mut hit_ns) = (0u64, 0u64);
    for (generation, (q, _)) in stream.iter().enumerate() {
        let started = Instant::now();
        black_box(cache.get_or_build(generation as u64, q));
        miss_ns += started.elapsed().as_nanos() as u64;
        let started = Instant::now();
        black_box(cache.get_or_build(generation as u64, q));
        hit_ns += started.elapsed().as_nanos() as u64;
    }
    let n = stream.len().max(1) as f64;
    layers.set("engine.cache_probe_miss_ns", miss_ns as f64 / n);
    layers.set("engine.cache_probe_hit_ns", hit_ns as f64 / n);
}

/// `1 − traced ÷ untraced` operations per second of the same
/// single-threaded replay through the engine: what recording a span
/// around a request costs.
fn trace_overhead(
    engine: &Engine,
    stream: &[(Vec<Point>, Option<usize>)],
    tracer: &mut Tracer,
) -> f64 {
    let pass = |tracer: &mut Tracer, recording: bool| {
        tracer.recording = recording;
        let started = Instant::now();
        for (k, (q, _)) in stream.iter().enumerate() {
            tracer.time(k as u32, "overhead.engine", None, || {
                black_box(engine.submit(QueryRequest::new(q.clone())).wait())
            });
        }
        started.elapsed().as_secs_f64()
    };
    // Alternating passes, so that neither side always runs on the warmer
    // caches.
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    for _ in 0..2 {
        untraced_s += pass(tracer, false);
        traced_s += pass(tracer, true);
    }
    1.0 - untraced_s / traced_s
}
