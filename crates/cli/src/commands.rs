//! The `ssq` subcommands.
//!
//! ```text
//! ssq generate --n 10000 --out points.csv [--seed 42] [--uniform]
//! ssq info     --data points.csv
//! ssq query    --data points.csv --query "x1,y1;x2,y2;..."
//!              [--algorithm naive|bbs|b2s2|vs2] [--mixed] [--top K]
//! ssq render   --data points.csv --query "..." --out picture.svg [--voronoi]
//! ssq continuous --data points.csv --count 5 --updates 500 [--step 0.01]
//! ssq shard-stats --data points.csv --shards N [--policy grid|kd]
//!                [--queries 200] [--count 5] [--area 0.001] [--seed 7]
//!                [--ingest-batches 0] [--ops N]
//! ssq warm     --data points.csv --out hot.warm [--distinct 16]
//!                [--count 3] [--area 0.001] [--seed 7] [--repeats 3]
//!                [--limit 256]
//! ssq serve    --data points.csv [--addr 127.0.0.1:0] [--threads 0]
//!                [--shards N] [--policy grid|kd] [--window 64]
//!                [--max-conn 256] [--algorithm naive|bbs|b2s2|vs2]
//!                [--diagram] [--warm hot.warm]
//! ssq net-throughput --addr host:port [--connections 4] [--pipeline 16]
//!                [--requests 1000] [--batch 0] [--distinct 16]
//!                [--count 5] [--area 0.001] [--seed 7]
//!                [--algorithm naive|bbs|b2s2|vs2]
//! ```
//!
//! `query` prints one result row per skyline point:
//! `index,x,y,dist_to_q1,dist_to_q2,...`, followed by a `# stats` comment
//! with the cost counters. With `--mixed`, attribute columns in the data
//! file join the dominance (minimize semantics). With `--top K`, results
//! come ranked by total distance and the search stops after `K`.

use std::any::Any;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::num::{ParseFloatError, ParseIntError};
use std::path::PathBuf;
use std::str::FromStr;

use ssq_core::mixed::{mixed_b2s2, MixedContext};
use ssq_core::ranked::{b2s2_ranked, WeightedSum};
use ssq_core::{
    b2s2, bbs, naive_sorted, vs2, QueryContext, RTreeIndex, SkylineResult, VoronoiIndex,
};
use ssq_geom::{convex_hull, Rect};
use ssq_workload::usgs::{synthetic_usgs_points, uniform_points, UsgsConfig};

use crate::csv;

/// Errors surfaced to the user with exit code 1.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Usage(String),
    /// File I/O failure.
    Io(std::io::Error),
    /// CSV parse failure.
    Csv(csv::CsvError),
    /// Anything else (index construction, etc.).
    Other(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}\n\n{USAGE}"),
            CliError::Io(e) => write!(f, "I/O error: {e}"),
            CliError::Csv(e) => write!(f, "CSV error: {e}"),
            CliError::Other(m) => write!(f, "{m}"),
        }
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<csv::CsvError> for CliError {
    fn from(e: csv::CsvError) -> Self {
        CliError::Csv(e)
    }
}

/// The help text.
pub const USAGE: &str = "\
ssq — spatial skyline queries (Sharifzadeh & Shahabi, VLDB 2006)

USAGE:
  ssq generate --n <count> --out <file.csv> [--seed <u64>] [--uniform]
  ssq info     --data <file.csv>
  ssq query    --data <file.csv> --query \"x1,y1;x2,y2;...\"
               [--algorithm naive|bbs|b2s2|vs2] [--mixed] [--top <k>]
  ssq render   --data <file.csv> --query \"...\" --out <picture.svg>
               [--voronoi]
  ssq continuous --data <file.csv> --count <movers> --updates <n>
               [--step <frac>] [--seed <u64>]
  ssq shard-stats --data <file.csv> --shards <n> [--policy grid|kd]
               [--queries <n>] [--count <pts/set>] [--area <frac>]
               [--seed <u64>] [--ingest-batches <n>] [--ops <n/batch>]
  ssq warm     --data <file.csv> --out <file.warm> [--distinct <sets>]
               [--count <pts/set>] [--area <frac>] [--seed <u64>]
               [--repeats <n>] [--limit <keys>]
  ssq serve    --data <file.csv> [--addr <host:port>] [--threads <n>]
               [--shards <n>] [--policy grid|kd] [--window <n>]
               [--max-conn <n>] [--algorithm naive|bbs|b2s2|vs2]
               [--diagram] [--warm <file.warm>]
  ssq net-throughput --addr <host:port> [--connections <n>]
               [--pipeline <depth>] [--requests <n>] [--batch <n>]
               [--distinct <sets>] [--count <pts/set>] [--area <frac>]
               [--seed <u64>] [--algorithm naive|bbs|b2s2|vs2]

A data CSV has rows `x,y[,attr1,attr2,...]`; attribute columns are used
only with --mixed (minimize semantics). Query points are separated by
semicolons. `shard-stats` partitions the data into a ShardedEngine — one
engine per spatial shard with dominance-based shard pruning — optionally
applies `--ingest-batches` randomized delta batches first (publish cost
shows up in the ingest counters), runs a probe workload, and reports
per-shard sizes and rects, then every counter the fleet owns as
`ssq_<group>_<name> <value>` lines (router, engine, lifecycle, work,
diagram, ingest) with the derived fan-out, prune and hit rates. `warm`
drives a probe workload through a diagram-enabled engine and saves the hottest
canonical query keys to a warm file; `serve --warm <file>` loads it,
pre-builds those contexts and admits their skyline-diagram cells *before*
accepting traffic, so a restarted server has no cold-cache latency spike
(`--diagram` enables the diagram without a warm file). `serve` binds a
TCP socket (ephemeral port with `:0`, printed as `listening on <addr>`;
`--threads 0` means one worker per CPU core) and speaks the ssq-net
binary protocol — pipelined queries, batches, continuous sessions
(single engine only), stats — until stdin closes, then drains in-flight
work and reports the same counter lines plus the `net` group
(connections, shedding, bytes, frame errors). `net-throughput` is the
matching load generator: `--connections` clients each keep `--pipeline`
requests in flight against a running `serve`, counting results and typed
RetryLater shedding, then prints the server's counters from a final
Stats frame.";

/// Entry point: parses `args` (without the program name) and runs.
pub fn run<W: Write>(args: &[String], out: &mut W) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("generate") => generate(&args[1..], out),
        Some("info") => info(&args[1..], out),
        Some("query") => query(&args[1..], out),
        Some("render") => render_cmd(&args[1..], out),
        Some("continuous") => continuous(&args[1..], out),
        Some("shard-stats") => shard_stats(&args[1..], out),
        Some("warm") => warm_cmd(&args[1..], out),
        Some("serve") => {
            let stdin = std::io::stdin();
            let mut control = stdin.lock();
            serve_with_control(&args[1..], out, &mut control)
        }
        Some("net-throughput") => net_throughput(&args[1..], out),
        Some("--help") | Some("-h") | Some("help") => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        Some(other) => Err(CliError::Usage(format!("unknown command '{other}'"))),
        None => Err(CliError::Usage("no command given".into())),
    }
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The value of flag `name` parsed as a `T`, `None` when the flag is
/// absent. A value that does not parse is a usage error naming the flag:
/// "--x must be an integer" or "--x must be a number" for numeric flags,
/// the type's own message after "--x: " otherwise.
fn parsed_flag<T>(args: &[String], name: &str) -> Result<Option<T>, CliError>
where
    T: FromStr,
    T::Err: std::fmt::Display + 'static,
{
    let Some(value) = flag_value(args, name) else {
        return Ok(None);
    };
    value.parse().map(Some).map_err(|e: T::Err| {
        let kind: &dyn Any = &e;
        CliError::Usage(if kind.is::<ParseIntError>() {
            format!("{name} must be an integer")
        } else if kind.is::<ParseFloatError>() {
            format!("{name} must be a number")
        } else {
            format!("{name}: {e}")
        })
    })
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn generate<W: Write>(args: &[String], out: &mut W) -> Result<(), CliError> {
    let n: usize =
        parsed_flag(args, "--n")?.ok_or_else(|| CliError::Usage("generate needs --n".into()))?;
    let path = PathBuf::from(
        flag_value(args, "--out").ok_or_else(|| CliError::Usage("generate needs --out".into()))?,
    );
    let seed: u64 = parsed_flag(args, "--seed")?.unwrap_or(0x5567_5347);

    let points = if has_flag(args, "--uniform") {
        uniform_points(n, seed)
    } else {
        synthetic_usgs_points(&UsgsConfig {
            n,
            seed,
            ..UsgsConfig::default()
        })
    };
    let f = BufWriter::new(File::create(&path)?);
    csv::write_points(f, &points, None)?;
    writeln!(out, "wrote {} points to {}", points.len(), path.display())?;
    Ok(())
}

fn info<W: Write>(args: &[String], out: &mut W) -> Result<(), CliError> {
    let path = PathBuf::from(
        flag_value(args, "--data").ok_or_else(|| CliError::Usage("info needs --data".into()))?,
    );
    let table = csv::read_points(BufReader::new(File::open(&path)?))?;
    let mbr = Rect::bounding(table.points.iter().copied());
    let hull = convex_hull(&table.points);
    writeln!(out, "file:        {}", path.display())?;
    writeln!(out, "points:      {}", table.points.len())?;
    writeln!(
        out,
        "attributes:  {}",
        table.attrs.first().map_or(0, Vec::len)
    )?;
    if !table.points.is_empty() {
        writeln!(
            out,
            "mbr:         ({}, {}) .. ({}, {})",
            mbr.min.x, mbr.min.y, mbr.max.x, mbr.max.y
        )?;
        writeln!(out, "hull size:   {} vertices", hull.len())?;
    }
    Ok(())
}

fn query<W: Write>(args: &[String], out: &mut W) -> Result<(), CliError> {
    let path = PathBuf::from(
        flag_value(args, "--data").ok_or_else(|| CliError::Usage("query needs --data".into()))?,
    );
    let qspec = flag_value(args, "--query")
        .ok_or_else(|| CliError::Usage("query needs --query \"x,y;x,y;...\"".into()))?;
    let algorithm = flag_value(args, "--algorithm").unwrap_or_else(|| "b2s2".into());
    let mixed = has_flag(args, "--mixed");
    let top: Option<usize> = parsed_flag(args, "--top")?;

    let table = csv::read_points(BufReader::new(File::open(&path)?))?;
    if table.points.is_empty() {
        return Err(CliError::Other("data file has no points".into()));
    }
    let q = csv::parse_query_points(&qspec)?;
    if q.is_empty() {
        return Err(CliError::Usage("need at least one query point".into()));
    }
    let ctx = QueryContext::new(&q);

    let result: SkylineResult = if mixed {
        if table.attrs.first().map_or(0, Vec::len) == 0 {
            return Err(CliError::Other(
                "--mixed requires attribute columns in the data file".into(),
            ));
        }
        let index = RTreeIndex::new(&table.points);
        let mctx = MixedContext::new(&table.points, &table.attrs, &ctx);
        mixed_b2s2(&index, &mctx)
    } else if let Some(k) = top {
        let index = RTreeIndex::new(&table.points);
        b2s2_ranked(&index, &ctx, k, &WeightedSum::uniform())
    } else {
        match algorithm.as_str() {
            "naive" => naive_sorted(&table.points, &ctx),
            "bbs" => {
                let index = RTreeIndex::new(&table.points);
                bbs(&index, &ctx)
            }
            "b2s2" => {
                let index = RTreeIndex::new(&table.points);
                b2s2(&index, &ctx)
            }
            "vs2" => {
                let index = VoronoiIndex::new(&table.points)
                    .map_err(|e| CliError::Other(format!("cannot build Voronoi index: {e}")))?;
                vs2(&index, &ctx)
            }
            other => {
                return Err(CliError::Usage(format!(
                    "unknown --algorithm '{other}' (naive|bbs|b2s2|vs2)"
                )))
            }
        }
    };

    for &i in &result.skyline {
        let p = table.points[i as usize];
        write!(out, "{},{},{}", i, p.x, p.y)?;
        for &qp in &q {
            write!(out, ",{:.6}", qp.distance(p))?;
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "# stats: skyline={} dominance_checks={} node_accesses={} examined={}",
        result.skyline.len(),
        result.stats.dominance_checks,
        result.stats.node_accesses,
        result.stats.points_examined
    )?;
    Ok(())
}

fn continuous<W: Write>(args: &[String], out: &mut W) -> Result<(), CliError> {
    use ssq_core::ContinuousSkyline;
    use ssq_workload::motion::{MotionConfig, MovingQuerySet};

    let data = PathBuf::from(
        flag_value(args, "--data")
            .ok_or_else(|| CliError::Usage("continuous needs --data".into()))?,
    );
    let count: usize = parsed_flag(args, "--count")?
        .ok_or_else(|| CliError::Usage("continuous needs --count".into()))?;
    let updates: usize = parsed_flag(args, "--updates")?
        .ok_or_else(|| CliError::Usage("continuous needs --updates".into()))?;
    let step: f64 = parsed_flag(args, "--step")?.unwrap_or(0.01);
    let seed: u64 = parsed_flag(args, "--seed")?.unwrap_or(0xC027);

    let table = csv::read_points(BufReader::new(File::open(&data)?))?;
    if table.points.len() < 3 {
        return Err(CliError::Other("need at least 3 data points".into()));
    }
    let universe = Rect::bounding(table.points.iter().copied());
    let index = VoronoiIndex::new(&table.points)
        .map_err(|e| CliError::Other(format!("cannot build Voronoi index: {e}")))?;
    let mut team = MovingQuerySet::new(MotionConfig {
        count,
        step,
        universe,
        start_box: 0.05,
        seed,
    });
    let mut cont = ContinuousSkyline::new(&index, team.positions());
    writeln!(out, "initial skyline: {} points", cont.skyline().len())?;
    let t0 = std::time::Instant::now();
    for _ in 0..updates {
        let up = team.next_update();
        cont.update(up.index, up.location);
    }
    let dt = t0.elapsed().as_secs_f64();
    let c = cont.counts();
    writeln!(
        out,
        "processed {} updates in {:.3}s ({:.1} updates/ms)",
        c.total(),
        dt,
        c.total() as f64 / (dt * 1e3)
    )?;
    writeln!(out, "  hull unchanged (I, free):    {}", c.unchanged)?;
    writeln!(out, "  simple change (II-V, VS²):   {}", c.incremental)?;
    writeln!(out, "  complex change (VS²):        {}", c.recomputed)?;
    writeln!(out, "final skyline: {} points", cont.skyline().len())?;
    Ok(())
}

/// A randomized update batch over a generation of `n` points: `ops`
/// operations, `insert_ratio` of them inserts placed uniformly in
/// `universe`, the rest deletes of distinct random current ids.
fn synth_batch(
    n: usize,
    universe: &Rect,
    ops: usize,
    insert_ratio: f64,
    rng: &mut ssq_workload::rng::Xoshiro256,
) -> ssq_core::UpdateBatch {
    use ssq_geom::Point;
    let n_ins = ((ops as f64) * insert_ratio).round() as usize;
    // Never drain the dataset: an index needs at least one point.
    let n_del = (ops - n_ins).min(n.saturating_sub(1));
    let mut deletes = std::collections::HashSet::with_capacity(n_del);
    while deletes.len() < n_del {
        deletes.insert(rng.range_usize(n) as u32);
    }
    ssq_core::UpdateBatch {
        inserts: (0..n_ins)
            .map(|_| {
                Point::new(
                    rng.range_f64(universe.min.x, universe.max.x),
                    rng.range_f64(universe.min.y, universe.max.y),
                )
            })
            .collect(),
        deletes: deletes.into_iter().collect(),
    }
}

fn shard_stats<W: Write>(args: &[String], out: &mut W) -> Result<(), CliError> {
    use ssq_shard::{ShardConfig, ShardedEngine};
    use ssq_workload::{random_query_set, QueryConfig};

    let data = PathBuf::from(
        flag_value(args, "--data")
            .ok_or_else(|| CliError::Usage("shard-stats needs --data".into()))?,
    );
    let shards: usize = parsed_flag(args, "--shards")?
        .ok_or_else(|| CliError::Usage("shard-stats needs --shards".into()))?;
    let policy: ssq_shard::PartitionPolicy =
        parsed_flag(args, "--policy")?.unwrap_or(ssq_shard::PartitionPolicy::Grid);
    let queries: usize = parsed_flag(args, "--queries")?.unwrap_or(200);
    let count: usize = parsed_flag(args, "--count")?.unwrap_or(5);
    let area: f64 = parsed_flag(args, "--area")?.unwrap_or(0.001);
    let seed: u64 = parsed_flag(args, "--seed")?.unwrap_or(7);
    let ingest_batches: usize = parsed_flag(args, "--ingest-batches")?.unwrap_or(0);
    if shards == 0 || count == 0 {
        return Err(CliError::Usage(
            "--shards and --count must be nonzero".into(),
        ));
    }

    let table = csv::read_points(BufReader::new(File::open(&data)?))?;
    if table.points.is_empty() {
        return Err(CliError::Other("data file has no points".into()));
    }
    let universe = Rect::bounding(table.points.iter().copied());
    let config = ShardConfig::default()
        .with_shards(shards)
        .with_policy(policy);
    let engine = ShardedEngine::new(&table.points, config)
        .map_err(|e| CliError::Other(format!("cannot start sharded engine: {e}")))?;

    writeln!(
        out,
        "dataset:    {} points ({}), {} policy",
        table.points.len(),
        data.display(),
        policy
    )?;
    writeln!(
        out,
        "shards:     {} (target {})",
        engine.shard_count(),
        shards
    )?;
    for info in engine.shard_infos() {
        writeln!(
            out,
            "  shard {:>3}: {:>8} points  rect ({:.4}, {:.4}) .. ({:.4}, {:.4})",
            info.index,
            info.len,
            info.rect.min.x,
            info.rect.min.y,
            info.rect.max.x,
            info.rect.max.y
        )?;
    }

    // Optional delta-ingest probe: stream randomized batches through the
    // fleet first so the ingest counters below show real publish costs.
    if ingest_batches > 0 {
        let ops: usize =
            parsed_flag(args, "--ops")?.unwrap_or_else(|| (table.points.len() / 200).max(1));
        let mut rng = ssq_workload::rng::Xoshiro256::seed_from_u64(seed ^ 0x1965);
        for round in 0..ingest_batches {
            // Net shrinking (top ids move into the holes) and net growing
            // in turn, so a pair leaves the size where it was.
            let insert_ratio = if round % 2 == 0 { 1.0 / 3.0 } else { 2.0 / 3.0 };
            let infos = engine.shard_infos();
            let footprint = infos.iter().fold(Rect::EMPTY, |r, i| r.union(&i.rect));
            let batch = synth_batch(engine.data_len(), &footprint, ops, insert_ratio, &mut rng);
            engine
                .ingest(&batch)
                .map_err(|e| CliError::Other(format!("ingest batch failed: {e}")))?;
        }
    }

    // Probe workload: small-MBR query sets placed uniformly, so some
    // land in corners and exercise the pruning bound.
    for i in 0..queries {
        let q = random_query_set(&QueryConfig {
            count,
            mbr_area_fraction: area,
            universe,
            seed: seed.wrapping_add(0x9E37).wrapping_add(i as u64),
        });
        engine
            .query(&q)
            .map_err(|e| CliError::Other(format!("probe query failed: {e}")))?;
    }
    let m = engine.metrics();
    writeln!(out, "probe:      {queries} queries ({count} points each)")?;
    writeln!(out, "kernel:     {} tile dispatch", m.engines.kernel_path)?;
    let split: Vec<String> = m
        .engines
        .queries_per_generation
        .iter()
        .map(|(g, n)| format!("gen{g}={n}"))
        .collect();
    writeln!(out, "queries/gen: {}", split.join(" "))?;
    // A local fleet has no socket front-end: every group but `net`.
    out.write_all(m.counters.render(&["net"]).as_bytes())?;
    engine.shutdown();
    Ok(())
}

/// `ssq warm`: probe a diagram-enabled engine with a repeated-query
/// workload, then save its hottest canonical keys as a warm file for
/// `ssq serve --warm`.
fn warm_cmd<W: Write>(args: &[String], out: &mut W) -> Result<(), CliError> {
    use ssq_engine::{save_warm_keys, DiagramConfig, Engine, EngineConfig, QueryRequest};
    use ssq_workload::{random_query_set, QueryConfig};

    let data = PathBuf::from(
        flag_value(args, "--data").ok_or_else(|| CliError::Usage("warm needs --data".into()))?,
    );
    let out_path = PathBuf::from(
        flag_value(args, "--out").ok_or_else(|| CliError::Usage("warm needs --out".into()))?,
    );
    let distinct: usize = parsed_flag(args, "--distinct")?.unwrap_or(16);
    let diagram = DiagramConfig::default();
    // Default to the largest anchor count the diagram materializes:
    // bigger shapes would never become diagram cells.
    let count: usize = parsed_flag(args, "--count")?.unwrap_or(diagram.max_anchors);
    let area: f64 = parsed_flag(args, "--area")?.unwrap_or(0.001);
    let seed: u64 = parsed_flag(args, "--seed")?.unwrap_or(7);
    let repeats: usize = parsed_flag(args, "--repeats")?.unwrap_or(3);
    let limit: usize = parsed_flag(args, "--limit")?.unwrap_or(256);
    if distinct == 0 || count == 0 || repeats == 0 || limit == 0 {
        return Err(CliError::Usage(
            "--distinct, --count, --repeats, and --limit must be nonzero".into(),
        ));
    }
    if count > diagram.max_anchors {
        writeln!(
            out,
            "note: --count {} exceeds the diagram's max anchors ({}); \
             such shapes never materialize as cells",
            count, diagram.max_anchors
        )?;
    }

    let table = csv::read_points(BufReader::new(File::open(&data)?))?;
    if table.points.is_empty() {
        return Err(CliError::Other("data file has no points".into()));
    }
    let universe = Rect::bounding(table.points.iter().copied());
    let config = EngineConfig::default().with_diagram(diagram);
    let quantum = config.cache_quantum;
    let engine = Engine::new(&table.points, config)
        .map_err(|e| CliError::Other(format!("cannot start engine: {e}")))?;
    for i in 0..distinct {
        let q = random_query_set(&QueryConfig {
            count,
            mbr_area_fraction: area,
            universe,
            seed: seed.wrapping_add(0x9E37).wrapping_add(i as u64),
        });
        for _ in 0..repeats {
            engine.submit(QueryRequest::new(q.clone())).wait();
        }
    }
    let keys = engine.hot_keys(limit);
    save_warm_keys(&out_path, quantum, &keys)?;
    writeln!(
        out,
        "probed:     {} queries over {} shapes ({} points each)",
        distinct * repeats,
        distinct,
        count
    )?;
    writeln!(
        out,
        "saved:      {} hot keys to {}",
        keys.len(),
        out_path.display()
    )?;
    engine.shutdown();
    Ok(())
}

/// `ssq serve`, with the lifetime tied to `control`: the server runs
/// until `control` reaches EOF (stdin closing, for the real binary),
/// then drains and reports. Split out so tests can drive the control
/// channel without a real stdin.
pub fn serve_with_control<W: Write>(
    args: &[String],
    out: &mut W,
    control: &mut dyn std::io::Read,
) -> Result<(), CliError> {
    use ssq_engine::{load_warm_keys, Algorithm, DiagramConfig, Engine, EngineConfig};
    use ssq_net::Server;
    use ssq_shard::{ShardConfig, ShardedEngine};

    let data = PathBuf::from(
        flag_value(args, "--data").ok_or_else(|| CliError::Usage("serve needs --data".into()))?,
    );
    let addr = flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:0".into());
    let threads: usize = parsed_flag(args, "--threads")?.unwrap_or(0);
    let shards: usize = parsed_flag(args, "--shards")?.unwrap_or(0);
    let policy: ssq_shard::PartitionPolicy =
        parsed_flag(args, "--policy")?.unwrap_or(ssq_shard::PartitionPolicy::Grid);
    let forced: Option<Algorithm> = parsed_flag(args, "--algorithm")?;
    let warm_file: Option<PathBuf> = flag_value(args, "--warm").map(PathBuf::from);
    let diagram = has_flag(args, "--diagram") || warm_file.is_some();
    let mut server_config = ssq_net::ServerConfig::default();
    if let Some(window) = parsed_flag(args, "--window")? {
        server_config.per_client_window = window;
    }
    if let Some(cap) = parsed_flag(args, "--max-conn")? {
        server_config.max_connections = cap;
    }

    let table = csv::read_points(BufReader::new(File::open(&data)?))?;
    if table.points.is_empty() {
        return Err(CliError::Other("data file has no points".into()));
    }
    let mut engine_config = EngineConfig::default();
    if threads > 0 {
        engine_config.workers = threads;
    }
    engine_config.forced_algorithm = forced;
    if diagram {
        engine_config.diagram = Some(DiagramConfig::default());
    }

    // Load and seed the warm file *before* the listener binds, so the
    // first request a client can reach already hits warm cells.
    let warm_keys = match &warm_file {
        Some(path) => Some(
            load_warm_keys(path)
                .map_err(|e| CliError::Other(format!("cannot load {}: {e}", path.display())))?
                .1,
        ),
        None => None,
    };
    let mut warmed = 0usize;
    let server = if shards > 0 {
        let fleet = ShardedEngine::new(
            &table.points,
            ShardConfig::default()
                .with_shards(shards)
                .with_policy(policy)
                .with_engine(engine_config.clone()),
        )
        .map_err(|e| CliError::Other(format!("cannot start sharded engine: {e}")))?;
        if let Some(keys) = &warm_keys {
            warmed = fleet
                .warm_start(keys)
                .map_err(|e| CliError::Other(format!("warm start failed: {e}")))?;
        }
        Server::serve_sharded(addr.as_str(), fleet, server_config)
            .map_err(|e| CliError::Other(format!("cannot serve: {e}")))?
    } else {
        let engine = Engine::new(&table.points, engine_config.clone())
            .map_err(|e| CliError::Other(format!("cannot start engine: {e}")))?;
        if let Some(keys) = &warm_keys {
            warmed = engine
                .warm_start(keys)
                .map_err(|e| CliError::Other(format!("warm start failed: {e}")))?;
        }
        Server::serve(addr.as_str(), engine, server_config)
            .map_err(|e| CliError::Other(format!("cannot serve: {e}")))?
    };

    // The line load generators (and the CI smoke stage) parse: flush it
    // before blocking on the control channel.
    writeln!(out, "listening on {}", server.local_addr())?;
    writeln!(
        out,
        "serving:    {} points ({}){}",
        table.points.len(),
        data.display(),
        if shards > 0 {
            format!(", {shards} shards ({policy})")
        } else {
            String::new()
        }
    )?;
    writeln!(
        out,
        "kernel:     {} tile dispatch",
        ssq_geom::simd::path_name()
    )?;
    if let Some(path) = &warm_file {
        writeln!(
            out,
            "warm:       {warmed} keys materialized from {}",
            path.display()
        )?;
    } else if diagram {
        writeln!(out, "diagram:    enabled (cold start)")?;
    }
    out.flush()?;

    // Serve until the control channel closes (stdin EOF / ^D).
    let mut sink = [0u8; 256];
    loop {
        match control.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }

    let counters = server.shutdown();
    writeln!(out, "shutdown:   drained clean")?;
    // Only a fleet has a router to report on.
    let skip: &[&str] = if shards > 0 { &[] } else { &["router"] };
    out.write_all(counters.render(skip).as_bytes())?;
    Ok(())
}

fn net_throughput<W: Write>(args: &[String], out: &mut W) -> Result<(), CliError> {
    use ssq_engine::Algorithm;
    use ssq_net::{Client, Frame};
    use ssq_workload::{random_query_set, QueryConfig};
    use std::time::Instant;

    let addr = flag_value(args, "--addr")
        .ok_or_else(|| CliError::Usage("net-throughput needs --addr".into()))?;
    let connections: usize = parsed_flag(args, "--connections")?.unwrap_or(4).max(1);
    let pipeline: usize = parsed_flag(args, "--pipeline")?.unwrap_or(16).max(1);
    let requests: usize = parsed_flag(args, "--requests")?.unwrap_or(1000);
    let batch: usize = parsed_flag(args, "--batch")?.unwrap_or(0);
    let distinct: usize = parsed_flag(args, "--distinct")?.unwrap_or(16).max(1);
    let count: usize = parsed_flag(args, "--count")?.unwrap_or(5).max(1);
    let area: f64 = parsed_flag(args, "--area")?.unwrap_or(0.001);
    let seed: u64 = parsed_flag(args, "--seed")?.unwrap_or(7);
    let forced: Option<Algorithm> = parsed_flag(args, "--algorithm")?;
    if requests == 0 {
        return Err(CliError::Usage("--requests must be nonzero".into()));
    }

    // One probe connection learns the dataset's bounding rect, so the
    // load is drawn from the region the server actually covers.
    let mut probe = Client::connect(&addr)
        .map_err(|e| CliError::Other(format!("cannot connect to {addr}: {e}")))?;
    let stats = probe
        .stats()
        .map_err(|e| CliError::Other(format!("stats request failed: {e}")))?;
    let _ = probe.goodbye();
    writeln!(out, "target:     {} ({} points)", addr, stats.data_len)?;

    let query_sets: Vec<Vec<ssq_geom::Point>> = (0..distinct)
        .map(|i| {
            random_query_set(&QueryConfig {
                count,
                mbr_area_fraction: area,
                universe: stats.universe,
                seed: seed.wrapping_add(i as u64),
            })
        })
        .collect();
    let query_sets = std::sync::Arc::new(query_sets);

    let per_conn = requests.div_ceil(connections);
    let started = Instant::now();
    let drivers: Vec<std::thread::JoinHandle<Result<(usize, usize), String>>> = (0..connections)
        .map(|c| {
            let addr = addr.clone();
            let sets = std::sync::Arc::clone(&query_sets);
            std::thread::spawn(move || -> Result<(usize, usize), String> {
                let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
                let mut ok = 0usize;
                let mut shed = 0usize;
                let mut absorb = |frame: Frame| -> Result<(), String> {
                    match frame {
                        Frame::QueryResult(_) => ok += 1,
                        Frame::BatchResult(results) => ok += results.len(),
                        Frame::RetryLater { .. } => shed += 1,
                        Frame::Error { code, message } => {
                            return Err(format!("server error {code:?}: {message}"))
                        }
                        other => return Err(format!("unexpected frame {other:?}")),
                    }
                    Ok(())
                };
                let mut in_flight: std::collections::VecDeque<u64> =
                    std::collections::VecDeque::new();
                let mut sent = 0usize;
                let mut next = c; // stagger which set each connection starts on
                while sent < per_conn {
                    let id = if batch > 0 {
                        let chunk: Vec<Vec<ssq_geom::Point>> = (0..batch)
                            .map(|i| sets[(next + i) % sets.len()].clone())
                            .collect();
                        client
                            .submit_batch(&chunk)
                            .map_err(|e| format!("submit: {e}"))?
                    } else {
                        client
                            .submit(&sets[next % sets.len()], forced)
                            .map_err(|e| format!("submit: {e}"))?
                    };
                    next += 1;
                    sent += 1;
                    in_flight.push_back(id);
                    if in_flight.len() >= pipeline {
                        if let Some(id) = in_flight.pop_front() {
                            absorb(client.await_id(id).map_err(|e| format!("await: {e}"))?)?;
                        }
                    }
                }
                for id in in_flight {
                    absorb(client.await_id(id).map_err(|e| format!("await: {e}"))?)?;
                }
                let _ = client.goodbye();
                Ok((ok, shed))
            })
        })
        .collect();

    let mut ok = 0usize;
    let mut shed = 0usize;
    for (c, driver) in drivers.into_iter().enumerate() {
        let (o, s) = driver
            .join()
            .map_err(|_| CliError::Other(format!("driver {c} panicked")))?
            .map_err(|e| CliError::Other(format!("driver {c}: {e}")))?;
        ok += o;
        shed += s;
    }
    let elapsed = started.elapsed();

    writeln!(
        out,
        "drive:      {connections} connections x {pipeline} pipeline, {} frames{}",
        per_conn * connections,
        if batch > 0 {
            format!(" ({batch} queries each)")
        } else {
            String::new()
        }
    )?;
    writeln!(
        out,
        "served:     {} results, {} shed (RetryLater) in {:.3}s -> {:.0} results/s",
        ok,
        shed,
        elapsed.as_secs_f64(),
        ok as f64 / elapsed.as_secs_f64().max(1e-9)
    )?;
    let mut final_probe = Client::connect(&addr)
        .map_err(|e| CliError::Other(format!("cannot reconnect to {addr}: {e}")))?;
    let after = final_probe
        .stats()
        .map_err(|e| CliError::Other(format!("final stats failed: {e}")))?;
    let _ = final_probe.goodbye();
    // The frame carries every group; behind a single engine `router`
    // reads zero, and says nothing.
    let sharded = after.groups.router != Default::default();
    let skip: &[&str] = if sharded { &[] } else { &["router"] };
    out.write_all(after.groups.render(skip).as_bytes())?;
    Ok(())
}

fn render_cmd<W: Write>(args: &[String], out: &mut W) -> Result<(), CliError> {
    let data = PathBuf::from(
        flag_value(args, "--data").ok_or_else(|| CliError::Usage("render needs --data".into()))?,
    );
    let qspec = flag_value(args, "--query")
        .ok_or_else(|| CliError::Usage("render needs --query".into()))?;
    let out_path = PathBuf::from(
        flag_value(args, "--out").ok_or_else(|| CliError::Usage("render needs --out".into()))?,
    );
    let want_voronoi = has_flag(args, "--voronoi");

    let table = csv::read_points(BufReader::new(File::open(&data)?))?;
    if table.points.is_empty() {
        return Err(CliError::Other("data file has no points".into()));
    }
    let q = csv::parse_query_points(&qspec)?;
    if q.is_empty() {
        return Err(CliError::Usage("need at least one query point".into()));
    }
    let ctx = QueryContext::new(&q);

    let index = VoronoiIndex::new(&table.points)
        .map_err(|e| CliError::Other(format!("cannot build Voronoi index: {e}")))?;
    let result = vs2(&index, &ctx);
    let cells: Vec<ssq_geom::ConvexPolygon> = if want_voronoi {
        (0..table.points.len() as u32)
            .map(|i| index.voronoi_cell(i))
            .collect()
    } else {
        Vec::new()
    };

    let f = BufWriter::new(File::create(&out_path)?);
    crate::svg::render(
        f,
        &crate::svg::Scene {
            points: &table.points,
            skyline: &result.skyline,
            query: &q,
            hull: ctx.hull(),
            cells: &cells,
        },
    )?;
    writeln!(
        out,
        "rendered {} points ({} skyline) to {}",
        table.points.len(),
        result.skyline.len(),
        out_path.display()
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tmpfile(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ssq_cli_{name}_{}.csv", std::process::id()));
        p
    }

    fn run_ok(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&args, &mut out).expect("command failed");
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn generate_info_query_pipeline() {
        let data = tmpfile("pipeline");
        let msg = run_ok(&[
            "generate",
            "--n",
            "500",
            "--out",
            data.to_str().unwrap(),
            "--seed",
            "7",
        ]);
        assert!(msg.contains("wrote 500 points"));

        let info = run_ok(&["info", "--data", data.to_str().unwrap()]);
        assert!(info.contains("points:      500"));

        let result = run_ok(&[
            "query",
            "--data",
            data.to_str().unwrap(),
            "--query",
            "0.4,0.4;0.6,0.5;0.5,0.7",
        ]);
        assert!(result.contains("# stats: skyline="));
        let rows = result.lines().filter(|l| !l.starts_with('#')).count();
        assert!(rows >= 1);

        // All four algorithms agree on the row set.
        let rows_of = |alg: &str| -> Vec<String> {
            run_ok(&[
                "query",
                "--data",
                data.to_str().unwrap(),
                "--query",
                "0.4,0.4;0.6,0.5;0.5,0.7",
                "--algorithm",
                alg,
            ])
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(String::from)
            .collect()
        };
        let b = rows_of("b2s2");
        assert_eq!(b, rows_of("naive"));
        assert_eq!(b, rows_of("bbs"));
        assert_eq!(b, rows_of("vs2"));

        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn top_k_limits_output() {
        let data = tmpfile("topk");
        run_ok(&["generate", "--n", "300", "--out", data.to_str().unwrap()]);
        let result = run_ok(&[
            "query",
            "--data",
            data.to_str().unwrap(),
            "--query",
            "0.5,0.5;0.6,0.6",
            "--top",
            "2",
        ]);
        let rows = result.lines().filter(|l| !l.starts_with('#')).count();
        assert_eq!(rows, 2);
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn mixed_requires_attributes() {
        let data = tmpfile("mixed_err");
        run_ok(&["generate", "--n", "50", "--out", data.to_str().unwrap()]);
        let args: Vec<String> = [
            "query",
            "--data",
            data.to_str().unwrap(),
            "--query",
            "0.5,0.5",
            "--mixed",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut out = Vec::new();
        assert!(matches!(run(&args, &mut out), Err(CliError::Other(_))));
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn mixed_query_with_attributes() {
        let data = tmpfile("mixed_ok");
        let mut content = String::new();
        for i in 0..40 {
            let x = (i % 8) as f64 / 10.0;
            let y = (i / 8) as f64 / 10.0;
            content.push_str(&format!("{x},{y},{}\n", (40 - i) as f64));
        }
        std::fs::write(&data, content).unwrap();
        let result = run_ok(&[
            "query",
            "--data",
            data.to_str().unwrap(),
            "--query",
            "0.3,0.3;0.5,0.2",
            "--mixed",
        ]);
        assert!(result.contains("# stats"));
        // Point 39 (attribute 1.0, the minimum) must be in the output.
        assert!(result.lines().any(|l| l.starts_with("39,")));
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn render_writes_svg() {
        let data = tmpfile("render");
        run_ok(&["generate", "--n", "200", "--out", data.to_str().unwrap()]);
        let svg_path = {
            let mut p = std::env::temp_dir();
            p.push(format!("ssq_cli_render_{}.svg", std::process::id()));
            p
        };
        let msg = run_ok(&[
            "render",
            "--data",
            data.to_str().unwrap(),
            "--query",
            "0.4,0.4;0.6,0.5;0.5,0.7",
            "--out",
            svg_path.to_str().unwrap(),
            "--voronoi",
        ]);
        assert!(msg.contains("rendered 200 points"));
        let svg = std::fs::read_to_string(&svg_path).unwrap();
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("#d62728")); // at least one skyline dot
        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&svg_path).ok();
    }

    #[test]
    fn continuous_stream_runs() {
        let data = tmpfile("cont");
        run_ok(&["generate", "--n", "400", "--out", data.to_str().unwrap()]);
        let outp = run_ok(&[
            "continuous",
            "--data",
            data.to_str().unwrap(),
            "--count",
            "4",
            "--updates",
            "60",
        ]);
        assert!(outp.contains("processed 60 updates"));
        assert!(outp.contains("final skyline:"));
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn shard_stats_reports_per_shard_sizes() {
        let data = tmpfile("shard_stats");
        run_ok(&["generate", "--n", "500", "--out", data.to_str().unwrap()]);
        let outp = run_ok(&[
            "shard-stats",
            "--data",
            data.to_str().unwrap(),
            "--shards",
            "4",
            "--queries",
            "40",
        ]);
        assert!(
            outp.contains("shards:     4"),
            "missing shard count: {outp}"
        );
        assert_eq!(
            outp.lines()
                .filter(|l| l.trim_start().starts_with("shard "))
                .count(),
            4,
            "missing per-shard rows: {outp}"
        );
        assert!(
            outp.contains("ssq_router_queries 40\n"),
            "missing routed-query count: {outp}"
        );
        assert!(
            outp.contains("ssq_router_prune_rate 0."),
            "missing prune rate: {outp}"
        );
        assert!(
            outp.contains("ssq_work_dominance_checks "),
            "missing work counters: {outp}"
        );
        assert!(
            outp.contains("ssq_work_allocations "),
            "missing allocations counter: {outp}"
        );
        assert!(
            outp.contains(&format!(
                "kernel:     {} tile dispatch",
                ssq_geom::simd::path_name()
            )),
            "missing kernel dispatch line: {outp}"
        );
        assert!(
            outp.contains("ssq_lifecycle_generation 0\nssq_lifecycle_swaps 0\n"),
            "missing lifecycle counters: {outp}"
        );
        assert!(outp.contains("queries/gen: gen0="), "missing split: {outp}");
        assert!(
            outp.contains("ssq_ingest_batches 0\n"),
            "missing ingest counters: {outp}"
        );
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn shard_stats_ingest_probe_fills_the_counters() {
        let data = tmpfile("shard_stats_ingest");
        run_ok(&["generate", "--n", "400", "--out", data.to_str().unwrap()]);
        let outp = run_ok(&[
            "shard-stats",
            "--data",
            data.to_str().unwrap(),
            "--shards",
            "2",
            "--queries",
            "10",
            "--ingest-batches",
            "3",
            "--ops",
            "8",
        ]);
        assert!(
            outp.contains("ssq_ingest_batches 3\n"),
            "ingest probe not recorded: {outp}"
        );
        assert!(
            outp.contains("ssq_lifecycle_generation 3\n"),
            "deltas did not advance the fleet generation: {outp}"
        );
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn usage_errors() {
        let mut out = Vec::new();
        assert!(matches!(
            run(&["query".to_string()], &mut out),
            Err(CliError::Usage(_))
        ));
        for unknown in ["bogus", "throughput", "reindex", "ingest"] {
            match run(&[unknown.to_string()], &mut out) {
                Err(CliError::Usage(m)) => assert_eq!(m, format!("unknown command '{unknown}'")),
                other => panic!("{unknown}: expected a usage error, got {other:?}"),
            }
        }
        assert!(run(&["--help".to_string()], &mut out).is_ok());
        assert!(matches!(
            run(&["net-throughput".to_string()], &mut out),
            Err(CliError::Usage(_))
        ));
        let mut control = std::io::empty();
        assert!(matches!(
            serve_with_control(&[], &mut out, &mut control),
            Err(CliError::Usage(_))
        ));
        // One malformed value per kind of flag: each is refused before any
        // file is read or socket opened, by a message naming the flag.
        let malformed: [(&[&str], &str); 4] = [
            (
                &["generate", "--n", "ten", "--out", "x.csv"],
                "--n must be an integer",
            ),
            (
                &[
                    "continuous",
                    "--data",
                    "x.csv",
                    "--count",
                    "3",
                    "--updates",
                    "5",
                    "--step",
                    "far",
                ],
                "--step must be a number",
            ),
            (
                &[
                    "shard-stats",
                    "--data",
                    "x.csv",
                    "--shards",
                    "2",
                    "--policy",
                    "hex",
                ],
                "--policy: ",
            ),
            (
                &[
                    "net-throughput",
                    "--addr",
                    "127.0.0.1:1",
                    "--algorithm",
                    "fast",
                ],
                "--algorithm: ",
            ),
        ];
        for (args, want) in malformed {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            match run(&args, &mut out) {
                Err(CliError::Usage(m)) => assert!(m.starts_with(want), "{args:?}: {m}"),
                other => panic!("{args:?}: expected a usage error, got {other:?}"),
            }
        }
    }

    /// `Write` into a shared buffer, so the test can watch `serve`'s
    /// output (the `listening on` line) while the command still runs.
    #[derive(Clone)]
    struct SharedOut(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for SharedOut {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A stand-in for stdin: `read` blocks until the test raises the
    /// stop flag, then reports EOF — exactly how closing stdin looks.
    struct ControlPipe(std::sync::Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>);

    impl std::io::Read for ControlPipe {
        fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
            let (stopped, signal) = &*self.0;
            let mut done = stopped.lock().unwrap();
            while !*done {
                done = signal.wait(done).unwrap();
            }
            Ok(0)
        }
    }

    #[test]
    fn serve_and_net_throughput_round_trip() {
        let data = tmpfile("serve");
        run_ok(&[
            "generate",
            "--n",
            "400",
            "--out",
            data.to_str().unwrap(),
            "--seed",
            "11",
        ]);

        let shared = SharedOut(std::sync::Arc::new(std::sync::Mutex::new(Vec::new())));
        let stop = std::sync::Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let server_thread = {
            let mut out = shared.clone();
            let mut control = ControlPipe(std::sync::Arc::clone(&stop));
            let args: Vec<String> = [
                "--data",
                data.to_str().unwrap(),
                "--addr",
                "127.0.0.1:0",
                "--threads",
                "2",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            std::thread::spawn(move || serve_with_control(&args, &mut out, &mut control))
        };

        // Wait for the flushed `listening on <addr>` line and parse the
        // ephemeral port out of it.
        let addr = {
            let mut addr = None;
            for _ in 0..250 {
                let text = String::from_utf8(shared.0.lock().unwrap().clone()).unwrap();
                if let Some(line) = text.lines().find(|l| l.starts_with("listening on ")) {
                    addr = Some(line.trim_start_matches("listening on ").to_string());
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            addr.expect("serve never printed its address")
        };

        let report = run_ok(&[
            "net-throughput",
            "--addr",
            &addr,
            "--connections",
            "3",
            "--pipeline",
            "8",
            "--requests",
            "120",
            "--seed",
            "3",
        ]);
        assert!(report.contains("target:"), "report was: {report}");
        assert!(report.contains("results/s"), "report was: {report}");
        // The final probe renders the server's Stats answer; a single
        // engine has no router to report on.
        assert!(
            report.contains("ssq_net_accepted ") && report.contains("ssq_engine_requests_vs2 "),
            "report was: {report}"
        );
        assert!(!report.contains("ssq_router_"), "report was: {report}");

        // Batched drive over the same server.
        let batched = run_ok(&[
            "net-throughput",
            "--addr",
            &addr,
            "--connections",
            "2",
            "--pipeline",
            "4",
            "--requests",
            "20",
            "--batch",
            "5",
        ]);
        assert!(
            batched.contains("(5 queries each)"),
            "report was: {batched}"
        );

        // Close the control channel: serve must drain and report.
        {
            let (stopped, signal) = &*stop;
            *stopped.lock().unwrap() = true;
            signal.notify_all();
        }
        server_thread
            .join()
            .expect("serve thread panicked")
            .expect("serve failed");
        let text = String::from_utf8(shared.0.lock().unwrap().clone()).unwrap();
        assert!(
            text.contains("shutdown:   drained clean"),
            "serve said: {text}"
        );
        // 1 + 3 + 1 connections for the first drive, 1 + 2 + 1 for the
        // batched one; a single engine owns no `router` group.
        assert!(text.contains("ssq_net_accepted 9\n"), "serve said: {text}");
        assert!(
            text.contains("ssq_net_frame_errors 0\n"),
            "serve said: {text}"
        );
        assert!(!text.contains("ssq_router_"), "serve said: {text}");
        let _ = std::fs::remove_file(&data);
    }

    #[test]
    fn warm_then_serve_materializes_keys_before_listening() {
        let data = tmpfile("warm");
        run_ok(&[
            "generate",
            "--n",
            "300",
            "--out",
            data.to_str().unwrap(),
            "--seed",
            "13",
        ]);
        let mut warm_path = std::env::temp_dir();
        warm_path.push(format!("ssq_cli_warm_{}.warm", std::process::id()));

        let report = run_ok(&[
            "warm",
            "--data",
            data.to_str().unwrap(),
            "--out",
            warm_path.to_str().unwrap(),
            "--distinct",
            "6",
            "--repeats",
            "2",
        ]);
        assert!(report.contains("saved:"), "warm said: {report}");
        assert!(
            !report.contains("saved:      0 hot keys"),
            "no keys captured: {report}"
        );

        // Serve with the warm file; the startup banner must report the
        // materialized keys before `listening on` unblocks clients.
        let shared = SharedOut(std::sync::Arc::new(std::sync::Mutex::new(Vec::new())));
        let stop = std::sync::Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let server_thread = {
            let mut out = shared.clone();
            let mut control = ControlPipe(std::sync::Arc::clone(&stop));
            let args: Vec<String> = [
                "--data",
                data.to_str().unwrap(),
                "--addr",
                "127.0.0.1:0",
                "--threads",
                "1",
                "--warm",
                warm_path.to_str().unwrap(),
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            std::thread::spawn(move || serve_with_control(&args, &mut out, &mut control))
        };
        for _ in 0..250 {
            let text = String::from_utf8(shared.0.lock().unwrap().clone()).unwrap();
            if text.contains("listening on ") {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        {
            let (stopped, signal) = &*stop;
            *stopped.lock().unwrap() = true;
            signal.notify_all();
        }
        server_thread
            .join()
            .expect("serve thread panicked")
            .expect("serve failed");
        let text = String::from_utf8(shared.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("warm:       "), "serve said: {text}");
        assert!(
            !text.contains("warm:       0 keys"),
            "nothing warmed: {text}"
        );
        assert!(text.contains("ssq_diagram_warmed "), "serve said: {text}");
        assert!(
            !text.contains("ssq_diagram_warmed 0\n"),
            "nothing materialized: {text}"
        );
        let _ = std::fs::remove_file(&data);
        let _ = std::fs::remove_file(&warm_path);
    }

    #[test]
    fn shard_stats_prints_only_the_groups_a_fleet_owns() {
        let data = tmpfile("shardnet");
        run_ok(&[
            "generate",
            "--n",
            "300",
            "--out",
            data.to_str().unwrap(),
            "--seed",
            "5",
        ]);
        let report = run_ok(&[
            "shard-stats",
            "--data",
            data.to_str().unwrap(),
            "--shards",
            "2",
            "--queries",
            "10",
        ]);
        // A local fleet has no socket front-end: no `net` lines, which
        // could only read zero. Everything else is there once.
        assert!(!report.contains("ssq_net_"), "report was: {report}");
        for group in ["router", "engine", "lifecycle", "work", "diagram", "ingest"] {
            assert!(
                report.contains(&format!("ssq_{group}_")),
                "no {group} lines: {report}"
            );
        }
        assert_eq!(report.matches("ssq_ingest_batches ").count(), 1);
        let _ = std::fs::remove_file(&data);
    }
}
