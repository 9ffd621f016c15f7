//! Warm-start persistence: hot canonical query keys on disk.
//!
//! A serving process periodically saves its hottest keys
//! ([`Engine::hot_keys`](crate::Engine::hot_keys)); the next process
//! loads the file and hands the keys to
//! [`Engine::warm_start`](crate::Engine::warm_start) before accepting
//! traffic, so known-hot query shapes have their contexts cached and
//! their diagram cells admitted, before the first request.
//!
//! # Format
//!
//! A line-oriented text file:
//!
//! ```text
//! ssq-warm v1
//! quantum 1e-9
//! k 3100000000 2200000000 7400000000 5900000000
//! k ...
//! ```
//!
//! Line 1 is a fixed magic + version. Line 2 records the coordinate
//! quantum the keys were canonicalized with (Rust's `f64` `Display` is
//! shortest-round-trip, so parsing it back is exact). Every following
//! `k` line is one key: its quantized hull cells as `x y` integer
//! pairs. A loader whose engine uses a *different* quantum can still
//! use the keys — [`Engine::warm_start`](crate::Engine::warm_start)
//! re-canonicalizes through each key's representative points.

use ssq_core::QueryKey;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

const MAGIC: &str = "ssq-warm v1";

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Writes `keys` (canonicalized with `quantum`) to `path`, atomically
/// via a sibling temp file so a crash mid-write never leaves a torn
/// warm file.
pub fn save_warm_keys(path: &Path, quantum: f64, keys: &[QueryKey]) -> io::Result<()> {
    if !(quantum > 0.0 && quantum.is_finite()) {
        return Err(invalid(format!("quantum must be positive, got {quantum}")));
    }
    let mut out = String::new();
    out.push_str(MAGIC);
    out.push('\n');
    out.push_str(&format!("quantum {quantum}\n"));
    for key in keys {
        if key.is_empty() {
            continue;
        }
        out.push('k');
        for &(x, y) in key.cells() {
            out.push_str(&format!(" {x} {y}"));
        }
        out.push('\n');
    }
    let tmp = path.with_extension("tmp");
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(out.as_bytes())?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// Reads a warm file back as `(quantum, keys)`.
pub fn load_warm_keys(path: &Path) -> io::Result<(f64, Vec<QueryKey>)> {
    let text = fs::read_to_string(path)?;
    let mut lines = text.lines();
    match lines.next() {
        Some(MAGIC) => {}
        other => {
            return Err(invalid(format!(
                "not a warm file: expected `{MAGIC}`, got {other:?}"
            )))
        }
    }
    let quantum = match lines.next().and_then(|l| l.strip_prefix("quantum ")) {
        Some(raw) => raw
            .parse::<f64>()
            .map_err(|e| invalid(format!("bad quantum `{raw}`: {e}")))?,
        None => return Err(invalid("missing quantum line".into())),
    };
    if !(quantum > 0.0 && quantum.is_finite()) {
        return Err(invalid(format!("quantum must be positive, got {quantum}")));
    }
    let mut keys = Vec::new();
    for (number, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let Some(rest) = line.strip_prefix("k ") else {
            return Err(invalid(format!("line {}: expected `k ...`", number + 3)));
        };
        let coords: Vec<i64> = rest
            .split_ascii_whitespace()
            .map(|tok| {
                tok.parse::<i64>()
                    .map_err(|e| invalid(format!("line {}: bad cell `{tok}`: {e}", number + 3)))
            })
            .collect::<io::Result<_>>()?;
        if coords.is_empty() || !coords.len().is_multiple_of(2) {
            return Err(invalid(format!(
                "line {}: key needs an even, nonzero number of coordinates",
                number + 3
            )));
        }
        let cells: Vec<(i64, i64)> = coords.chunks_exact(2).map(|c| (c[0], c[1])).collect();
        keys.push(QueryKey::from_cells(cells));
    }
    Ok((quantum, keys))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssq_geom::Point;

    #[test]
    fn round_trips_keys_and_quantum() {
        let quantum = 1e-9;
        let keys = vec![
            QueryKey::canonical(&[Point::new(3.1, 2.2), Point::new(7.4, 5.9)], quantum),
            QueryKey::canonical(
                &[
                    Point::new(1.0, 1.0),
                    Point::new(9.0, 3.0),
                    Point::new(5.0, 8.0),
                ],
                quantum,
            ),
            QueryKey::canonical(&[Point::new(-2.5, 4.0)], quantum),
        ];
        let dir = std::env::temp_dir().join(format!("ssq-warm-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hot.warm");
        save_warm_keys(&path, quantum, &keys).unwrap();
        let (got_quantum, got_keys) = load_warm_keys(&path).unwrap();
        assert_eq!(got_quantum, quantum);
        assert_eq!(got_keys, keys);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("ssq-warm-bad-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        for (name, contents) in [
            ("magic", "not a warm file\n"),
            ("quantum", "ssq-warm v1\nquantum zero\n"),
            ("negative", "ssq-warm v1\nquantum -1\n"),
            ("odd", "ssq-warm v1\nquantum 1e-9\nk 1 2 3\n"),
            ("token", "ssq-warm v1\nquantum 1e-9\nk one 2\n"),
            ("prefix", "ssq-warm v1\nquantum 1e-9\nq 1 2\n"),
        ] {
            let path = dir.join(name);
            fs::write(&path, contents).unwrap();
            assert!(load_warm_keys(&path).is_err(), "{name} was accepted");
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
