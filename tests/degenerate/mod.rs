//! Tie-hostile point sets shared by the integration tests: integer
//! lattices and exactly cocircular integer rings.

use spatial_skyline::geom::Point;

pub fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

/// `cols × rows` integer lattice points.
pub fn lattice(cols: i32, rows: i32) -> Vec<Point> {
    (0..cols)
        .flat_map(|i| (0..rows).map(move |j| p(i.into(), j.into())))
        .collect()
}

/// The integer points on the circles `x² + y² = r²` about the origin, for
/// each `r` — exactly cocircular, ties and all, in f64.
pub fn integer_rings(radii: &[i64]) -> Vec<Point> {
    let mut out = Vec::new();
    for &r in radii {
        for x in -r..=r {
            let y = ((r * r - x * x) as f64).sqrt() as i64;
            if x * x + y * y == r * r {
                out.push(p(x as f64, y as f64));
                if y != 0 {
                    out.push(p(x as f64, -y as f64));
                }
            }
        }
    }
    out
}
