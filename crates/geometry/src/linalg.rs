//! Tiny dense linear algebra on the stack: the 4×4 solve behind every
//! Radon point.
//!
//! A centerpoint takes hundreds of Radon points (each bisection of the
//! geometric partitioner computes 400 per centerpoint), so the system and
//! its solution live in fixed-size arrays: nothing here allocates. The
//! elimination is the textbook one, in a fixed order — partial pivoting on
//! the first largest magnitude, rows whose factor is exactly zero skipped,
//! back substitution from the last row — so a Radon point's bits depend
//! only on its five inputs.

use crate::point::Point3;

/// Solve `A x = b` for a small dense system by Gaussian elimination with
/// partial pivoting. Returns `None` if the matrix is (numerically)
/// singular: a pivot below 1e-12 in magnitude.
pub(crate) fn solve<const N: usize>(mut m: [[f64; N]; N], mut rhs: [f64; N]) -> Option<[f64; N]> {
    for col in 0..N {
        // Partial pivot.
        let mut piv = col;
        let mut best = m[col][col].abs();
        for (r, row) in m.iter().enumerate().skip(col + 1) {
            let v = row[col].abs();
            if v > best {
                best = v;
                piv = r;
            }
        }
        if best < 1e-12 {
            return None;
        }
        m.swap(col, piv);
        rhs.swap(col, piv);
        let pivot = m[col];
        for r in col + 1..N {
            let f = m[r][col] / pivot[col];
            if f == 0.0 {
                continue;
            }
            for c in col..N {
                m[r][c] -= f * pivot[c];
            }
            rhs[r] -= f * rhs[col];
        }
    }
    // Back substitution.
    let mut x = [0.0; N];
    for row in (0..N).rev() {
        let mut s = rhs[row];
        for c in row + 1..N {
            s -= m[row][c] * x[c];
        }
        x[row] = s / m[row][row];
    }
    Some(x)
}

/// A non-trivial solution of the homogeneous system of the Radon
/// partition of five points in ℝ³: coefficients `λ` with `Σ λ_i p_i = 0`
/// and `Σ λ_i = 0`, `λ ≠ 0`.
///
/// We fix `λ_4 = 1` and solve the resulting 4×4 system; if that system is
/// singular we fall back to fixing `λ_3`, then `λ_2`, and so on.
pub(crate) fn radon_coefficients(pts: &[Point3; 5]) -> Option<[f64; 5]> {
    for fixed in (0..5).rev() {
        // Columns: the four other points; rows: Σ λ_i p_i = -p_fixed
        // coordinate by coordinate, then Σ λ_i = -1.
        let others = (0..5).filter(|&i| i != fixed);
        let mut a = [[1.0; 4]; 4];
        for (cj, i) in others.clone().enumerate() {
            a[0][cj] = pts[i].x;
            a[1][cj] = pts[i].y;
            a[2][cj] = pts[i].z;
        }
        let f = pts[fixed];
        if let Some(x) = solve(a, [-f.x, -f.y, -f.z, -1.0]) {
            let mut lam = [1.0; 5];
            for (i, l) in others.zip(x) {
                lam[i] = l;
            }
            return Some(lam);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_identity() {
        let a = [[1.0, 0.0], [0.0, 1.0]];
        let x = solve(a, [3.0, -2.0]).unwrap();
        assert_eq!(x, [3.0, -2.0]);
    }

    #[test]
    fn solve_general_3x3() {
        let a = [[2.0, 1.0, -1.0], [-3.0, -1.0, 2.0], [-2.0, 1.0, 2.0]];
        let x = solve(a, [8.0, -11.0, -3.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
        assert!((x[2] - -1.0).abs() < 1e-9);
    }

    #[test]
    fn solve_singular_returns_none() {
        let a = [[1.0, 2.0], [2.0, 4.0]];
        assert!(solve(a, [1.0, 2.0]).is_none());
    }

    #[test]
    fn radon_coefficients_sum_to_zero() {
        // Five points in 3-D (d + 2 = 5), the first four coplanar so that
        // fixing λ_4 is singular and λ_3 is fixed instead.
        let pts = [
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(0.0, 1.0, 0.0),
            Point3::new(0.6, 0.6, 0.0),
            Point3::new(0.2, 0.3, 0.9),
        ];
        for pts in [pts, [pts[4], pts[0], pts[1], pts[2], pts[3]]] {
            let lam = radon_coefficients(&pts).unwrap();
            let s: f64 = lam.iter().sum();
            assert!(s.abs() < 1e-9);
            let v = lam
                .iter()
                .zip(&pts)
                .fold(Point3::ZERO, |v, (&l, &p)| v + p * l);
            assert!(v.norm() < 1e-9, "weighted point sum nonzero: {v:?}");
            assert!(lam.iter().any(|&l| l.abs() > 1e-9));
        }
    }
}
