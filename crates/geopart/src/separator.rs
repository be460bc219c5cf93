//! Separator descriptions and evaluation.

/// A geometric separator — a circle of the conformally mapped sphere or a
/// line of the plane — as each vertex's signed distance from it (in the
/// separator's own metric): the strip refinement selects movable vertices
/// by small |signed distance|.
#[derive(Clone, Debug)]
pub struct Separator {
    /// Per-vertex signed value; side 1 ⇔ positive.
    pub signed: Vec<f64>,
}

impl Separator {
    /// Side of vertex `v` (`1` = positive side).
    #[inline]
    pub fn side(&self, v: u32) -> u8 {
        u8::from(self.signed[v as usize] > 0.0)
    }

    /// Sides for all vertices.
    pub fn sides(&self) -> Vec<u8> {
        self.signed.iter().map(|&s| u8::from(s > 0.0)).collect()
    }
}

/// Median of a slice (by value, averaging is unnecessary for splitting).
pub fn median(vals: &[f64]) -> f64 {
    assert!(!vals.is_empty());
    let mut v = vals.to_vec();
    let mid = v.len() / 2;
    v.select_nth_unstable_by(mid, |a, b| a.partial_cmp(b).unwrap());
    v[mid]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_splits_half() {
        let vals: Vec<f64> = (0..101).map(|i| i as f64).collect();
        assert_eq!(median(&vals), 50.0);
        let below = vals.iter().filter(|&&v| v < 50.0).count();
        assert_eq!(below, 50);
    }

    #[test]
    fn sides_follow_sign() {
        let s = Separator {
            signed: vec![-1.0, 0.5, 0.0, 2.0],
        };
        assert_eq!(s.sides(), vec![0, 1, 0, 1]);
        assert_eq!(s.side(3), 1);
    }
}
