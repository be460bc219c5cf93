//! Try policies for the geometric partitioner.

/// How many separators of each kind to try, and how to sample.
#[derive(Clone, Copy, Debug)]
pub struct GeoConfig {
    /// Independent centerpoint computations.
    pub n_centerpoints: usize,
    /// Great circles tried per centerpoint.
    pub circles_per_centerpoint: usize,
    /// Line (hyperplane) separators tried.
    pub n_lines: usize,
}

/// Sample size for the centerpoint approximation.
pub(crate) const SAMPLE_SIZE: usize = 1000;

/// Allowed imbalance for a try to be eligible (median splits are exactly
/// balanced; parallel sampled medians are nearly so).
pub(crate) const BALANCE_TOL: f64 = 0.10;

impl GeoConfig {
    /// The paper's G30: best of 30 tries — 22 great circles over 2
    /// centerpoints, 7 line separators (plus the final median fallback).
    pub fn g30() -> Self {
        GeoConfig {
            n_centerpoints: 2,
            circles_per_centerpoint: 11,
            n_lines: 7,
        }
    }

    /// The paper's G7: 5 great circles with 1 centerpoint, 2 lines.
    pub fn g7() -> Self {
        GeoConfig {
            n_centerpoints: 1,
            circles_per_centerpoint: 5,
            n_lines: 2,
        }
    }

    /// G7-NL: G7 without the line separators — the variant ScalaPart
    /// parallelises (lines would need an eigenvector computation the paper
    /// avoids for scalability).
    pub fn g7_nl() -> Self {
        GeoConfig {
            n_lines: 0,
            ..Self::g7()
        }
    }

    /// Total separator tries.
    pub fn total_tries(&self) -> usize {
        self.n_centerpoints * self.circles_per_centerpoint + self.n_lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_counts() {
        assert_eq!(GeoConfig::g30().total_tries(), 29); // 22 circles + 7 lines
        assert_eq!(GeoConfig::g7().total_tries(), 7);
        assert_eq!(GeoConfig::g7_nl().total_tries(), 5);
        assert_eq!(GeoConfig::g7_nl().n_lines, 0);
    }
}
