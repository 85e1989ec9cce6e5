//! R-MAT (recursive matrix) graph generation, graph500 style.
//!
//! Each edge picks its endpoints by descending `scale` levels of a 2×2
//! probability grid `(a b; c d)`. The paper's parameters (a=0.57,
//! b=c=0.19, d=0.05) skew mass toward the (0,0) quadrant, producing the
//! power-law degree distribution whose hubs cause the case study's load
//! imbalance.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// R-MAT generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    /// log2 of the vertex count.
    pub scale: u32,
    /// Edges generated = `edge_factor << scale`.
    pub edge_factor: usize,
    /// Quadrant probabilities; must sum to 1.
    pub a: f64,
    /// Upper-right quadrant probability.
    pub b: f64,
    /// Lower-left quadrant probability.
    pub c: f64,
    /// Lower-right quadrant probability.
    pub d: f64,
    /// RNG seed — all generation is deterministic given the seed.
    pub seed: u64,
}

impl RmatParams {
    /// The graph500 parameter set used in §IV-C: A=0.57, B=C=0.19, D=0.05,
    /// edge factor 16.
    pub fn graph500(scale: u32) -> RmatParams {
        RmatParams {
            scale,
            edge_factor: 16,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
            seed: 0x5EED_6500 + scale as u64,
        }
    }

    /// Number of vertices (`2^scale`).
    pub fn n_vertices(&self) -> usize {
        1usize << self.scale
    }

    /// Number of generated edge tuples (before dedup/self-loop removal).
    pub fn n_edges(&self) -> usize {
        self.edge_factor << self.scale
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> RmatParams {
        self.seed = seed;
        self
    }

    /// Validate that quadrant probabilities form a distribution.
    pub fn is_valid(&self) -> bool {
        let sum = self.a + self.b + self.c + self.d;
        (sum - 1.0).abs() < 1e-9
            && [self.a, self.b, self.c, self.d].iter().all(|p| *p >= 0.0)
            && self.scale > 0
            && self.edge_factor > 0
    }
}

/// Generate the raw directed edge tuples (may contain duplicates and
/// self-loops, like the graph500 edge list).
///
/// # Panics
/// Panics if `params` is invalid (probabilities not summing to 1, zero
/// scale/edge-factor) — a configuration bug, not a data error.
pub fn generate_edges(params: &RmatParams) -> Vec<(u32, u32)> {
    assert!(params.is_valid(), "invalid R-MAT parameters: {params:?}");
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut edges = Vec::with_capacity(params.n_edges());
    let ab = params.a + params.b;
    let abc = ab + params.c;
    for _ in 0..params.n_edges() {
        let mut row = 0u32;
        let mut col = 0u32;
        for _ in 0..params.scale {
            // Quadrant by thresholds: r < a upper-left (no bit), < a+b
            // upper-right (col), < a+b+c lower-left (row), else both. The
            // thresholds ascend, so the row bit is `r >= a+b` and the col
            // bit the parity of the three comparisons — no branch to
            // mispredict.
            let r: f64 = rng.gen();
            let (ge_a, ge_ab, ge_abc) = (r >= params.a, r >= ab, r >= abc);
            row = row << 1 | ge_ab as u32;
            col = col << 1 | (ge_a ^ ge_ab ^ ge_abc) as u32;
        }
        edges.push((row, col));
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph500_parameters_match_paper() {
        let p = RmatParams::graph500(16);
        assert_eq!(p.scale, 16);
        assert_eq!(p.edge_factor, 16);
        assert!((p.a - 0.57).abs() < 1e-12);
        assert!((p.b - 0.19).abs() < 1e-12);
        assert!((p.c - 0.19).abs() < 1e-12);
        assert!((p.d - 0.05).abs() < 1e-12);
        assert!(p.is_valid());
        assert_eq!(p.n_vertices(), 65536);
        assert_eq!(p.n_edges(), 1_048_576);
    }

    #[test]
    fn generation_is_deterministic() {
        let p = RmatParams::graph500(8);
        assert_eq!(generate_edges(&p), generate_edges(&p));
    }

    #[test]
    fn different_seeds_differ() {
        let p = RmatParams::graph500(8);
        let q = p.with_seed(42);
        assert_ne!(generate_edges(&p), generate_edges(&q));
    }

    /// FNV-1a over the edge list, one `(row << 32 | col)` word per edge.
    fn digest(edges: &[(u32, u32)]) -> u64 {
        edges.iter().fold(0xcbf2_9ce4_8422_2325, |h, &(u, v)| {
            (h ^ ((u as u64) << 32 | v as u64)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn edge_lists_are_pinned() {
        // Digests of the if-chain generator's output: the comparison form
        // makes the same RNG draws and must give bit-identical edge lists.
        for (scale, seed, expected) in [
            (8, None, 0x456a_04a8_3cf6_e34d),
            (12, Some(7), 0xaa2e_f1c7_5793_5209),
            (13, None, 0x6b44_03bb_c388_0946),
        ] {
            let mut p = RmatParams::graph500(scale);
            if let Some(s) = seed {
                p = p.with_seed(s);
            }
            let edges = generate_edges(&p);
            assert_eq!(edges.len(), p.n_edges());
            assert_eq!(digest(&edges), expected, "scale {scale}, seed {seed:?}");
        }
    }

    #[test]
    fn endpoints_are_in_range() {
        let p = RmatParams::graph500(6);
        let n = p.n_vertices() as u32;
        for (u, v) in generate_edges(&p) {
            assert!(u < n && v < n);
        }
    }

    #[test]
    fn degree_distribution_is_skewed_toward_low_ids() {
        // The essence of the paper's load-imbalance story: without
        // permutation, low vertex ids are hubs.
        let p = RmatParams::graph500(10);
        let edges = generate_edges(&p);
        let n = p.n_vertices();
        let mut deg = vec![0u64; n];
        for (u, v) in &edges {
            deg[*u as usize] += 1;
            deg[*v as usize] += 1;
        }
        let low: u64 = deg[..n / 16].iter().sum();
        let total: u64 = deg.iter().sum();
        // a=0.57 per level: the lowest 1/16th of ids should hold far more
        // than 1/16th of the endpoints.
        assert!(
            low as f64 > total as f64 * 0.25,
            "expected skew: low={low}, total={total}"
        );
        let max_deg = *deg.iter().max().unwrap();
        assert_eq!(
            deg.iter().position(|&d| d == max_deg).unwrap(),
            0,
            "vertex 0 should be the biggest hub"
        );
    }

    #[test]
    #[should_panic(expected = "invalid R-MAT")]
    fn invalid_probabilities_panic() {
        let mut p = RmatParams::graph500(4);
        p.a = 0.9;
        generate_edges(&p);
    }
}
