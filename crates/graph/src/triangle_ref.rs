//! Sequential reference triangle counts.
//!
//! §IV-C: "We have validated the experiments by using assertion, which
//! verified the number of triangles obtained by the application with the
//! theoretical answer, also calculated by the application." These two
//! independent sequential algorithms are that theoretical answer:
//!
//! - [`count_by_intersection`] is the one `count_triangles` asserts
//!   against on every call. It touches each row once per edge that points
//!   at it and does no search: about 6 ms for a graph500 scale-13 graph on
//!   one core of a 2-vCPU Xeon VM.
//! - [`count_by_wedges`] replays Algorithm 1 sequentially, one binary
//!   search per wedge, about 4.5× slower (27 ms on the same graph). Tests
//!   and the benchmark's set-up use it as the golden value, so a
//!   distributed count that passes both has been checked against two
//!   different algorithms. The distributed handler tests membership with
//!   a stamped row, as `count_by_intersection` does; the golden value's
//!   binary search keeps it independent of both.

use crate::csr::Csr;

/// Count triangles by wedge checking — the same enumeration Algorithm 1
/// distributes: for each row `i` and each neighbour pair `k < j`, test
/// whether edge `(j, k)` exists. One binary search of row `j` per wedge.
pub fn count_by_wedges(l: &Csr) -> u64 {
    let mut count = 0u64;
    for i in 0..l.n() {
        let row = l.row(i);
        for (a, &j) in row.iter().enumerate() {
            let row_j = l.row(j as usize);
            // row is sorted ascending, so k < j
            for k in &row[..a] {
                count += row_j.binary_search(k).is_ok() as u64;
            }
        }
    }
    count
}

/// Count triangles by neighbourhood intersection (an independent method
/// to cross-check [`count_by_wedges`]): the sum over edges `(i, j)` of `L`
/// of |N(i) ∩ N(j)| over lower neighbours.
///
/// Marker array: for each row `i`, stamp every `j ∈ N(i)` with `i`, then
/// count the `k ∈ N(j)` whose stamp is `i`. Stamps are row indices, which
/// never repeat, so a stamp left by an earlier row cannot match and the
/// array is never cleared; `usize::MAX` is no row, so it marks "unset".
pub fn count_by_intersection(l: &Csr) -> u64 {
    let mut stamp = vec![usize::MAX; l.n()];
    let mut count = 0u64;
    for i in 0..l.n() {
        let row = l.row(i);
        for &j in row {
            stamp[j as usize] = i;
        }
        for &j in row {
            count += l
                .row(j as usize)
                .iter()
                .filter(|&&k| stamp[k as usize] == i)
                .count() as u64;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::to_lower_triangular;
    use crate::rmat::{generate_edges, RmatParams};

    fn csr_of(edges: &[(u32, u32)], n: usize) -> Csr {
        Csr::from_edges(n, &to_lower_triangular(edges))
    }

    #[test]
    fn single_triangle() {
        let l = csr_of(&[(0, 1), (1, 2), (0, 2)], 3);
        assert_eq!(count_by_wedges(&l), 1);
        assert_eq!(count_by_intersection(&l), 1);
    }

    #[test]
    fn k4_has_four_triangles() {
        let l = csr_of(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 4);
        assert_eq!(count_by_wedges(&l), 4);
        assert_eq!(count_by_intersection(&l), 4);
    }

    #[test]
    fn path_and_star_have_none() {
        let path = csr_of(&[(0, 1), (1, 2), (2, 3)], 4);
        assert_eq!(count_by_wedges(&path), 0);
        let star = csr_of(&[(0, 1), (0, 2), (0, 3), (0, 4)], 5);
        assert_eq!(count_by_intersection(&star), 0);
    }

    #[test]
    fn methods_agree_on_rmat() {
        let p = RmatParams::graph500(9);
        let edges = to_lower_triangular(&generate_edges(&p));
        let l = Csr::from_edges(p.n_vertices(), &edges);
        let w = count_by_wedges(&l);
        let i = count_by_intersection(&l);
        assert_eq!(w, i);
        assert!(w > 0, "scale-9 R-MAT certainly has triangles");
    }

    #[test]
    fn stale_stamps_from_the_previous_row_do_not_count() {
        // Rows 3 and 4 share neighbour 2 but close different triangles
        // (3-2-0 and 4-2-1). Row 3 stamps vertex 0; row 4 then scans
        // N(2) = {0, 1}, and only 1 may count.
        let l = csr_of(&[(2, 0), (2, 1), (3, 0), (3, 2), (4, 1), (4, 2)], 5);
        assert_eq!(count_by_wedges(&l), 2);
        assert_eq!(count_by_intersection(&l), 2);
    }

    #[test]
    fn hub_joined_to_a_clique() {
        // Hub 0 reaches every vertex 1..=8; 5..=8 form a K4. Hub plus
        // clique is a K5 (10 triangles); the leaves 1..=4 close none.
        let mut edges: Vec<(u32, u32)> = (1..=8).map(|v| (0, v)).collect();
        for a in 5..=8u32 {
            for b in a + 1..=8 {
                edges.push((a, b));
            }
        }
        let l = csr_of(&edges, 9);
        assert_eq!(count_by_wedges(&l), 10);
        assert_eq!(count_by_intersection(&l), 10);
    }

    #[test]
    fn full_last_row_among_empty_rows() {
        // Vertex 6 neighbours every other vertex; rows 0, 1, 2 and 4 are
        // empty. A star alone has no triangle, and each extra edge closes
        // one through vertex 6.
        let star: Vec<(u32, u32)> = (0..6).map(|v| (6, v)).collect();
        let l = csr_of(&star, 7);
        assert_eq!(count_by_wedges(&l), 0);
        assert_eq!(count_by_intersection(&l), 0);

        let mut edges = star;
        edges.extend([(3, 1), (5, 3)]);
        let l = csr_of(&edges, 7);
        assert_eq!(l.degree(6), 6);
        assert_eq!(count_by_wedges(&l), 2);
        assert_eq!(count_by_intersection(&l), 2);
    }

    #[test]
    fn methods_agree_across_scales_and_seeds() {
        for scale in 8..=12 {
            for seed in [1, 2, 3] {
                let p = RmatParams::graph500(scale).with_seed(seed);
                let edges = to_lower_triangular(&generate_edges(&p));
                let l = Csr::from_edges(p.n_vertices(), &edges);
                assert_eq!(
                    count_by_intersection(&l),
                    count_by_wedges(&l),
                    "scale {scale}, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn empty_graph_has_none() {
        let l = Csr::from_edges(8, &[]);
        assert_eq!(count_by_wedges(&l), 0);
        assert_eq!(count_by_intersection(&l), 0);
    }
}
