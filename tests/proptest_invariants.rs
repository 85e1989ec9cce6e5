//! Property-based tests on the core invariants, spanning crates.

use actorprof_suite::actorprof::{Matrix, Quartiles};
use actorprof_suite::actorprof_trace::{PapiConfig, PeCollector, TraceBuffer, TraceConfig};
use actorprof_suite::fabsp_apps::triangle::{count_triangles, DistKind, TriangleConfig};
use actorprof_suite::fabsp_graph::edgelist::to_lower_triangular;
use actorprof_suite::fabsp_graph::{triangle_ref, Csr, Distribution};
use actorprof_suite::fabsp_hwpc::MAX_EVENTS;
use actorprof_suite::fabsp_shmem::Grid;
use proptest::prelude::*;

/// Arbitrary small graphs: up to 24 vertices, arbitrary edge pairs.
fn arb_edges() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (4usize..24).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..120))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The distributed actor count matches both sequential references on
    /// arbitrary graphs, under both distributions and a multi-node grid.
    #[test]
    fn distributed_triangle_count_matches_reference((n, raw) in arb_edges()) {
        let edges = to_lower_triangular(&raw);
        let l = Csr::from_edges(n, &edges);
        let expected = triangle_ref::count_by_wedges(&l);
        prop_assert_eq!(expected, triangle_ref::count_by_intersection(&l));
        for dist in [DistKind::Cyclic, DistKind::RangeByNnz] {
            let config = TriangleConfig::new(Grid::new(2, 2).unwrap()).with_dist(dist);
            let outcome = count_triangles(&l, &config).unwrap();
            prop_assert_eq!(outcome.triangles, expected);
        }
    }
}

/// The trace configuration of one `SendRun` equivalence case.
fn send_run_config(sample: u32, mode: u32, papi: bool) -> TraceConfig {
    let mut config = match mode {
        0 => TraceConfig::off(),
        1 => TraceConfig::off().with_logical(),
        _ => TraceConfig::off().with_logical_sampling(sample),
    };
    if papi {
        config = config.with_papi(PapiConfig::case_study());
    }
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Run-length send events are invisible: whatever mix of one-item
    /// `send`s, `send_slice`s (one run per accepted prefix) and drained
    /// handler runs the selector emits — each run carrying the PAPI deltas
    /// of its submission when measured, adjacent equal-key runs coalescing
    /// to the bank sum — drained to the collector at arbitrary points, the
    /// collector ends up — matrix, exact records, PAPI lines, footprint —
    /// where one `record_send` per message would have put it, under every
    /// sampling stride.
    #[test]
    fn send_runs_equal_per_message_recording(
        ops in proptest::collection::vec((0u32..3, 0usize..4, 0u32..2, 1u64..70, 0u64..70, 0u32..3), 1..40),
        sample_idx in 0usize..3,
        mode in 0u32..3,
        papi in 0u32..2,
    ) {
        const N_EVENTS: usize = 2; // PapiConfig::case_study()
        let sample = [1u32, 3, 64][sample_idx];
        let papi = papi == 1;
        let config = send_run_config(sample, mode, papi);
        let mut buf = TraceBuffer::for_config(&config);
        let mut runs = PeCollector::new(1, 4, 2, config.clone());
        let mut reference = PeCollector::new(1, 4, 2, config);

        // the deltas of the `n`-th submission, when PAPI is measured
        let mut submissions = 0u64;
        let mut next_bank = || {
            submissions += 1;
            papi.then(|| {
                let mut bank = [0u64; MAX_EVENTS];
                bank[..N_EVENTS].copy_from_slice(&[submissions, 7 * submissions]);
                bank
            })
        };
        for &(kind, dst, mailbox, count, split, drain) in &ops {
            // `send`: `count` one-item runs; `send_slice` accepted in two
            // prefixes (an empty one is a refusal: its deltas are dropped);
            // one drained handler run
            let parts = match kind {
                0 => vec![1; count as usize],
                1 => vec![split.min(count), count - split.min(count)],
                _ => vec![count],
            };
            for part in parts {
                let bank = next_bank();
                buf.record_send_run(dst, 8, mailbox, part, bank);
                for i in 0..part {
                    let deltas = bank.as_ref().filter(|_| i == 0).map(|b| &b[..N_EVENTS]);
                    reference.record_send(dst, 8, mailbox, deltas);
                }
            }
            if drain == 0 {
                runs.drain(&mut buf);
            }
        }
        runs.drain(&mut buf);

        prop_assert_eq!(runs.logical_matrix(), reference.logical_matrix());
        prop_assert_eq!(runs.total_sends(), reference.total_sends());
        prop_assert_eq!(
            runs.logical_records().runs().collect::<Vec<_>>(),
            reference.logical_records().runs().collect::<Vec<_>>()
        );
        prop_assert_eq!(runs.papi_records(), reference.papi_records());
        prop_assert_eq!(runs.trace_bytes(), reference.trace_bytes());
        if mode == 2 {
            let kept = runs.logical_records().len() as u64;
            prop_assert_eq!(kept, reference.total_sends().div_ceil(sample as u64));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Quartiles are ordered and bounded by the sample.
    #[test]
    fn quartiles_are_ordered(values in proptest::collection::vec(0u64..1_000_000, 1..80)) {
        let q = Quartiles::of(&values);
        prop_assert!(q.min <= q.q1 && q.q1 <= q.median);
        prop_assert!(q.median <= q.q3 && q.q3 <= q.max);
        prop_assert_eq!(q.min, *values.iter().min().unwrap() as f64);
        prop_assert_eq!(q.max, *values.iter().max().unwrap() as f64);
        prop_assert!(q.mean >= q.min && q.mean <= q.max);
    }

    /// Matrix totals are conserved between row and column views.
    #[test]
    fn matrix_row_col_totals_agree(entries in proptest::collection::vec((0usize..6, 0usize..6, 0u64..1000), 0..40)) {
        let mut m = Matrix::zeros(6);
        for (r, c, v) in &entries {
            m.add(*r, *c, *v);
        }
        prop_assert_eq!(m.row_totals().iter().sum::<u64>(), m.total());
        prop_assert_eq!(m.col_totals().iter().sum::<u64>(), m.total());
        let lower = m.lower_triangular_fraction();
        prop_assert!((0.0..=1.0).contains(&lower));
        prop_assert_eq!(m.is_lower_triangular(), (lower - 1.0).abs() < 1e-12);
    }

    /// Both distributions partition the rows: every row has exactly one
    /// owner, owners are in range, and Range ownership is monotone.
    #[test]
    fn distributions_partition_rows(
        n in 1usize..200,
        p in 1usize..12,
        edges in proptest::collection::vec((0u32..200, 0u32..200), 0..100),
    ) {
        let edges: Vec<(u32, u32)> = edges
            .into_iter()
            .filter(|(a, b)| (*a as usize) < n && (*b as usize) < n)
            .collect();
        let l = Csr::from_edges(n, &to_lower_triangular(&edges));
        for d in [Distribution::cyclic(p), Distribution::range_by_nnz(&l, p)] {
            let mut owned = vec![0usize; n];
            for pe in 0..p {
                for row in d.rows_of(pe, n) {
                    owned[row] += 1;
                    prop_assert_eq!(d.owner(row), pe);
                }
            }
            prop_assert!(owned.iter().all(|&c| c == 1));
        }
        let range = Distribution::range_by_nnz(&l, p);
        let mut last = 0;
        for row in 0..n {
            let o = range.owner(row);
            prop_assert!(o >= last);
            last = o;
        }
    }

    /// R-MAT output is deterministic, in-range, and has the requested
    /// edge count.
    #[test]
    fn rmat_basic_properties(scale in 2u32..8, seed in 0u64..1000) {
        use actorprof_suite::fabsp_graph::rmat::{generate_edges, RmatParams};
        let params = RmatParams::graph500(scale).with_seed(seed);
        let edges = generate_edges(&params);
        prop_assert_eq!(edges.len(), params.n_edges());
        let n = params.n_vertices() as u32;
        prop_assert!(edges.iter().all(|(u, v)| *u < n && *v < n));
        prop_assert_eq!(generate_edges(&params), edges);
    }

    /// Lower-triangularization is idempotent and produces strict lower
    /// edges.
    #[test]
    fn lower_triangularization_properties(raw in proptest::collection::vec((0u32..50, 0u32..50), 0..200)) {
        let once = to_lower_triangular(&raw);
        prop_assert!(once.iter().all(|(u, v)| u > v));
        prop_assert!(once.windows(2).all(|w| w[0] < w[1]));
        let twice = to_lower_triangular(&once);
        prop_assert_eq!(once, twice);
    }
}
