//! The paper's §IV-D observations, asserted as tests.
//!
//! The absolute numbers of the paper came from scale-16 R-MAT on
//! Perlmutter; these tests check the *shape* claims — who is imbalanced,
//! in which direction, and which patterns appear — and assert them at
//! scale 9 only. They are not scale-stable: at scale 16 Fig 3's
//! hot-partner predicate finds one partner of PE0, not the paper's 3–4
//! (ROADMAP item 5 runs the claims as functions of scale).

use actorprof_suite::actorprof::overall::OverallSummary;
use actorprof_suite::actorprof::papi::PapiSeries;
use actorprof_suite::actorprof::stats::Imbalance;
use actorprof_suite::actorprof::TraceBundle;
use actorprof_suite::actorprof_trace::TraceConfig;
use actorprof_suite::fabsp_apps::triangle::{count_triangles, DistKind, TriangleConfig};
use actorprof_suite::fabsp_graph::edgelist::to_lower_triangular;
use actorprof_suite::fabsp_graph::rmat::{generate_edges, RmatParams};
use actorprof_suite::fabsp_graph::Csr;
use actorprof_suite::fabsp_hwpc::cost::model;
use actorprof_suite::fabsp_hwpc::Event;
use actorprof_suite::fabsp_shmem::{Grid, SchedSpec};

use std::sync::OnceLock;

const SCALE: u32 = 9;

fn graph() -> &'static Csr {
    static G: OnceLock<Csr> = OnceLock::new();
    G.get_or_init(|| {
        let params = RmatParams::graph500(SCALE);
        let edges = to_lower_triangular(&generate_edges(&params));
        Csr::from_edges(params.n_vertices(), &edges)
    })
}

fn run(grid: Grid, dist: DistKind) -> &'static TraceBundle {
    // Each (grid-kind, dist) pair is executed once and shared by every
    // claim test — the runs are the expensive part.
    static CACHE: OnceLock<[TraceBundle; 4]> = OnceLock::new();
    let cache = CACHE.get_or_init(|| {
        let mk = |grid: Grid, dist: DistKind| {
            count_triangles(
                graph(),
                &TriangleConfig::new(grid)
                    .with_dist(dist)
                    .with_trace(TraceConfig::all()),
            )
            .expect("case-study run")
            .bundle
        };
        let one = Grid::new(1, 8).unwrap();
        let two = Grid::new(2, 8).unwrap();
        [
            mk(one, DistKind::Cyclic),
            mk(one, DistKind::RangeByNnz),
            mk(two, DistKind::Cyclic),
            mk(two, DistKind::RangeByNnz),
        ]
    });
    let idx = match (grid.nodes(), dist) {
        (1, DistKind::Cyclic) => 0,
        (1, DistKind::RangeByNnz) => 1,
        (2, DistKind::Cyclic) => 2,
        (2, DistKind::RangeByNnz) => 3,
        _ => panic!("unexpected grid"),
    };
    &cache[idx]
}

fn one_node() -> Grid {
    Grid::new(1, 8).unwrap()
}

fn two_node() -> Grid {
    Grid::new(2, 8).unwrap()
}

/// Figs 3–4: "For 1D Cyclic ... PE0 incurs more communication with a
/// specific set of PEs relative to the rest."
#[test]
fn cyclic_pe0_is_the_hot_spot() {
    for grid in [one_node(), two_node()] {
        let m = run(grid, DistKind::Cyclic).logical_matrix().unwrap();
        let sends = m.row_totals();
        let recvs = m.col_totals();
        assert_eq!(
            Imbalance::of(&sends).argmax,
            0,
            "PE0 sends the most under cyclic ({:?} nodes)",
            grid.nodes()
        );
        assert_eq!(Imbalance::of(&recvs).argmax, 0, "PE0 receives the most");
        assert!(
            Imbalance::of(&sends).max_over_mean > 1.5,
            "heavy send imbalance expected, got {:.2}",
            Imbalance::of(&sends).max_over_mean
        );
    }
}

/// Figs 3–4 + 6: "the 1D Range has a lower triangular (L) shape" and the
/// recv totals decrease monotonically with rank.
#[test]
fn range_matrix_is_lower_triangular_with_decreasing_recvs() {
    for grid in [one_node(), two_node()] {
        let m = run(grid, DistKind::RangeByNnz).logical_matrix().unwrap();
        assert!(m.is_lower_triangular(), "(L) observation");
        let recvs = m.col_totals();
        let decreasing = recvs.windows(2).filter(|w| w[1] <= w[0]).count();
        assert!(
            decreasing as f64 >= (recvs.len() - 1) as f64 * 0.8,
            "recvs should trend monotonically down: {recvs:?}"
        );
    }
}

/// Fig 5 conclusion: Range balances *sends* much better than Cyclic, but
/// the *recv* imbalance persists.
#[test]
fn range_fixes_send_balance_but_not_recv_balance() {
    for grid in [one_node(), two_node()] {
        let cyclic = run(grid, DistKind::Cyclic).logical_matrix().unwrap();
        let range = run(grid, DistKind::RangeByNnz).logical_matrix().unwrap();
        let send_imb = |m: &actorprof_suite::actorprof::Matrix| {
            Imbalance::of(&m.row_totals()).max_over_mean
        };
        let recv_imb = |m: &actorprof_suite::actorprof::Matrix| {
            Imbalance::of(&m.col_totals()).max_over_mean
        };
        assert!(
            send_imb(&range) < send_imb(&cyclic),
            "range send balance must improve: {:.2} vs {:.2}",
            send_imb(&range),
            send_imb(&cyclic)
        );
        assert!(
            recv_imb(&range) > 1.3,
            "recv imbalance persists under range (paper's conclusion), got {:.2}",
            recv_imb(&range)
        );
    }
}

/// Fig 5: "1D Cyclic performs a maximum of ~6x sends" relative to Range —
/// we assert the direction and a conservative factor.
#[test]
fn cyclic_max_sends_dominate_range_max_sends() {
    for grid in [one_node(), two_node()] {
        let cyclic = run(grid, DistKind::Cyclic).logical_matrix().unwrap();
        let range = run(grid, DistKind::RangeByNnz).logical_matrix().unwrap();
        let max_send = |m: &actorprof_suite::actorprof::Matrix| {
            m.row_totals().into_iter().max().unwrap_or(0)
        };
        let ratio = max_send(&cyclic) as f64 / max_send(&range).max(1) as f64;
        assert!(
            ratio > 1.5,
            "cyclic max sends should far exceed range's (paper ~6x), got {ratio:.2}x"
        );
    }
}

/// Figs 8–9 topology claims: 1 node is pure local_send (1D linear);
/// 2 nodes split into row local_sends and column nonblock_sends (2D mesh).
#[test]
fn physical_trace_reflects_topology() {
    use actorprof_suite::actorprof_trace::SendType;
    let one = run(one_node(), DistKind::Cyclic);
    let local = one.physical_matrix(Some(SendType::LocalSend)).unwrap();
    let nonblock = one.physical_matrix(Some(SendType::NonblockSend)).unwrap();
    assert!(local.total() > 0);
    assert_eq!(nonblock.total(), 0, "one node: no non-blocking sends");

    let two_grid = two_node();
    let two = run(two_grid, DistKind::Cyclic);
    let local = two.physical_matrix(Some(SendType::LocalSend)).unwrap();
    let nonblock = two.physical_matrix(Some(SendType::NonblockSend)).unwrap();
    assert!(nonblock.total() > 0, "two nodes use the mesh column");
    for src in 0..two_grid.n_pes() {
        for dst in 0..two_grid.n_pes() {
            if local.get(src, dst) > 0 {
                assert!(two_grid.same_node(src, dst));
            }
            if nonblock.get(src, dst) > 0 {
                assert!(!two_grid.same_node(src, dst));
                assert_eq!(two_grid.local_index(src), two_grid.local_index(dst));
            }
        }
    }
}

/// Fig 7 direction: physical sends under Cyclic are worse (more buffers
/// from the hottest PE) than under Range.
#[test]
fn cyclic_physical_sends_exceed_range() {
    for grid in [one_node(), two_node()] {
        let cyclic = run(grid, DistKind::Cyclic).physical_matrix(None).unwrap();
        let range = run(grid, DistKind::RangeByNnz).physical_matrix(None).unwrap();
        let max_send = |m: &actorprof_suite::actorprof::Matrix| {
            m.row_totals().into_iter().max().unwrap_or(0)
        };
        assert!(
            max_send(&cyclic) > max_send(&range),
            "cyclic max buffer sends should exceed range's"
        );
    }
}

/// Figs 10–11: "PE0 suffers from an imbalance (up to ~5x) in the number
/// of instructions compared with other PEs" under 1D Cyclic.
#[test]
fn cyclic_instruction_counts_peak_on_pe0() {
    for grid in [one_node(), two_node()] {
        let bundle = run(grid, DistKind::Cyclic);
        let series = PapiSeries::from_bundle(bundle, Event::TotIns).unwrap();
        assert_eq!(series.imbalance.argmax, 0, "PE0 retires the most");
        assert!(
            series.imbalance.max_over_mean > 1.5,
            "instruction imbalance expected, got {:.2}",
            series.imbalance.max_over_mean
        );
        // Range flattens it
        let range = PapiSeries::from_bundle(run(grid, DistKind::RangeByNnz), Event::TotIns).unwrap();
        assert!(
            range.imbalance.max_over_mean < series.imbalance.max_over_mean,
            "range must reduce the instruction imbalance"
        );
    }
}

/// Figs 10–11 are a property of the program, not of what else is traced
/// or of the interleaving: the region profile of the case study is the
/// same with and without the PAPI message trace, under the OS schedule and
/// seeded ones — PROC (handler bodies only) exactly, MAIN at least the
/// modelled cost of every message the PE sent — and the traces both
/// configurations record agree.
#[test]
fn region_counters_do_not_depend_on_trace_config_or_schedule() {
    let without_papi = TraceConfig {
        papi: None,
        ..TraceConfig::all()
    };
    let traced = |trace: &TraceConfig, sched: SchedSpec| {
        let mut config = TriangleConfig::new(one_node()).with_trace(trace.clone());
        config.sched = sched;
        count_triangles(graph(), &config).expect("case-study run").bundle
    };
    let reference = run(one_node(), DistKind::Cyclic); // `all`, OS schedule
    let matrix = reference.logical_matrix().unwrap();
    let proc = reference.papi_proc_totals(Event::TotIns).unwrap();
    // a PAPI line without its counters: key, num_sends, pkt_size
    let lines = |b: &TraceBundle, pe: usize| -> Vec<(u32, u32, u64, u64)> {
        let recs = b.papi_records(pe);
        recs.iter().map(|r| (r.dst_pe, r.mailbox_id, r.num_sends, r.pkt_size)).collect()
    };
    let check = |bundle: &TraceBundle, ctx: &str| {
        assert_eq!(bundle.papi_proc_totals(Event::TotIns).unwrap(), proc, "{ctx}: PROC");
        assert_eq!(bundle.logical_matrix().unwrap(), matrix, "{ctx}: logical matrix");
        let main = bundle.papi_main_totals(Event::TotIns).unwrap();
        for (pe, sent) in matrix.row_totals().into_iter().enumerate() {
            assert!(
                main[pe] >= sent * model::SEND_PUSH.ins,
                "{ctx}: PE{pe} MAIN {} < {sent} sends x SEND_PUSH",
                main[pe]
            );
        }
    };

    check(reference, "all, OS schedule");
    check(&traced(&without_papi, SchedSpec::Os), "no papi, OS schedule");
    for seed in [0x9A91_0001, 0x9A91_0002] {
        let all = traced(&TraceConfig::all(), SchedSpec::random_walk(seed));
        check(&all, &format!("all, seed {seed:#x}"));
        for pe in 0..one_node().n_pes() {
            assert_eq!(lines(&all, pe), lines(reference, pe), "seed {seed:#x}: PE{pe} PAPI lines");
        }
        check(
            &traced(&without_papi, SchedSpec::random_walk(seed)),
            &format!("no papi, seed {seed:#x}"),
        );
    }
}

/// Figs 12–13: COMM is the bottleneck for both distributions; MAIN is a
/// small fraction of total time.
#[test]
fn comm_region_dominates_the_breakdown() {
    for grid in [one_node(), two_node()] {
        for dist in [DistKind::Cyclic, DistKind::RangeByNnz] {
            let records = run(grid, dist).overall_records().unwrap();
            let s = OverallSummary::of(&records);
            assert_eq!(
                s.bottleneck, "T_COMM",
                "{} on {} nodes: {:?}",
                dist.label(),
                grid.nodes(),
                (s.main.fraction, s.comm.fraction, s.proc.fraction)
            );
            assert!(
                s.main.fraction < 0.35,
                "MAIN is the small region (paper: <=5% at scale 16), got {:.2}",
                s.main.fraction
            );
        }
    }
}

/// Fig 5, one-node detail: under 1D Cyclic the total send and recv message
/// counts agree globally (every message sent is received).
#[test]
fn sends_equal_recvs_globally() {
    for grid in [one_node(), two_node()] {
        for dist in [DistKind::Cyclic, DistKind::RangeByNnz] {
            let m = run(grid, dist).logical_matrix().unwrap();
            assert_eq!(
                m.row_totals().iter().sum::<u64>(),
                m.col_totals().iter().sum::<u64>()
            );
            assert_eq!(m.total(), graph().wedge_count());
        }
    }
}
