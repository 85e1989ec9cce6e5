//! Facade-equivalence tests: `actorprof::Profiler` is a convenience layer,
//! not a different profiler. For a histogram and a triangle-counting
//! workload, the facade's [`Report`] must write trace artifacts that match
//! the legacy manual wiring — `spmd::run` + `Selector::new` +
//! `into_collector` + `TraceBundle::from_collectors` + `writer::write_all`
//! — **byte for byte**.
//!
//! Both sides run under the same seeded deterministic schedule so the
//! interleaving (and hence the physical trace and PAPI per-send deltas) is
//! reproducible. `overall.txt` is deliberately not collected: it contains
//! real rdtsc cycle counts, which no two runs share.
//!
//! A third test pins the facade's `checkpoint_every`: checkpointing every
//! superstep changes neither the results nor the logical trace.

use actorprof_suite::actorprof::{
    writer, Counter, PapiConfig, Profiler, Report, TraceBundle, TraceConfig,
};
use actorprof_suite::fabsp_actor::{ProcCtx, Selector, SelectorConfig};
use actorprof_suite::fabsp_conveyors::ConveyorOptions;
use actorprof_suite::fabsp_hwpc::Cost;
use actorprof_suite::fabsp_shmem::{spmd, Grid, Harness, Pe, SchedSpec};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;

const SEED: u64 = 0x5EED_CAFE;

/// Every format that can be compared across runs: per-send logical,
/// aggregate logical, PAPI, and physical (overall would embed wall time).
fn trace_cfg() -> TraceConfig {
    TraceConfig::off()
        .with_logical_records()
        .with_papi(PapiConfig::case_study())
        .with_physical()
}

fn sched() -> SchedSpec {
    SchedSpec::random_walk(SEED)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("actorprof-facade-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Assert the two directories hold the same file set with identical bytes.
fn assert_dirs_equal(facade: &Path, legacy: &Path) {
    let list = |d: &Path| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(d)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };
    let names = list(facade);
    assert_eq!(names, list(legacy), "facade and legacy wrote different file sets");
    assert!(!names.is_empty(), "comparison is vacuous: no trace files written");
    for name in names {
        let a = std::fs::read(facade.join(&name)).unwrap();
        let b = std::fs::read(legacy.join(&name)).unwrap();
        assert_eq!(
            a, b,
            "{name} differs between the Profiler facade and legacy wiring"
        );
    }
}

// ---------------------------------------------------------------- histogram

const TABLE: usize = 64;
const UPDATES: usize = 120;

/// The shared handler, used verbatim by both wirings.
fn histogram_handler(
    table: Rc<RefCell<Vec<u64>>>,
) -> impl FnMut(usize, u64, u32, &mut ProcCtx<'_, u64>) {
    move |_mb, slot, _from, _ctx| {
        Cost::instructions(6).charge();
        table.borrow_mut()[slot as usize] += 1;
    }
}

/// The shared superstep body, used verbatim by both wirings.
fn drive_histogram(pe: &Pe, actor: &mut Selector<'_, u64>) {
    let n = pe.n_pes();
    let me = pe.rank() as u64;
    actor
        .execute(pe, |main| {
            for i in 0..UPDATES as u64 {
                let slot = (me.wrapping_mul(0x9E37_79B9) ^ i.wrapping_mul(31)) % TABLE as u64;
                main.send(0, slot, ((i + me) as usize) % n).expect("send");
            }
            main.done(0).expect("done");
        })
        .expect("histogram execute");
}

fn facade_histogram(grid: Grid, dir: &Path) -> Vec<u64> {
    let report = Profiler::new(grid)
        .trace_config(trace_cfg())
        .sched(sched())
        .run(|pe, prof| {
            let table = Rc::new(RefCell::new(vec![0u64; TABLE]));
            let mut actor = prof
                .selector(1, histogram_handler(Rc::clone(&table)))
                .expect("selector");
            drive_histogram(pe, &mut actor);
            let got: u64 = table.borrow().iter().sum();
            got
        })
        .expect("facade histogram run");
    report.write_to(dir).expect("facade write_to");
    report.results
}

fn legacy_histogram(grid: Grid, dir: &Path) -> Vec<u64> {
    let per_pe = spmd::run(Harness::new(grid).sched(sched()), |pe| {
        let table = Rc::new(RefCell::new(vec![0u64; TABLE]));
        let mut actor = Selector::new(
            pe,
            1,
            SelectorConfig {
                conveyor: ConveyorOptions::default(),
                trace: trace_cfg(),
            },
            histogram_handler(Rc::clone(&table)),
        )
        .expect("selector");
        drive_histogram(pe, &mut actor);
        let got: u64 = table.borrow().iter().sum();
        (got, actor.into_collector())
    })
    .expect("legacy histogram run");
    let (sums, collectors): (Vec<_>, Vec<_>) = per_pe.into_iter().unzip();
    let bundle = TraceBundle::from_collectors(collectors).expect("bundle");
    writer::write_all(dir, &bundle).expect("legacy write_all");
    sums
}

#[test]
fn facade_matches_legacy_wiring_on_histogram() {
    let grid = Grid::new(2, 2).unwrap();
    let facade_dir = fresh_dir("hist-facade");
    let legacy_dir = fresh_dir("hist-legacy");

    let facade_sums = facade_histogram(grid, &facade_dir);
    let legacy_sums = legacy_histogram(grid, &legacy_dir);

    assert_eq!(facade_sums, legacy_sums, "per-PE results diverged");
    assert_eq!(
        facade_sums.iter().sum::<u64>(),
        (UPDATES * grid.n_pes()) as u64
    );
    assert_dirs_equal(&facade_dir, &legacy_dir);
    let _ = std::fs::remove_dir_all(&facade_dir);
    let _ = std::fs::remove_dir_all(&legacy_dir);
}

// ----------------------------------------------------------------- triangle

/// Vertices of a deterministic formula graph; vertex `v` lives on PE
/// `v % n_pes`.
const VERTS: u64 = 40;

/// Undirected edge predicate (arbitrary but fixed — both wirings and the
/// serial reference use it).
fn has_edge(u: u64, v: u64) -> bool {
    let (hi, lo) = if u > v { (u, v) } else { (v, u) };
    hi != lo && (hi.wrapping_mul(7) ^ lo.wrapping_mul(13)) % 3 == 0
}

fn neighbors_below(u: u64) -> Vec<u64> {
    (0..u).filter(|&v| has_edge(u, v)).collect()
}

/// Serial reference: triangles counted as closed wedges (j, k) under u.
fn reference_triangles() -> u64 {
    let mut count = 0;
    for u in 0..VERTS {
        let adj = neighbors_below(u);
        for (a, &j) in adj.iter().enumerate() {
            for &k in &adj[a + 1..] {
                count += u64::from(has_edge(k, j));
            }
        }
    }
    count
}

/// Two-mailbox wedge checker: mailbox 0 receives `(k << 16) | j`, answers
/// the edge-existence bit on mailbox 1; mailbox 1 accumulates.
fn triangle_handler(
    count: Rc<RefCell<u64>>,
) -> impl FnMut(usize, u64, u32, &mut ProcCtx<'_, u64>) {
    move |mb, msg, from, ctx| match mb {
        0 => {
            Cost::instructions(12).charge();
            let (k, j) = (msg >> 16, msg & 0xffff);
            ctx.send(1, u64::from(has_edge(k, j)), from as usize);
        }
        1 => {
            Cost::instructions(2).charge();
            *count.borrow_mut() += msg;
        }
        _ => unreachable!("two mailboxes"),
    }
}

fn drive_triangle(pe: &Pe, actor: &mut Selector<'_, u64>) {
    let n = pe.n_pes();
    actor.chain_done(1, 0).expect("responses end after requests");
    actor
        .execute(pe, |main| {
            for u in ((pe.rank() as u64)..VERTS).step_by(n) {
                let adj = neighbors_below(u);
                for (a, &j) in adj.iter().enumerate() {
                    for &k in &adj[a + 1..] {
                        main.send(0, (k << 16) | j, (k as usize) % n).expect("send");
                    }
                }
            }
            main.done(0).expect("done");
        })
        .expect("triangle execute");
}

fn facade_triangle(grid: Grid, dir: &Path) -> u64 {
    let report = Profiler::new(grid)
        .trace_config(trace_cfg())
        .sched(sched())
        .run(|pe, prof| {
            let count = Rc::new(RefCell::new(0u64));
            let mut actor = prof
                .selector(2, triangle_handler(Rc::clone(&count)))
                .expect("selector");
            drive_triangle(pe, &mut actor);
            let got = *count.borrow();
            got
        })
        .expect("facade triangle run");
    report.write_to(dir).expect("facade write_to");
    report.results.iter().sum()
}

fn legacy_triangle(grid: Grid, dir: &Path) -> u64 {
    let per_pe = spmd::run(Harness::new(grid).sched(sched()), |pe| {
        let count = Rc::new(RefCell::new(0u64));
        let mut actor = Selector::new(
            pe,
            2,
            SelectorConfig {
                conveyor: ConveyorOptions::default(),
                trace: trace_cfg(),
            },
            triangle_handler(Rc::clone(&count)),
        )
        .expect("selector");
        drive_triangle(pe, &mut actor);
        let got = *count.borrow();
        (got, actor.into_collector())
    })
    .expect("legacy triangle run");
    let (counts, collectors): (Vec<u64>, Vec<_>) = per_pe.into_iter().unzip();
    let bundle = TraceBundle::from_collectors(collectors).expect("bundle");
    writer::write_all(dir, &bundle).expect("legacy write_all");
    counts.iter().sum()
}

#[test]
fn facade_matches_legacy_wiring_on_triangle() {
    let grid = Grid::new(2, 2).unwrap();
    let facade_dir = fresh_dir("tri-facade");
    let legacy_dir = fresh_dir("tri-legacy");

    let facade_count = facade_triangle(grid, &facade_dir);
    let legacy_count = legacy_triangle(grid, &legacy_dir);

    let expected = reference_triangles();
    assert!(expected > 0, "formula graph must actually contain triangles");
    assert_eq!(facade_count, expected, "facade miscounted triangles");
    assert_eq!(legacy_count, expected, "legacy wiring miscounted triangles");
    assert_dirs_equal(&facade_dir, &legacy_dir);
    let _ = std::fs::remove_dir_all(&facade_dir);
    let _ = std::fs::remove_dir_all(&legacy_dir);
}

// --------------------------------------------------------------- checkpoint

/// A three-superstep kernel through the facade: each superstep every PE
/// sends one tagged message per peer; the handler folds them into a
/// per-PE accumulator that survives across supersteps.
fn three_superstep_run(profiler: Profiler) -> Report<u64> {
    profiler
        .run(|pe, prof| {
            let acc = Rc::new(RefCell::new(0u64));
            let a = Rc::clone(&acc);
            let mut actor = prof
                .selector(1, move |_mb, msg: u64, from, _ctx| {
                    *a.borrow_mut() += msg * (from as u64 + 1);
                })
                .expect("selector");
            for round in 0..3u64 {
                actor
                    .execute(pe, |ctx| {
                        for dst in 0..ctx.n_pes() {
                            ctx.send(0, round * 10 + ctx.rank() as u64, dst)
                                .expect("send");
                        }
                        ctx.done(0).expect("done");
                    })
                    .expect("execute");
            }
            let got = *acc.borrow();
            got
        })
        .expect("profiled run")
}

#[test]
fn checkpoint_every_superstep_changes_neither_results_nor_trace() {
    // Every superstep boundary takes a checkpoint, so the selector's
    // debug-build assert that each conveyor is checkpoint-ready runs at
    // all three boundaries.
    let grid = Grid::new(2, 2).unwrap();
    let plain = three_superstep_run(Profiler::new(grid).logical());
    let checkpointed = three_superstep_run(Profiler::new(grid).logical().checkpoint_every(1));
    assert_eq!(checkpointed.results, plain.results, "results diverged");
    assert_eq!(
        checkpointed.bundle.logical_matrix().expect("logical"),
        plain.bundle.logical_matrix().expect("logical"),
        "logical trace diverged"
    );
    let count = |r: &Report<u64>| {
        r.telemetry
            .as_ref()
            .expect("telemetry on by default")
            .counter_per_pe(Counter::Checkpoints)
    };
    assert_eq!(
        count(&checkpointed),
        vec![3; grid.n_pes()],
        "one per superstep per PE"
    );
    assert_eq!(
        count(&plain),
        vec![0; grid.n_pes()],
        "no period, no checkpoint"
    );
}
