//! The three-app conformance registry — `fabsp_testkit::matrix` made
//! concrete.
//!
//! One [`AppSpec`] per bundled workload, each mapping the generic
//! [`MatrixParams`] (grid, scale, schedule, faults, conveyor options) to
//! that app's config, running it through the [`actorprof::Profiler`]
//! facade, and reducing the outcome to a [`MatrixRun`]: a canonical FNV
//! digest of the full deterministic result, an independently computed
//! digest of the sequential golden oracle, and the flattened logical trace
//! matrix. The schedule-fuzz and race-detect suites iterate [`registry`]
//! instead of hand-writing one test per app.
//!
//! ## Adding a fourth app
//!
//! Three pieces, ~40 lines total, all in this file:
//! 1. a `*_config(params)` builder mapping [`MatrixParams`] to your
//!    app's config (apply [`apply_params`], derive sizes from
//!    `params.scale`);
//! 2. a `run_*` fn running the app and digesting (a) the canonical
//!    result and (b) the sequential oracle over the same projection;
//! 3. one [`AppSpec`] entry in [`registry`] with a seed budget.
//!
//! Nothing in the test suites changes: they pick the new entry up on the
//! next run.

use actorprof::TraceBundle;
use actorprof_trace::TraceConfig;
use fabsp_graph::edgelist::to_lower_triangular;
use fabsp_graph::rmat::{generate_edges, RmatParams};
use fabsp_graph::Csr;
use fabsp_testkit::matrix::{fnv1a, AppSpec, MatrixParams, MatrixRun};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::RunConfig;
use crate::histogram::{self, HistogramConfig};
use crate::index_gather::{self, IndexGatherConfig};
use crate::triangle::{count_triangles, DistKind, TriangleConfig};

/// Copy the substrate knobs of [`MatrixParams`] onto a [`RunConfig`].
pub fn apply_params<W>(run: &mut RunConfig<W>, p: &MatrixParams) {
    run.trace = if p.logical {
        TraceConfig::off().with_logical()
    } else {
        TraceConfig::off()
    };
    run.conveyor = p.conveyor;
    run.sched = p.sched;
    run.faults = p.faults;
}

/// Flatten the bundle's logical matrix row-major, when requested.
fn flatten_logical(bundle: &TraceBundle, p: &MatrixParams) -> Option<Vec<u64>> {
    if !p.logical {
        return None;
    }
    let m = bundle
        .logical_matrix()
        .expect("logical trace requested but not collected");
    Some((0..m.n()).flat_map(|r| m.row(r).to_vec()).collect())
}

/// The deterministic R-MAT scale of the triangle workload, sized off the
/// global scale (tiny: scheduled replays run a hundred times in CI).
fn graph_scale(p: &MatrixParams) -> u32 {
    p.scale.saturating_sub(2).clamp(3, 6)
}

// ---------------------------------------------------------------- histogram

fn run_histogram(p: &MatrixParams) -> Result<MatrixRun, String> {
    let mut cfg = HistogramConfig::new(p.grid);
    apply_params(&mut cfg, p);
    cfg.table_size_per_pe = 4 * p.scale as usize;
    cfg.updates_per_pe = 8 * p.scale as usize;
    let out = histogram::run(&cfg).map_err(|e| format!("histogram: {e}"))?;

    // oracle: replay every PE's seeded stream, count landings per PE
    let n_pes = p.grid.n_pes();
    let table = cfg.table_size_per_pe;
    let mut landings = vec![0u64; n_pes];
    for rank in 0..n_pes {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ ((rank as u64) << 32));
        for _ in 0..cfg.updates_per_pe {
            let global: usize = rng.gen_range(0..n_pes * table);
            landings[global / table] += 1;
        }
    }
    Ok(MatrixRun {
        result_digest: fnv1a(out.per_pe_updates.iter().copied()),
        golden_digest: fnv1a(landings),
        logical: flatten_logical(&out.bundle, p),
        n_pes,
    })
}

// ------------------------------------------------------------- index-gather

fn run_index_gather(p: &MatrixParams) -> Result<MatrixRun, String> {
    let mut cfg = IndexGatherConfig::new(p.grid);
    apply_params(&mut cfg, p);
    cfg.table_size_per_pe = 4 * p.scale as usize;
    cfg.reads_per_pe = 8 * p.scale as usize;
    let out = index_gather::run(&cfg).map_err(|e| format!("index_gather: {e}"))?;
    // run() validates every gathered value; the countable golden
    // projection is "every issued read came back correct"
    let expected = (cfg.reads_per_pe * p.grid.n_pes()) as u64;
    Ok(MatrixRun {
        result_digest: fnv1a([out.correct_reads]),
        golden_digest: fnv1a([expected]),
        logical: flatten_logical(&out.bundle, p),
        n_pes: p.grid.n_pes(),
    })
}

// ----------------------------------------------------------------- triangle

fn run_triangle(p: &MatrixParams) -> Result<MatrixRun, String> {
    let rp = RmatParams::graph500(graph_scale(p));
    let l = Csr::from_edges(rp.n_vertices(), &to_lower_triangular(&generate_edges(&rp)));
    let mut cfg = TriangleConfig::new(p.grid).with_dist(DistKind::Cyclic);
    apply_params(&mut cfg, p);
    let out = count_triangles(&l, &cfg).map_err(|e| format!("triangle: {e}"))?;

    // oracle: replay Algorithm 1's wedge checks sequentially, crediting
    // the PE that owns row j — per-PE golden counts, not just the total
    let n_pes = p.grid.n_pes();
    let dist = DistKind::Cyclic.resolve(&l, n_pes);
    let mut per_pe = vec![0u64; n_pes];
    for i in 0..l.n() {
        let row = l.row(i);
        for (a, &k) in row.iter().enumerate() {
            for &j in &row[a + 1..] {
                if l.row(j as usize).binary_search(&k).is_ok() {
                    per_pe[dist.owner(j as usize)] += 1;
                }
            }
        }
    }
    let golden_total: u64 = per_pe.iter().sum();
    Ok(MatrixRun {
        result_digest: fnv1a(
            std::iter::once(out.triangles).chain(out.per_pe_triangles.iter().copied()),
        ),
        golden_digest: fnv1a(std::iter::once(golden_total).chain(per_pe)),
        logical: flatten_logical(&out.bundle, p),
        n_pes,
    })
}

/// Every bundled workload, one [`AppSpec`] each. Seed budgets are tuned
/// so the full fuzz sweep (Σ budgets × 2 fault modes = 102 schedules)
/// clears the 100-schedule floor; triangle, the slowest, runs the fewest
/// replays.
pub fn registry() -> Vec<AppSpec> {
    vec![
        AppSpec {
            name: "histogram",
            fuzz_seed_budget: 19,
            runner: run_histogram,
        },
        AppSpec {
            name: "index_gather",
            fuzz_seed_budget: 19,
            runner: run_index_gather,
        },
        AppSpec {
            name: "triangle",
            fuzz_seed_budget: 13,
            runner: run_triangle,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabsp_shmem::Grid;

    #[test]
    fn registry_names_are_unique_and_budgets_clear_the_floor() {
        let apps = registry();
        assert_eq!(apps.len(), 3, "three apps in the matrix");
        let mut names: Vec<&str> = apps.iter().map(|a| a.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 3, "names are unique");
        let total: u64 = apps.iter().map(|a| a.fuzz_seed_budget).sum();
        assert!(
            total * 2 >= 100,
            "Σ budgets × 2 fault modes = {} must clear the 100-schedule floor",
            total * 2
        );
    }

    #[test]
    fn every_app_reproduces_its_golden_oracle() {
        let mut params = MatrixParams::new(Grid::single_node(4).unwrap());
        params.scale = 5;
        for app in registry() {
            let run = app
                .run(&params)
                .unwrap_or_else(|e| panic!("{}: {e}", app.name));
            run.assert_golden(&app.name);
            let logical = run.logical.as_ref().expect("logical requested");
            assert_eq!(logical.len(), 16, "4x4 flattened matrix");
            assert!(
                logical.iter().sum::<u64>() > 0,
                "{}: every app sends messages",
                app.name
            );
        }
    }

    #[test]
    fn matrix_runs_are_reproducible() {
        let mut params = MatrixParams::new(Grid::single_node(2).unwrap());
        params.scale = 4;
        for app in registry() {
            let a = app.run(&params).unwrap();
            let b = app.run(&params).unwrap();
            a.assert_matches(&b, &app.name);
        }
    }
}
