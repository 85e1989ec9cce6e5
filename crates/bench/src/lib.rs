//! # fabsp-bench — the ActorProf evaluation, regenerated
//!
//! `figures <id|all>` regenerates the figures of §IV (`fig03`…`fig13`,
//! which `all` runs) and the scaling / topology / trace-size sweeps; the
//! other bins are the functional smokes CI runs. The shared harness here
//! builds the case-study workload — triangle counting over a graph500 R-MAT matrix under 1D Cyclic / 1D
//! Range on the paper's 1×16 and 2×16 PE grids — and renders/prints each
//! figure's series. Wall-clock measurement lives in `benchmark/`, not here.
//!
//! ## Scaling knobs (environment)
//!
//! The paper ran scale 16 on Perlmutter; this reproduction defaults to a
//! smaller scale so every figure regenerates in seconds. The *shape*
//! observations are asserted at scale 9 (`tests/paper_claims.rs`) and are
//! not all scale-stable: at scale 16 Fig 3's hot-partner predicate flips.
//!
//! - `ACTORPROF_SCALE` — R-MAT scale (default 10).
//! - `ACTORPROF_PES` — PEs per node (default 16, the paper's value).
//! - `ACTORPROF_OUT` — output directory for figures (default
//!   `target/actorprof-figures`).

// Zero unsafe today; keep it that way by construction.
#![forbid(unsafe_code)]

pub mod cockpit_fixture;
pub mod experiment;
pub mod figures;

pub use experiment::{
    build_case_study_graph, env_pes_per_node, env_scale, figure_dir, grid_1node, grid_2node,
    run_traced_tc, FigureCtx,
};
