//! # fabsp-graph — graph substrate for the ActorProf case study
//!
//! The paper's evaluation (§IV) profiles distributed triangle counting on
//! an R-MAT graph "generated on a scale of 16 with R-MAT parameters of
//! A = 57.0, B = C = 19.0, D = 5.0, and an edge factor of 16, following
//! graph500 benchmark standards", distributed either **1D Cyclic** (equal
//! vertices per PE) or **1D Range** (equal edges per PE). This crate
//! provides all of that:
//!
//! - [`rmat`] — the recursive-matrix generator with graph500 parameters;
//! - [`edgelist`] — dedup/self-loop/lower-triangular edge processing;
//! - [`csr`] — compressed sparse row storage with O(log d) edge queries;
//! - [`dist`] — the two row distributions and their ownership maps;
//! - [`triangle_ref`] — two independent sequential triangle counts that
//!   validate the distributed runs "by using assertion" as §IV-C does: a
//!   marker-array intersection each run asserts against, and a replay of
//!   Algorithm 1 that tests use as the golden value.
//!
//! The power-law skew of unpermuted R-MAT concentrates high-degree hubs at
//! low vertex ids (vertex 0 is the biggest); under 1D Cyclic those hubs
//! land on PE 0 — the root cause of every load-imbalance observation in
//! the paper's figures.

// Zero unsafe today; keep it that way by construction.
#![forbid(unsafe_code)]

pub mod csr;
pub mod dist;
pub mod edgelist;
pub mod rmat;
pub mod triangle_ref;

pub use csr::Csr;
pub use dist::Distribution;
pub use rmat::RmatParams;
