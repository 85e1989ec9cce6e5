//! The app conformance matrix — one generic registry, every workload.
//!
//! The deterministic-schedule and race-detect suites both
//! need the same thing from every bundled application: "build a config
//! from these substrate knobs, run, and give me something comparable".
//! This module defines that contract *generically* — [`AppSpec`] is a
//! name, a seed budget, and a runner from [`MatrixParams`] (the substrate
//! knobs) to [`MatrixRun`] (digests + flattened logical matrix). The
//! concrete three-app registry lives in
//! `fabsp_apps::matrix` (`fabsp_apps::registry()`), keeping the
//! dependency edge apps → testkit and letting the suites iterate
//! `for app in registry()` instead of hand-writing one test per app.
//!
//! Comparability is by digest: every runner reduces its app's full result
//! to a canonical [`fnv1a`] digest (collections sorted first, floats by
//! bit pattern after any canonical fold), and independently digests the
//! app's *sequential oracle* over the same projection. Equal digests ⇒
//! the distributed run reproduced the golden result; equal
//! [`MatrixRun::result_digest`]s across schedules ⇒ schedule
//! independence, bit-for-bit.
//!
//! Adding a fourth app is ~40 lines in `fabsp_apps::matrix`: a config
//! builder from `MatrixParams`, a runner that digests the outcome and the
//! oracle, and one `AppSpec` entry. Nothing in the suites changes.

use std::fmt;

use fabsp_shmem::{FaultSpec, Grid, SchedSpec};

use crate::ConveyorOptions;

/// Default scale when `ACTORPROF_SCALE` is unset: small enough that a
/// full three-app × two-fault-mode × seed-budget sweep stays in CI
/// budget, large enough that every PE sees real traffic.
pub const DEFAULT_SCALE: u32 = 6;

/// The global scale knob, from `ACTORPROF_SCALE` (clamped to `3..=12`).
/// Apps derive their workload sizes from this one number so CI can shrink
/// or grow the whole matrix with one env var.
pub fn scale_from_env() -> u32 {
    std::env::var("ACTORPROF_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SCALE)
        .clamp(3, 12)
}

/// Substrate knobs a matrix run hands to an app's config builder — the
/// same set `fabsp_apps::common::RunConfig` carries, minus anything
/// app-specific.
#[derive(Debug, Clone)]
pub struct MatrixParams {
    /// PE/node layout.
    pub grid: Grid,
    /// Global workload scale (see [`scale_from_env`]); apps map it to
    /// their own size knobs.
    pub scale: u32,
    /// Collect the logical trace matrix? (Suites that compare traffic
    /// need it; overhead gates turn it off for the untraced arm.)
    pub logical: bool,
    /// Conveyor aggregation options (capacity-1 lanes shrink these).
    pub conveyor: ConveyorOptions,
    /// Thread schedule.
    pub sched: SchedSpec,
    /// Substrate fault injection.
    pub faults: FaultSpec,
}

impl MatrixParams {
    /// Baseline params on the given grid: env scale, logical tracing on,
    /// default conveyors, OS schedule, no faults.
    pub fn new(grid: Grid) -> MatrixParams {
        MatrixParams {
            grid,
            scale: scale_from_env(),
            logical: true,
            conveyor: ConveyorOptions::default(),
            sched: SchedSpec::Os,
            faults: FaultSpec::NONE,
        }
    }

    /// Select the thread schedule.
    pub fn with_sched(mut self, sched: SchedSpec) -> MatrixParams {
        self.sched = sched;
        self
    }

    /// Inject substrate faults.
    pub fn with_faults(mut self, faults: FaultSpec) -> MatrixParams {
        self.faults = faults;
        self
    }

    /// Override conveyor options (capacity-1 stress lanes).
    pub fn with_conveyor(mut self, conveyor: ConveyorOptions) -> MatrixParams {
        self.conveyor = conveyor;
        self
    }
}

/// The uniform, comparable result of one matrix run.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixRun {
    /// Canonical digest of the app's full deterministic result.
    pub result_digest: u64,
    /// Digest of the sequential golden oracle over the same projection.
    pub golden_digest: u64,
    /// Flattened `n_pes × n_pes` logical trace matrix (row-major), when
    /// [`MatrixParams::logical`] was set.
    pub logical: Option<Vec<u64>>,
    /// PE count the run used (the logical matrix's dimension).
    pub n_pes: usize,
}

impl MatrixRun {
    /// Assert the distributed result reproduced the golden oracle.
    ///
    /// # Panics
    /// Panics naming `ctx` (app + seed, usually) on mismatch.
    pub fn assert_golden(&self, ctx: &dyn fmt::Display) {
        assert_eq!(
            self.result_digest, self.golden_digest,
            "{ctx}: distributed result diverged from the golden oracle"
        );
    }

    /// Assert this run matches a baseline run bit-for-bit: same result
    /// digest and same logical trace matrix.
    ///
    /// # Panics
    /// Panics naming `ctx` on any divergence.
    pub fn assert_matches(&self, baseline: &MatrixRun, ctx: &dyn fmt::Display) {
        assert_eq!(
            self.result_digest, baseline.result_digest,
            "{ctx}: result diverged from baseline"
        );
        assert_eq!(
            self.logical, baseline.logical,
            "{ctx}: logical trace matrix diverged from baseline"
        );
    }
}

/// One registered application: a name for failure messages, a per-app
/// seed budget for the fuzz sweep (cheap apps afford more seeds), and the
/// runner that maps substrate knobs to a comparable run.
///
/// `runner` is a plain `fn` — everything a run needs rides in
/// [`MatrixParams`], which keeps registry entries `'static` and the
/// registry itself a simple `Vec`.
#[derive(Debug, Clone, Copy)]
pub struct AppSpec {
    /// Short app name (`"histogram"`, `"triangle"`, …).
    pub name: &'static str,
    /// Schedule-fuzz seeds this app runs per fault mode.
    pub fuzz_seed_budget: u64,
    /// Build the app's config from the params, run it, digest it.
    pub runner: fn(&MatrixParams) -> Result<MatrixRun, String>,
}

impl AppSpec {
    /// Run the app under these params.
    pub fn run(&self, params: &MatrixParams) -> Result<MatrixRun, String> {
        (self.runner)(params)
    }
}

/// FNV-1a over a stream of `u64` words (each folded as its eight
/// little-endian bytes) — the canonical result digest. Not cryptographic;
/// collision resistance here only has to beat "two different app results
/// produced by the same deterministic seed", and a 64-bit FNV state is
/// plenty for that.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(OFFSET, |h, byte| (h ^ u64::from(byte)).wrapping_mul(PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let a = fnv1a([1, 2, 3]);
        let b = fnv1a([1, 2, 3]);
        let c = fnv1a([3, 2, 1]);
        assert_eq!(a, b);
        assert_ne!(a, c, "canonical order matters; callers sort first");
        assert_ne!(fnv1a([]), fnv1a([0]), "a zero word is not a no-op");
    }

    #[test]
    fn matrix_run_assertions() {
        let run = MatrixRun {
            result_digest: 7,
            golden_digest: 7,
            logical: Some(vec![0, 1, 1, 0]),
            n_pes: 2,
        };
        run.assert_golden(&"test");
        run.assert_matches(&run.clone(), &"test");
    }

    #[test]
    #[should_panic(expected = "diverged from the golden oracle")]
    fn golden_mismatch_panics() {
        let run = MatrixRun {
            result_digest: 7,
            golden_digest: 8,
            logical: None,
            n_pes: 2,
        };
        run.assert_golden(&"test");
    }

    #[test]
    fn params_builders_compose() {
        let grid = Grid::single_node(2).unwrap();
        let p = MatrixParams::new(grid)
            .with_sched(SchedSpec::random_walk(3))
            .with_faults(FaultSpec::nbi_shuffle(9));
        assert!(matches!(p.sched, SchedSpec::RandomWalk { seed: 3, .. }));
        assert_eq!(p.faults.nbi_shuffle_seed, Some(9));
        assert!(p.logical);
    }

    #[test]
    fn scale_env_is_clamped() {
        // can't set env safely in parallel tests; just check the default
        // path and the clamp arithmetic
        assert_eq!(DEFAULT_SCALE.clamp(3, 12), DEFAULT_SCALE);
        assert_eq!(99u32.clamp(3, 12), 12);
        assert_eq!(1u32.clamp(3, 12), 3);
    }
}
