//! Skewed-key aggregation — a deliberately load-imbalanced workload.
//!
//! Every PE draws `updates_per_pe` keys from a Zipf distribution
//! ([`fabsp_graph::ZipfSampler`]) and sends `(key, value)` updates to the
//! key's owner (`key % n_pes`). With the default exponent the hottest key
//! draws an order of magnitude more traffic than the median, and since
//! key 0 lands on PE 0, that PE becomes a hotspot — by design. The
//! Fig-10-style imbalance views (per-PE handler counts, logical-matrix
//! column skew) get real signal from this app, unlike the uniform
//! workloads where imbalance only appears at tiny scales by chance.
//!
//! Aggregation is integer-exact (count + sum in `u64`), so the result is
//! independent of delivery order with no canonicalization step.

use actorprof::TraceBundle;
use fabsp_graph::ZipfSampler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

use crate::common::{AppError, AppParams, DestBuckets, RunConfig};

/// The aggregation update message.
#[derive(Debug, Clone, Copy, Default)]
pub struct Update {
    /// Aggregation key (Zipf-distributed; key 0 is the hottest).
    pub key: u32,
    /// Value folded into the key's running sum.
    pub val: u64,
}

/// Skewed-aggregation parameters; `cfg.seed` seeds the key/value streams.
#[derive(Debug, Clone)]
pub struct SkewedAggParams {
    /// Updates issued by each PE.
    pub updates_per_pe: usize,
    /// Size of the key space.
    pub n_keys: usize,
    /// Zipf exponent: 0 = uniform, ≥1.5 = strongly skewed (default).
    pub exponent: f64,
}

impl Default for SkewedAggParams {
    /// A small, strongly skewed default.
    fn default() -> Self {
        SkewedAggParams {
            updates_per_pe: 2048,
            n_keys: 64,
            exponent: 1.5,
        }
    }
}

impl AppParams for SkewedAggParams {
    const SEED: u64 = 0x51CE;
}

/// Configuration for a skewed-aggregation run: the shared [`RunConfig`]
/// plus [`SkewedAggParams`].
pub type SkewedAggConfig = RunConfig<SkewedAggParams>;

/// Result of a skewed-aggregation run.
#[derive(Debug)]
pub struct SkewedAggOutcome {
    /// Per-key `(count, sum)`, indexed by key. Counts total
    /// `updates_per_pe * n_pes`.
    pub per_key: Vec<(u64, u64)>,
    /// Updates each PE's handler received — the load-imbalance signal.
    pub received_per_pe: Vec<u64>,
    /// `max(received) / mean(received)`: 1.0 is perfect balance; the
    /// default exponent drives this well above 1.
    pub imbalance: f64,
    /// The collected traces.
    pub bundle: TraceBundle,
    /// Fault-tolerance activity (clean on an undisturbed run).
    pub recovery: actorprof::RecoveryLog,
}

/// The update stream a `(seed, rank)` pair names (shared with the
/// sequential oracle). Values are derived from the same RNG draw stream.
fn updates_of_pe(config: &SkewedAggConfig, rank: usize) -> Vec<Update> {
    let zipf = ZipfSampler::new(config.n_keys, config.exponent);
    let mut rng = StdRng::seed_from_u64(config.seed ^ ((rank as u64) << 32));
    (0..config.updates_per_pe)
        .map(|_| {
            let key = zipf.sample(&mut rng) as u32;
            let val = rng.gen_range(1..1001u64);
            Update { key, val }
        })
        .collect()
}

/// Sequential oracle: per-key `(count, sum)` over every PE's stream.
pub fn sequential_aggregate(config: &SkewedAggConfig) -> Vec<(u64, u64)> {
    let mut per_key = vec![(0u64, 0u64); config.n_keys];
    for rank in 0..config.grid.n_pes() {
        for u in updates_of_pe(config, rank) {
            let e = &mut per_key[u.key as usize];
            e.0 += 1;
            e.1 += u.val;
        }
    }
    per_key
}

/// Run the skewed aggregation. Validates against
/// [`sequential_aggregate`].
pub fn run(config: &SkewedAggConfig) -> Result<SkewedAggOutcome, AppError> {
    let n_pes = config.grid.n_pes();
    let n_keys = config.n_keys;
    // local key index for key k owned by k % n_pes
    let local_slots = n_keys.div_ceil(n_pes);

    let report = config.profiler().run(|pe, prof| {
        let agg = Rc::new(RefCell::new(vec![(0u64, 0u64); local_slots]));
        let a = Rc::clone(&agg);
        let mut actor = prof
            .selector(1, move |_mb, u: Update, _from, _ctx| {
                let mut a = a.borrow_mut();
                let e = &mut a[u.key as usize / n_pes];
                e.0 += 1;
                e.1 += u.val;
            })
            .expect("selector construction");
        actor
            .execute(pe, |ctx| {
                let mut scatter = DestBuckets::new(n_pes);
                for u in updates_of_pe(config, ctx.rank()) {
                    scatter
                        .stage(ctx, 0, u.key as usize % n_pes, u)
                        .expect("update send");
                }
                scatter.send_all(ctx, 0).expect("update send");
                ctx.done(0).expect("done(0)");
            })
            .expect("skewed-agg execute");
        let local = agg.borrow().clone();
        local
    })?;

    let (per_pe, bundle, recovery) = (report.results, report.bundle, report.recovery);
    let received_per_pe: Vec<u64> = per_pe
        .iter()
        .map(|slots| slots.iter().map(|&(c, _)| c).sum())
        .collect();
    let mut per_key = vec![(0u64, 0u64); n_keys];
    for (rank, slots) in per_pe.into_iter().enumerate() {
        for (local, cs) in slots.into_iter().enumerate() {
            let key = local * n_pes + rank;
            if key < n_keys {
                per_key[key] = cs;
            }
        }
    }

    if per_key != sequential_aggregate(config) {
        return Err(AppError::Validation(
            "aggregated (count, sum) table differs from the sequential oracle".into(),
        ));
    }
    let total: u64 = received_per_pe.iter().sum();
    let mean = total as f64 / n_pes as f64;
    let max = received_per_pe.iter().copied().max().unwrap_or(0) as f64;
    let imbalance = if mean > 0.0 { max / mean } else { 1.0 };
    Ok(SkewedAggOutcome {
        per_key,
        received_per_pe,
        imbalance,
        bundle,
        recovery,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use actorprof_trace::TraceConfig;
    use fabsp_shmem::Grid;

    #[test]
    fn conserves_updates_and_matches_oracle() {
        let mut cfg = SkewedAggConfig::new(Grid::single_node(4).unwrap());
        cfg.updates_per_pe = 500;
        let out = run(&cfg).unwrap();
        let total: u64 = out.per_key.iter().map(|&(c, _)| c).sum();
        assert_eq!(total, 2000, "every update aggregated exactly once");
    }

    #[test]
    fn skew_breaks_load_balance_on_purpose() {
        let mut cfg = SkewedAggConfig::new(Grid::new(2, 2).unwrap());
        cfg.updates_per_pe = 2000;
        cfg.trace = TraceConfig::off().with_logical();
        let out = run(&cfg).unwrap();
        // PE 0 owns key 0, the hottest key: it must be the hotspot
        let max_pe = out
            .received_per_pe
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .map(|(pe, _)| pe)
            .unwrap();
        assert_eq!(max_pe, 0, "hot key 0 lands on PE 0: {:?}", out.received_per_pe);
        assert!(
            out.imbalance > 1.5,
            "default exponent must visibly skew the load: {}",
            out.imbalance
        );
        // the logical matrix sees the same skew in its column totals
        let m = out.bundle.logical_matrix().unwrap();
        let cols = m.col_totals();
        assert!(cols[0] > cols[2] * 2, "column skew: {cols:?}");
    }

    #[test]
    fn zero_exponent_is_balanced() {
        let mut cfg = SkewedAggConfig::new(Grid::single_node(4).unwrap());
        cfg.updates_per_pe = 2000;
        cfg.exponent = 0.0;
        let out = run(&cfg).unwrap();
        assert!(
            out.imbalance < 1.2,
            "uniform keys spread evenly: {}",
            out.imbalance
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut cfg = SkewedAggConfig::new(Grid::single_node(2).unwrap());
        cfg.updates_per_pe = 300;
        let a = run(&cfg).unwrap();
        let b = run(&cfg).unwrap();
        assert_eq!(a.per_key, b.per_key);
        assert_eq!(a.received_per_pe, b.received_per_pe);
    }

    #[test]
    fn recovers_from_a_killed_pe() {
        use fabsp_shmem::{FaultSpec, RecoverySpec};
        let mut cfg = SkewedAggConfig::new(Grid::single_node(2).unwrap());
        cfg.updates_per_pe = 200;
        let base = run(&cfg).unwrap();
        assert!(base.recovery.is_clean(), "{}", base.recovery);
        cfg.faults = FaultSpec::kill_pe(1, 0);
        cfg.recovery = RecoverySpec::restart(2);
        cfg.checkpoint_every = Some(1);
        let out = run(&cfg).unwrap();
        assert_eq!(out.per_key, base.per_key);
        assert_eq!(out.recovery.restarts, 1, "{}", out.recovery);
    }
}
