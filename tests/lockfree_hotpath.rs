//! The lock-freedom acceptance gate: the per-message conveyor hot path
//! (`push` + `pull`) must never acquire a mutex. The vendored parking_lot
//! shim counts the calling thread's successful lock acquisitions in every
//! build profile ([`debug_lock_acquisitions`]), so a mutex anywhere on the
//! path — say, a `SymmetricVec` landing-slot region sneaking back in —
//! fails these tests instead of silently re-serializing the benchmark,
//! under `--release` as well as in debug builds.
//!
//! The runs use a plain [`Grid`] (free-running world, no deterministic
//! scheduler), which in debug builds also arms the conveyor's own internal
//! probes: `push` asserts a zero delta around its body whenever
//! `!pe.is_scheduled()`, and `pull` asserts unconditionally.

use actorprof_suite::fabsp_conveyors::{Conveyor, ConveyorOptions, TopologySpec};
use actorprof_suite::fabsp_shmem::{debug_lock_acquisitions, spmd, Grid};

/// All-to-all exchange measuring the lock delta attributable to `push` and
/// `pull` alone (`advance` may legitimately lock: barriers, nbi drains).
/// Returns (messages exchanged, hot-path lock delta) per PE.
fn hotpath_lock_delta(grid: Grid, items: usize, capacity: usize) -> Vec<(u64, u64)> {
    spmd::run(grid, move |pe| {
        // telemetry is on by default: the zero deltas below prove the
        // always-on metrics stay off the mutex path too
        assert!(
            pe.metrics().is_some(),
            "default harness must wire the telemetry registry"
        );
        let mut c = Conveyor::<u64>::new(
            pe,
            ConveyorOptions {
                capacity,
                topology: TopologySpec::Auto,
            },
        )
        .unwrap();
        let n = pe.n_pes();
        let me = pe.rank();
        let mut next = 0usize;
        let mut received = 0u64;
        let mut hot_delta = 0u64;
        loop {
            let before = debug_lock_acquisitions();
            while next < items {
                let dst = (me + next) % n;
                if c.push(pe, next as u64, dst).unwrap().is_accepted() {
                    next += 1;
                } else {
                    break;
                }
            }
            hot_delta += debug_lock_acquisitions() - before;

            let active = c.advance(pe, next == items);

            let before = debug_lock_acquisitions();
            while c.pull().is_some() {
                received += 1;
            }
            hot_delta += debug_lock_acquisitions() - before;
            if !active {
                break;
            }
            pe.poll_yield();
        }
        (received, hot_delta)
    })
    .unwrap()
}

#[test]
fn push_and_pull_take_no_locks_single_node() {
    for (got, delta) in hotpath_lock_delta(Grid::single_node(4).unwrap(), 3000, 64) {
        assert_eq!(got, 3000);
        assert_eq!(delta, 0, "mutex acquired on the single-node hot path");
    }
}

#[test]
fn push_and_pull_take_no_locks_across_nodes() {
    // 2x2 mesh: exercises local links, remote (nbi) links, and the relay
    // re-stage path — all of which run inside push/pull/consume.
    for (got, delta) in hotpath_lock_delta(Grid::new(2, 2).unwrap(), 3000, 64) {
        assert_eq!(got, 3000);
        assert_eq!(delta, 0, "mutex acquired on the cross-node hot path");
    }
}

#[test]
fn capacity_one_flush_inside_push_takes_no_locks() {
    // capacity 1 makes every push flush its link inline, so the flush
    // (cell claim + fill + release-publish) is measured by the same probe.
    for (got, delta) in hotpath_lock_delta(Grid::new(2, 2).unwrap(), 200, 1) {
        assert_eq!(got, 200);
        assert_eq!(delta, 0, "mutex acquired by the inline flush path");
    }
}

/// Batched variant of [`hotpath_lock_delta`]: whole slices staged with
/// `push_slice`, deliveries drained as zero-copy `pull_batch` runs.
fn batched_hotpath_lock_delta(grid: Grid, items: usize, capacity: usize) -> Vec<(u64, u64)> {
    spmd::run(grid, move |pe| {
        let mut c = Conveyor::<u64>::new(
            pe,
            ConveyorOptions {
                capacity,
                topology: TopologySpec::Auto,
            },
        )
        .unwrap();
        let n = pe.n_pes();
        let me = pe.rank();
        let slices: Vec<Vec<u64>> = (0..n)
            .map(|dst| {
                (0..items)
                    .filter(|k| (me + k) % n == dst)
                    .map(|k| k as u64)
                    .collect()
            })
            .collect();
        let total: usize = slices.iter().map(Vec::len).sum();
        let mut offsets = vec![0usize; n];
        let mut received = 0u64;
        let mut hot_delta = 0u64;
        loop {
            let before = debug_lock_acquisitions();
            let mut sent = 0usize;
            for (dst, slice) in slices.iter().enumerate() {
                if offsets[dst] < slice.len() {
                    offsets[dst] += c.push_slice(pe, &slice[offsets[dst]..], dst).unwrap().accepted;
                }
                sent += offsets[dst];
            }
            hot_delta += debug_lock_acquisitions() - before;

            let active = c.advance(pe, sent == total);

            let before = debug_lock_acquisitions();
            while let Some(batch) = c.pull_batch() {
                received += batch.items.len() as u64;
            }
            hot_delta += debug_lock_acquisitions() - before;
            if !active {
                break;
            }
            pe.poll_yield();
        }
        (received, hot_delta)
    })
    .unwrap()
}

#[test]
fn push_slice_and_pull_batch_take_no_locks_single_node() {
    for (got, delta) in batched_hotpath_lock_delta(Grid::single_node(4).unwrap(), 3000, 64) {
        assert_eq!(got, 3000);
        assert_eq!(delta, 0, "mutex acquired on the batched single-node hot path");
    }
}

#[test]
fn push_slice_and_pull_batch_take_no_locks_across_nodes() {
    for (got, delta) in batched_hotpath_lock_delta(Grid::new(2, 2).unwrap(), 3000, 64) {
        assert_eq!(got, 3000);
        assert_eq!(delta, 0, "mutex acquired on the batched cross-node hot path");
    }
}

#[test]
fn counter_itself_observes_locks() {
    // Sanity-check the instrument: a deliberate mutex acquisition must
    // register, or the zero-delta assertions above prove nothing.
    let m = actorprof_suite::fabsp_shmem::parking_lot::Mutex::new(0u32);
    let before = debug_lock_acquisitions();
    *m.lock() += 1;
    assert_eq!(
        debug_lock_acquisitions(),
        before + 1,
        "the lock counter must count acquisitions in every build profile"
    );
}
