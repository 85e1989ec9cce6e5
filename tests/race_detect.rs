//! Dynamic race-detector gate (`--features race-detect`).
//!
//! Three kinds of evidence that the vector-clock checker works:
//!
//! 1. **Positive control** — a deliberately racy two-PE toy (an
//!    unsynchronized put vs. local read) is flagged on *every* schedule,
//!    OS-scheduled and across a seed sweep.
//! 2. **Negative litmus** — each [`RaceHooks`] switch weakens exactly one
//!    happens-before edge the substrate relies on (ring Acquire poll,
//!    nbi quiet delivery, barrier epoch); the detector must flag each
//!    weakening. This is how we know the *edges*, not just the accesses,
//!    are modeled: remove one and a previously-clean program races.
//! 3. **Clean-run + overhead** — a real conveyor workload runs clean under
//!    seeded schedules, and the same workload with the detector disabled
//!    gives the overhead baseline (reported in test output; the full
//!    102-schedule matrix of tests/schedule_fuzz.rs runs under this
//!    feature in the CI race-detect lane). The three-app registry lane
//!    below additionally runs every bundled workload clean on two seeded
//!    schedules each.

#![cfg(feature = "race-detect")]

use std::time::{Duration, Instant};

use actorprof_suite::fabsp_conveyors::{Conveyor, ConveyorOptions};
use actorprof_suite::fabsp_shmem::race::RaceHooks;
use actorprof_suite::fabsp_shmem::{spmd, Grid, Harness, SchedSpec, ShmemError, SpscRing};

/// The OS schedule plus a seed sweep; every entry must flag the toy race.
fn schedules() -> Vec<Option<u64>> {
    let mut s = vec![None];
    s.extend((0..10).map(Some));
    s
}

fn harness(grid: Grid, seed: Option<u64>) -> Harness {
    match seed {
        Some(seed) => Harness::new(grid).sched(SchedSpec::random_walk(seed)),
        None => Harness::new(grid),
    }
}

fn expect_race(err: ShmemError, what: &str) -> String {
    match err {
        ShmemError::PePanicked { message, .. } => {
            assert!(
                message.contains("race detected"),
                "{what}: PE panicked but not with a race report: {message}"
            );
            message
        }
        other => panic!("{what}: expected a PE panic, got {other:?}"),
    }
}

#[test]
fn racy_put_vs_local_get_is_flagged_on_every_schedule() {
    for seed in schedules() {
        let err = spmd::run(harness(Grid::single_node(2).unwrap(), seed), |pe| {
            let sym = pe.alloc_sym::<u64>(1);
            if pe.rank() == 0 {
                // No flag, no barrier, no quiet: nothing orders this put
                // against PE 1's read.
                sym.put(pe, 1, 0, &[7]).unwrap();
            } else {
                let _ = sym.local_get(pe, 0);
            }
            pe.barrier_all();
        })
        .unwrap_err();
        let msg = expect_race(err, "racy toy");
        assert!(
            msg.contains("SymmetricVec"),
            "report must name the accesses (seed {seed:?}): {msg}"
        );
    }
}

#[test]
fn litmus_downgraded_ring_acquire_is_flagged() {
    // The consumer's state poll is the Acquire that makes the producer's
    // fill visible — items and side table (the conveyor's route table)
    // alike; downgrade it to Relaxed and consuming either one is exactly
    // the unordered read the detector exists to catch.
    for (read_side, access) in [(false, "SpscRing::read_local"), (true, "SpscRing::read_side")] {
        let hooks = RaceHooks {
            downgrade_ring_acquire: true,
            ..Default::default()
        };
        let h = Harness::new(Grid::single_node(2).unwrap()).race_hooks(hooks);
        let err = spmd::run(h, move |pe| {
            let ring = SpscRing::<u64, u32>::with_side(pe, 1, 4, 2).unwrap();
            if pe.rank() == 0 {
                ring.write(pe, 1, 0, &[1, 2], &[7]).unwrap();
                ring.publish(pe, 1, 0, 3).unwrap();
            } else {
                while ring.state(pe, 1, 0) == 0 {
                    pe.poll_yield();
                }
                if read_side {
                    ring.read_side(pe, 0, |_| ());
                } else {
                    ring.read_local(pe, 0, |_| ());
                }
                ring.release(pe, 0, 0).unwrap();
            }
            pe.barrier_all();
        })
        .unwrap_err();
        let msg = expect_race(err, "downgraded ring acquire");
        assert!(msg.contains(access), "{msg}");
    }
}

#[test]
fn litmus_skipped_quiet_edge_is_flagged() {
    // With quiet delivery dropped, the staged non-blocking put never
    // completes as far as the detector is concerned: consuming the cell is
    // a use of in-flight data.
    let hooks = RaceHooks {
        skip_quiet_edge: true,
        ..Default::default()
    };
    let h = Harness::new(Grid::new(2, 1).unwrap()).race_hooks(hooks);
    let err = spmd::run(h, |pe| {
        let ring = SpscRing::<u64>::new(pe, 1, 4).unwrap();
        if pe.rank() == 0 {
            ring.write_nbi(pe, 1, 0, &[9], &[]).unwrap();
            pe.quiet();
            ring.publish(pe, 1, 0, 2).unwrap();
        } else {
            while ring.state(pe, 1, 0) == 0 {
                pe.poll_yield();
            }
            ring.read_local(pe, 0, |_| ());
        }
        pe.barrier_all();
    })
    .unwrap_err();
    match err {
        ShmemError::PePanicked { message, .. } => assert!(
            message.contains("before the initiator's quiet"),
            "expected the pending-nbi report: {message}"
        ),
        other => panic!("expected a PE panic, got {other:?}"),
    }
}

#[test]
fn litmus_skipped_barrier_edge_is_flagged() {
    // put → barrier_all → local_get is the canonical correct pattern; with
    // the barrier's happens-before edge dropped the read must be reported
    // even though the physical barrier still ran.
    let hooks = RaceHooks {
        skip_barrier_edge: true,
        ..Default::default()
    };
    let h = Harness::new(Grid::single_node(2).unwrap()).race_hooks(hooks);
    let err = spmd::run(h, |pe| {
        let sym = pe.alloc_sym::<u64>(1);
        if pe.rank() == 0 {
            sym.put(pe, 1, 0, &[9]).unwrap();
        }
        pe.barrier_all();
        if pe.rank() == 1 {
            let _ = sym.local_get(pe, 0);
        }
        pe.barrier_all();
    })
    .unwrap_err();
    expect_race(err, "skipped barrier edge");
}

/// All-to-all conveyor exchange; returns (wall time, detector events).
fn conveyor_round(race: bool, seed: u64) -> (Duration, u64) {
    let grid = Grid::new(2, 2).unwrap();
    let h = Harness::new(grid)
        .sched(SchedSpec::random_walk(seed))
        .race(race);
    let start = Instant::now();
    let events = spmd::run(h, |pe| {
        let mut c = Conveyor::<u64>::new(pe, ConveyorOptions::default()).unwrap();
        let n = pe.n_pes();
        let mut received = 0usize;
        let mut sent = 0usize;
        let per_dst = 32usize;
        let total = n * per_dst;
        let mut spins = 0u64;
        loop {
            spins += 1;
            if spins > 200_000 {
                panic!(
                    "conveyor stalled on PE {}: sent {sent}/{total}, received {received}",
                    pe.rank()
                );
            }
            while sent < total {
                let dst = sent % n;
                if !c.push(pe, sent as u64, dst).unwrap().is_accepted() {
                    break;
                }
                sent += 1;
            }
            let active = c.advance(pe, sent == total);
            while c.pull().is_some() {
                received += 1;
            }
            if !active {
                break;
            }
            pe.poll_yield();
        }
        assert_eq!(received, total, "conveyor must deliver everything");
        pe.barrier_all();
        pe.race_events().unwrap_or(0)
    })
    .unwrap()
    .into_iter()
    .max()
    .unwrap();
    (start.elapsed(), events)
}

#[test]
fn checkpoint_capture_and_restore_add_no_happens_before_regressions() {
    // A superstep-boundary checkpoint, an nbi exchange on top of it, and a
    // restore back to the cut all run under the detector: none of them may
    // introduce an unordered access pair.
    for seed in [None, Some(3), Some(7)] {
        let h = harness(Grid::new(2, 1).unwrap(), seed).checkpoint_every(1);
        let results = spmd::run(h, |pe| {
            let sym = pe.alloc_sym::<u64>(1);
            let ss = pe.begin_superstep();
            if pe.checkpoint_due(ss) {
                pe.checkpoint().expect("quiescent at superstep start");
            }
            let dst = (pe.rank() + 1) % pe.n_pes();
            sym.put_nbi(pe, dst, 0, &[pe.rank() as u64 + 1]).unwrap();
            pe.quiet();
            pe.barrier_all();
            let got = sym.local_get(pe, 0);
            let ckpt = pe.latest_checkpoint().expect("checkpoint taken");
            pe.restore_checkpoint(&ckpt)
                .expect("quiescent after the barrier");
            (got, sym.local_get(pe, 0))
        })
        .unwrap_or_else(|e| panic!("checkpoint raced (seed {seed:?}): {e}"));
        assert_eq!(results, vec![(2, 0), (1, 0)], "seed {seed:?}");
    }
}

#[test]
fn every_registered_app_is_clean_under_the_detector() {
    // The detector attaches by default under this feature, so running the
    // three-app registry (histogram, index_gather, triangle) IS the check: any
    // unordered access pair in an app, the actor layer, or the conveyors
    // panics the run. Two seeded schedules per app on top of the
    // OS-scheduled baseline keep the lane cheap while still exploring
    // interleavings the OS never produces.
    use actorprof_suite::fabsp_apps::registry;
    use actorprof_suite::fabsp_testkit::matrix::MatrixParams;

    let params = MatrixParams::new(Grid::new(2, 2).unwrap());
    for (app_idx, app) in registry().into_iter().enumerate() {
        let base = app
            .run(&params)
            .unwrap_or_else(|e| panic!("{} raced on the OS schedule: {e}", app.name));
        base.assert_golden(&format!("{} (race-detect baseline)", app.name));
        for seed in 0..2u64 {
            let p = params
                .clone()
                .with_sched(SchedSpec::random_walk(0xD37EC7 + app_idx as u64 * 10 + seed));
            let out = app
                .run(&p)
                .unwrap_or_else(|e| panic!("{} raced on seed {seed}: {e}", app.name));
            out.assert_matches(&base, &format!("{} race-detect seed {seed}", app.name));
        }
    }
}

#[test]
fn batched_exchange_is_clean_under_the_detector() {
    // The batched surface (push_slice staging whole slices, pull_batch
    // handing out zero-copy runs) takes the same ring/termination edges as
    // the per-item protocol — verify no happens-before pair went missing,
    // on the OS schedule and two seeded walks.
    for seed in [None, Some(0xBA7C), Some(0xBA7D)] {
        let grid = Grid::new(2, 2).unwrap();
        let h = harness(grid, seed).race(true);
        spmd::run(h, |pe| {
            let mut c = Conveyor::<u64>::new(pe, ConveyorOptions::default()).unwrap();
            let n = pe.n_pes();
            let per_dst = 48usize;
            let total = n * per_dst;
            let slices: Vec<Vec<u64>> = (0..n)
                .map(|dst| (0..per_dst as u64).map(|k| (dst as u64) << 32 | k).collect())
                .collect();
            let mut offsets = vec![0usize; n];
            let mut received = 0usize;
            let mut spins = 0u64;
            loop {
                spins += 1;
                assert!(spins <= 200_000, "batched exchange stalled on PE {}", pe.rank());
                let mut sent = 0usize;
                for (dst, slice) in slices.iter().enumerate() {
                    if offsets[dst] < slice.len() {
                        let report = c.push_slice(pe, &slice[offsets[dst]..], dst).unwrap();
                        offsets[dst] += report.accepted;
                    }
                    sent += offsets[dst];
                }
                let active = c.advance(pe, sent == total);
                while let Some(batch) = c.pull_batch() {
                    received += batch.items.len();
                }
                if !active {
                    break;
                }
                pe.poll_yield();
            }
            assert_eq!(received, total, "batched exchange must deliver everything");
            pe.barrier_all();
        })
        .unwrap_or_else(|e| panic!("batched exchange raced (seed {seed:?}): {e}"));
    }
}

#[test]
fn conveyor_exchange_is_clean_and_overhead_is_reported() {
    // Clean across a seed sweep (the full 105-schedule app matrix runs in
    // schedule_fuzz.rs under this same feature)...
    let mut checked = Duration::ZERO;
    let mut unchecked = Duration::ZERO;
    let mut events = 0;
    for seed in 0..8 {
        let (dt_on, ev) = conveyor_round(true, seed);
        let (dt_off, ev_off) = conveyor_round(false, seed);
        assert_eq!(ev_off, 0, "disabled detector must observe nothing");
        checked += dt_on;
        unchecked += dt_off;
        events += ev;
    }
    // ...and the detector's cost is visible, not hidden: run with
    // `--nocapture` to see it.
    println!(
        "race-detect overhead: {checked:?} checked vs {unchecked:?} unchecked \
         over 8 seeded conveyor exchanges ({events} detector events, {:.1}x)",
        checked.as_secs_f64() / unchecked.as_secs_f64().max(1e-9)
    );
}
