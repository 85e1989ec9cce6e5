//! Stress and failure-injection tests for the conveyor/actor stack across
//! grids, capacities, and traffic shapes.

use actorprof_suite::fabsp_actor::{Selector, SelectorConfig};
use actorprof_suite::fabsp_conveyors::{Conveyor, ConveyorOptions, TopologySpec};
use actorprof_suite::fabsp_shmem::{spmd, FaultSpec, Grid, ShmemError};
use actorprof_suite::fabsp_testkit::{assert_schedule_independent, handler_backlog, BacklogRun};
use std::cell::RefCell;
use std::rc::Rc;

/// Drive an asymmetric traffic pattern (PE i sends i*37 messages, all to
/// PE 0) to completion and verify delivery counts.
fn hotspot_pattern(grid: Grid, capacity: usize) {
    let results = spmd::run(grid, move |pe| {
        let mut c = Conveyor::<u64>::new(
            pe,
            ConveyorOptions {
                capacity,
                topology: TopologySpec::Auto,
            },
        )
        .unwrap();
        let to_send = pe.rank() * 37;
        let mut sent = 0usize;
        let mut received = 0u64;
        loop {
            while sent < to_send && c.push(pe, sent as u64, 0).unwrap().is_accepted() {
                sent += 1;
            }
            let active = c.advance(pe, sent == to_send);
            while c.pull().is_some() {
                received += 1;
            }
            if !active {
                break;
            }
            pe.poll_yield();
        }
        received
    })
    .unwrap();
    let expected: u64 = (0..grid.n_pes()).map(|r| r as u64 * 37).sum();
    assert_eq!(results[0], expected, "PE0 received everything");
    assert!(results[1..].iter().all(|&r| r == 0));
}

#[test]
fn hotspot_all_to_one_under_various_capacities() {
    for capacity in [1, 2, 7, 64] {
        hotspot_pattern(Grid::new(2, 3).unwrap(), capacity);
    }
}

#[test]
fn hotspot_on_three_nodes() {
    hotspot_pattern(Grid::new(3, 3).unwrap(), 4);
}

#[test]
fn capacity_one_mesh_with_relays_makes_progress() {
    // The tightest configuration: every buffer holds one item, so every
    // send is a flush and the relay path constantly blocks and resumes.
    let grid = Grid::new(2, 2).unwrap();
    let results = spmd::run(grid, |pe| {
        let mut c = Conveyor::<u64>::new(
            pe,
            ConveyorOptions {
                capacity: 1,
                topology: TopologySpec::Mesh2D,
            },
        )
        .unwrap();
        let n = pe.n_pes();
        let mut outbox: Vec<(u64, usize)> = (0..40u64).map(|i| (i, (i as usize) % n)).collect();
        let mut next = 0;
        let mut got = 0u64;
        loop {
            while next < outbox.len() {
                let (msg, dst) = outbox[next];
                if c.push(pe, msg, dst).unwrap().is_accepted() {
                    next += 1;
                } else {
                    break;
                }
            }
            let active = c.advance(pe, next == outbox.len());
            while c.pull().is_some() {
                got += 1;
            }
            if !active {
                break;
            }
            pe.poll_yield();
        }
        outbox.clear();
        got
    })
    .unwrap();
    assert_eq!(results.iter().sum::<u64>(), 160);
}

#[test]
fn handler_panic_poisons_the_world_instead_of_hanging() {
    let grid = Grid::single_node(3).unwrap();
    let err = spmd::run(grid, |pe| {
        let mut actor = Selector::new(
            pe,
            1,
            SelectorConfig::default(),
            move |_mb, msg: u64, _from, _ctx| {
                assert!(msg != 13, "injected handler failure");
            },
        )
        .unwrap();
        actor
            .execute(pe, |ctx| {
                for i in 0..50u64 {
                    ctx.send(0, i, (i as usize) % ctx.n_pes()).unwrap();
                }
            })
            .unwrap();
    })
    .unwrap_err();
    assert!(matches!(err, ShmemError::PePanicked { .. }));
}

#[test]
fn many_selectors_in_sequence_share_the_world() {
    // Reuse the SPMD world for several back-to-back supersteps (separate
    // selectors), as real FA-BSP applications do between barriers.
    let grid = Grid::new(2, 2).unwrap();
    let results = spmd::run(grid, |pe| {
        let mut grand_total = 0u64;
        for round in 0..3u64 {
            let seen = Rc::new(RefCell::new(0u64));
            let s = Rc::clone(&seen);
            let mut actor = Selector::new(
                pe,
                1,
                SelectorConfig::default(),
                move |_mb, msg: u64, _from, _ctx| {
                    *s.borrow_mut() += msg;
                },
            )
            .unwrap();
            actor
                .execute(pe, |ctx| {
                    for i in 0..20u64 {
                        ctx.send(0, round + 1, (i as usize) % ctx.n_pes()).unwrap();
                    }
                })
                .unwrap();
            pe.barrier_all();
            grand_total += *seen.borrow();
        }
        grand_total
    })
    .unwrap();
    // per round: 4 PEs * 20 messages each carrying (round+1)
    let expected: u64 = (1..=3).map(|r| 80 * r).sum();
    assert_eq!(results.iter().sum::<u64>(), expected);
}

#[test]
fn wide_fanout_message_storm() {
    // Every PE floods every PE; checks counts under pressure.
    let grid = Grid::new(2, 4).unwrap();
    let per_pair = 400usize;
    let results = spmd::run(grid, move |pe| {
        let n = pe.n_pes();
        let seen = Rc::new(RefCell::new(vec![0u64; n]));
        let s = Rc::clone(&seen);
        let mut actor = Selector::new(
            pe,
            1,
            SelectorConfig::default(),
            move |_mb, _msg: u64, from, _ctx| {
                s.borrow_mut()[from as usize] += 1;
            },
        )
        .unwrap();
        actor
            .execute(pe, |ctx| {
                for k in 0..per_pair {
                    for dst in 0..n {
                        ctx.send(0, k as u64, dst).unwrap();
                    }
                }
            })
            .unwrap();
        let v = seen.borrow().clone();
        v
    })
    .unwrap();
    for (me, seen) in results.iter().enumerate() {
        for (src, &count) in seen.iter().enumerate() {
            assert_eq!(count, per_pair as u64, "PE{me} from PE{src}");
        }
    }
}

/// What the handler-backlog litmus cannot check from inside one PE:
/// nothing is lost, and an item is staged once — not once per progress
/// round it waits through, which made a backlog cost its square.
fn check_backlog_runs(runs: &[BacklogRun], backlog: u64, ctx: &str) {
    for run in runs {
        assert_eq!(run.staged, backlog, "{ctx}: one request handled per PE");
        assert_eq!(run.pushed, backlog, "{ctx}: everything staged went out");
        assert_eq!(run.received, backlog, "{ctx}: symmetric traffic");
    }
    let delivered: u64 = runs.iter().map(|r| r.received).sum();
    let staged: u64 = runs.iter().map(|r| r.staged).sum();
    assert!(staged <= delivered, "{ctx}: {staged} staged for {delivered}");
}

#[test]
fn handler_outbox_backlog_keeps_its_contract_in_linear_time() {
    // A 100 k-item handler backlog against buffers of 1, 4 and 64 items:
    // nearly every submission is refused part-way. The litmus asserts
    // per-link FIFO (a refused suffix is resubmitted in order) and the
    // selector that done waits for the last queued run.
    const BACKLOG: u64 = 100_000;
    for n_pes in [2, 4] {
        let grid = Grid::single_node(n_pes).unwrap();
        for capacity in [1, 4, 64] {
            for alternating in [false, true] {
                let ctx = format!("{n_pes} PEs, capacity {capacity}, alternating {alternating}");
                // Under a seeded schedule, and under the race detector,
                // every refused push is a thread hand-off or a checked
                // access (0.1-0.3 ms), so there the backlog scales with the
                // buffer: the same ~1 600 refusals at every capacity.
                let scaled = BACKLOG.min(1_600 * capacity as u64);
                let deep = if cfg!(feature = "race-detect") {
                    scaled
                } else {
                    BACKLOG
                };
                let runs = spmd::run(grid, |pe| {
                    handler_backlog(pe, capacity, deep, alternating)
                })
                .unwrap();
                check_backlog_runs(&runs, deep, &ctx);
                let runs = assert_schedule_independent(grid, 0..2, FaultSpec::NONE, |pe| {
                    handler_backlog(pe, capacity, scaled, alternating)
                });
                check_backlog_runs(&runs, scaled, &format!("{ctx}, seeded"));
            }
        }
    }
}
