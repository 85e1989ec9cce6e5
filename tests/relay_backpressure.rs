//! Regression tests for the relay parked-link path.
//!
//! On a 2D mesh, off-row/off-column traffic is re-staged at an
//! intermediate PE (the relay). When the relay's outgoing buffer is full,
//! the incoming slot must be *parked* — cursor saved, consumption resumed
//! later — rather than dropped or spun on. That path is nearly impossible
//! to hit reliably with default capacities, so these tests force it:
//! capacity-1 buffers make every slot a flush boundary, and
//! `Conveyor::inject_chaos` makes the relay randomly pretend its buffer is
//! full, refusing re-stages with high probability.
//!
//! Invariants: no deadlock (runs complete under the deterministic
//! scheduler's step budget), every message delivered exactly once, and the
//! §IV-D memcpy accounting is unchanged — a parked slot is *retried*, not
//! re-copied, so chaos must not add item copies.

use actorprof_suite::fabsp_conveyors::{Conveyor, ConveyorOptions, ConveyorStats, TopologySpec};
use actorprof_suite::fabsp_shmem::{spmd, Grid, Harness, SchedSpec};
use actorprof_suite::fabsp_testkit::check_conveyor_quiescent;

/// All-routed exchange on a 2×2 mesh: every PE sends `msgs` messages to
/// its diagonal peer (0↔3, 1↔2), which is off-row *and* off-column, so
/// every message takes the two-hop relay path. Returns per-PE
/// (delivered-count, stats).
fn routed_exchange(
    chaos: Option<(u64, f64)>,
    sched: SchedSpec,
    msgs: usize,
) -> Vec<(u64, ConveyorStats)> {
    let grid = Grid::new(2, 2).unwrap();
    let harness = Harness::new(grid).sched(sched);
    spmd::run(harness, move |pe| {
        let mut c = Conveyor::<u64>::new(
            pe,
            ConveyorOptions {
                capacity: 1,
                topology: TopologySpec::Mesh2D,
            },
        )
        .unwrap();
        if let Some((seed, p)) = chaos {
            c.inject_chaos(seed, p);
        }
        let dst = 3 - pe.rank();
        let mut sent = 0;
        let mut got = 0u64;
        loop {
            while sent < msgs && c.push(pe, sent as u64, dst).unwrap().is_accepted() {
                sent += 1;
            }
            let active = c.advance(pe, sent == msgs);
            while c.pull().is_some() {
                got += 1;
            }
            if !active {
                break;
            }
            pe.poll_yield();
        }
        (got, c.stats())
    })
    .unwrap()
}

#[test]
fn parked_links_deliver_everything_without_deadlock() {
    // 90% of relay re-stages are refused; the deterministic scheduler's
    // step budget turns any deadlock into a test failure instead of a
    // hang, so mere completion is the no-deadlock assertion.
    let results = routed_exchange(Some((0xBEEF, 0.9)), SchedSpec::random_walk(11), 20);
    let stats: Vec<ConveyorStats> = results.iter().map(|(_, s)| *s).collect();
    for (rank, (got, _)) in results.iter().enumerate() {
        assert_eq!(*got, 20, "PE {rank} must receive all 20 messages");
    }
    check_conveyor_quiescent(&stats).unwrap();
    let parks: u64 = stats.iter().map(|s| s.forced_parks).sum();
    assert!(
        parks > 0,
        "chaos at p=0.9 over 80 relayed slots must park at least once"
    );
    let relayed: u64 = stats.iter().map(|s| s.relayed).sum();
    assert_eq!(relayed, 80, "every message takes the two-hop path");
}

#[test]
fn parked_links_survive_many_schedules() {
    for seed in 0..8 {
        let results = routed_exchange(Some((seed ^ 0xC0FFEE, 0.8)), SchedSpec::random_walk(seed), 12);
        for (rank, (got, _)) in results.iter().enumerate() {
            assert_eq!(*got, 12, "seed {seed}, PE {rank}");
        }
        let stats: Vec<ConveyorStats> = results.iter().map(|(_, s)| *s).collect();
        check_conveyor_quiescent(&stats).unwrap();
    }
}

#[test]
fn parking_does_not_duplicate_copies() {
    // A park is a refusal before the re-stage copy, so the routed path's
    // 7 item copies per message (§IV-D) must be identical with and
    // without chaos — anything higher means a parked slot was re-copied.
    let msgs = 15;
    let clean = routed_exchange(None, SchedSpec::random_walk(3), msgs);
    let chaotic = routed_exchange(Some((0xD1CE, 0.85)), SchedSpec::random_walk(3), msgs);
    let copies = |r: &[(u64, ConveyorStats)]| r.iter().map(|(_, s)| s.item_copies).sum::<u64>();
    assert_eq!(
        copies(&clean),
        (4 * msgs as u64) * 7,
        "7 copies per routed message, 4 senders"
    );
    assert_eq!(
        copies(&chaotic),
        copies(&clean),
        "chaos parks must not add copies"
    );
    assert!(
        chaotic.iter().map(|(_, s)| s.forced_parks).sum::<u64>() > 0,
        "the chaotic run must actually have parked"
    );
}

#[test]
fn forced_parks_surface_through_telemetry_registry() {
    // `inject_chaos` forced parks used to be visible only in
    // `ConveyorStats`; they must also flow through the always-on metrics
    // registry, per PE.
    use actorprof_suite::fabsp_telemetry::{Counter, TelemetryRegistry};
    use std::sync::Arc;

    let grid = Grid::new(2, 2).unwrap();
    let reg = Arc::new(TelemetryRegistry::new(grid.n_pes()));
    let harness = Harness::new(grid)
        .sched(SchedSpec::random_walk(11))
        .telemetry(reg.clone());
    let msgs = 20usize;
    let results = spmd::run(harness, move |pe| {
        let mut c = Conveyor::<u64>::new(
            pe,
            ConveyorOptions {
                capacity: 1,
                topology: TopologySpec::Mesh2D,
            },
        )
        .unwrap();
        c.inject_chaos(0xBEEF, 0.9);
        let dst = 3 - pe.rank();
        let mut sent = 0;
        let mut got = 0u64;
        loop {
            while sent < msgs && c.push(pe, sent as u64, dst).unwrap().is_accepted() {
                sent += 1;
            }
            let active = c.advance(pe, sent == msgs);
            while c.pull().is_some() {
                got += 1;
            }
            if !active {
                break;
            }
            pe.poll_yield();
        }
        (got, c.stats())
    })
    .unwrap();

    for (rank, (got, _)) in results.iter().enumerate() {
        assert_eq!(*got, msgs as u64, "PE {rank} must receive all messages");
    }
    let snap = reg.snapshot();
    let stats_parks: Vec<u64> = results.iter().map(|(_, s)| s.forced_parks).collect();
    assert!(
        stats_parks.iter().sum::<u64>() > 0,
        "chaos at p=0.9 must park at least once"
    );
    assert_eq!(
        snap.counter_per_pe(Counter::ConveyorForcedParks),
        stats_parks,
        "registry forced-park counts must match ConveyorStats per PE"
    );
}

#[test]
fn capacity_one_preserves_memcpy_accounting() {
    // The memcpy_accounting invariants (4 self, 5 direct, 7 routed) are
    // per-item and must not depend on buffer capacity.
    let single = |grid: Grid, src: usize, dst: usize| -> u64 {
        let stats = spmd::run(grid, move |pe| {
            let mut c = Conveyor::<u64>::new(
                pe,
                ConveyorOptions {
                    capacity: 1,
                    topology: TopologySpec::Auto,
                },
            )
            .unwrap();
            let mut sent = pe.rank() != src;
            loop {
                if !sent && c.push(pe, 7, dst).unwrap().is_accepted() {
                    sent = true;
                }
                let active = c.advance(pe, sent);
                while c.pull().is_some() {}
                if !active {
                    break;
                }
                pe.poll_yield();
            }
            c.stats().item_copies
        })
        .unwrap();
        stats.iter().sum()
    };
    assert_eq!(single(Grid::single_node(1).unwrap(), 0, 0), 4, "self-send");
    assert_eq!(single(Grid::new(2, 1).unwrap(), 0, 1), 5, "cross-node direct");
    assert_eq!(single(Grid::new(2, 2).unwrap(), 0, 3), 7, "routed");
}
