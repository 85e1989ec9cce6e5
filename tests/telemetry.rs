//! Integration tests for the always-on telemetry registry: end-to-end
//! counter accuracy against `ConveyorStats`, and the flight recorder's
//! post-mortem dump when a run dies (here: the deterministic scheduler's
//! termination budget trips, the same path a PE panic or testkit fault
//! takes).

use std::sync::Arc;

use actorprof_suite::fabsp_conveyors::{Conveyor, ConveyorOptions, ConveyorStats, TopologySpec};
use actorprof_suite::fabsp_shmem::{spmd, Grid, Harness, SchedSpec};
use actorprof_suite::fabsp_telemetry::{Counter, Phase, TelemetryRegistry};

/// Neighbour exchange returning per-PE stats, against a shared registry.
fn exchange(reg: Arc<TelemetryRegistry>, msgs: usize) -> Vec<ConveyorStats> {
    let grid = Grid::single_node(2).unwrap();
    let harness = Harness::new(grid)
        .sched(SchedSpec::random_walk(5))
        .telemetry(reg);
    spmd::run(harness, move |pe| {
        let mut c = Conveyor::<u64>::new(
            pe,
            ConveyorOptions {
                capacity: 4,
                topology: TopologySpec::Auto,
            },
        )
        .unwrap();
        let dst = 1 - pe.rank();
        let mut sent = 0;
        loop {
            while sent < msgs && c.push(pe, sent as u64, dst).unwrap().is_accepted() {
                sent += 1;
            }
            let active = c.advance(pe, sent == msgs);
            while c.pull().is_some() {}
            if !active {
                break;
            }
            pe.poll_yield();
        }
        c.stats()
    })
    .unwrap()
}

#[test]
fn registry_counters_match_conveyor_stats() {
    let reg = Arc::new(TelemetryRegistry::new(2));
    let stats = exchange(reg.clone(), 200);
    let snap = reg.snapshot();

    // push refusals are counted on the same code path as the stats field
    let refusals: Vec<u64> = stats.iter().map(|s| s.push_refusals).collect();
    assert_eq!(
        snap.counter_per_pe(Counter::ConveyorPushRetries),
        refusals,
        "registry push-retry counts must match ConveyorStats per PE"
    );
    // capacity 4 with 200 messages must refuse at least once
    assert!(refusals.iter().sum::<u64>() > 0);

    // substrate activity flows through: every nonblock/local send is a put
    assert!(snap.counter_total(Counter::ShmemPuts) > 0);
    let advances: u64 = stats.iter().map(|s| s.advances).sum();
    assert_eq!(
        snap.span_count_total(Phase::Advance),
        advances,
        "one advance span per advance call"
    );
}

#[test]
fn flight_dump_written_when_termination_budget_trips() {
    let dir = std::env::temp_dir().join(format!("fabsp-flightrec-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let reg = Arc::new(TelemetryRegistry::new(2).flight_dump_dir(&dir));

    let grid = Grid::single_node(2).unwrap();
    let harness = Harness::new(grid)
        // The PEs below never signal done, so the run cannot terminate and
        // the termination checker trips, poisoning the world. The budget is
        // far above what set-up takes with or without the race detector,
        // and above the push streak a PE can keep up while its partner
        // frees ring cells under it (this seed needs over 2 000 steps for
        // both to reach `advance` with 8 cells per link), so the trip lands
        // in the exchange loop, after both PEs have advanced many times —
        // never before the first `advance`, when no phase span exists yet.
        .sched(SchedSpec::RandomWalk {
            seed: 9,
            max_steps: 10_000,
        })
        .telemetry(reg.clone());
    let outcome = spmd::run(harness, move |pe| {
        let mut c = Conveyor::<u64>::new(
            pe,
            ConveyorOptions {
                capacity: 1,
                topology: TopologySpec::Auto,
            },
        )
        .unwrap();
        let dst = 1 - pe.rank();
        let mut sent = 0u64;
        loop {
            while c.push(pe, sent, dst).unwrap().is_accepted() {
                sent += 1;
            }
            c.advance(pe, false);
            while c.pull().is_some() {}
            pe.poll_yield();
        }
    });
    assert!(outcome.is_err(), "the step budget must trip");

    // every PE dies — one at the budget, the other at the poison — and
    // dumps a flight ring holding its advance spans
    for rank in 0..2 {
        let path = dir.join(format!("flightrec-pe{rank}.json"));
        let body = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("PE {rank} wrote no flight dump: {e}"));
        assert!(body.contains(&format!("\"pe\":{rank}")), "dump names its PE");
        assert!(
            body.contains("\"phase\":\"advance\""),
            "PE {rank}'s advance spans reached its flight ring:\n{body}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
