//! Property-based testing of the conveyor across random grids,
//! topologies, capacities, and traffic patterns: every accepted message is
//! delivered exactly once, to the right PE, in pairwise FIFO order.

use actorprof_suite::fabsp_conveyors::{Conveyor, ConveyorOptions, TopologySpec};
use actorprof_suite::fabsp_shmem::{spmd, Grid, Harness, SchedSpec};
use actorprof_suite::fabsp_testkit::{check_conveyor_quiescent, MsgLog};
use proptest::prelude::*;
use std::sync::Arc;

#[derive(Debug, Clone)]
struct Scenario {
    nodes: usize,
    ppn: usize,
    capacity: usize,
    topology: TopologySpec,
    /// per-PE destination sequences (index = sending PE, truncated/cycled
    /// to the grid size)
    traffic: Vec<Vec<usize>>,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (1usize..=3, 1usize..=3, 1usize..=8, 0usize..=3)
        .prop_flat_map(|(nodes, ppn, capacity, topo_idx)| {
            let n_pes = nodes * ppn;
            let topology = [
                TopologySpec::Auto,
                TopologySpec::OneD,
                TopologySpec::Mesh2D,
                TopologySpec::Cube3D,
            ][topo_idx];
            proptest::collection::vec(
                proptest::collection::vec(0..n_pes, 0..40),
                n_pes..=n_pes,
            )
            .prop_map(move |traffic| Scenario {
                nodes,
                ppn,
                capacity,
                topology,
                traffic,
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 20,
        .. ProptestConfig::default()
    })]

    #[test]
    fn conveyor_delivers_exactly_once_in_pair_order(scenario in arb_scenario()) {
        let grid = Grid::new(scenario.nodes, scenario.ppn).unwrap();
        let traffic = std::sync::Arc::new(scenario.traffic.clone());
        let options = ConveyorOptions {
            capacity: scenario.capacity,
            topology: scenario.topology,
        };
        let results = spmd::run(grid, {
            let traffic = std::sync::Arc::clone(&traffic);
            move |pe| {
                let mut c = Conveyor::<u64>::new(pe, options).unwrap();
                let my_traffic = &traffic[pe.rank()];
                // message payload: (sender, per-pair sequence number)
                let mut pair_seq = vec![0u64; pe.n_pes()];
                let mut received: Vec<Vec<u64>> = vec![Vec::new(); pe.n_pes()];
                let mut next = 0usize;
                loop {
                    while next < my_traffic.len() {
                        let dst = my_traffic[next];
                        let payload = ((pe.rank() as u64) << 32) | pair_seq[dst];
                        if c.push(pe, payload, dst).unwrap().is_accepted() {
                            pair_seq[dst] += 1;
                            next += 1;
                        } else {
                            break;
                        }
                    }
                    let active = c.advance(pe, next == my_traffic.len());
                    while let Some(d) = c.pull() {
                        assert_eq!((d.item >> 32) as u32, d.src, "origin tag mismatch");
                        received[d.src as usize].push(d.item & 0xffff_ffff);
                    }
                    if !active {
                        break;
                    }
                    pe.poll_yield();
                }
                received
            }
        })
        .unwrap();

        // exactly-once, right PE, FIFO per pair
        let n_pes = grid.n_pes();
        for (me, received) in results.iter().enumerate() {
            for src in 0..n_pes {
                let expected: u64 = traffic[src].iter().filter(|&&d| d == me).count() as u64;
                let got = &received[src];
                prop_assert_eq!(got.len() as u64, expected, "count {}->{}", src, me);
                for (k, &seq) in got.iter().enumerate() {
                    prop_assert_eq!(seq, k as u64, "pairwise FIFO {}->{}", src, me);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    /// The same delivery invariants, but under testkit control: a seeded
    /// random-walk schedule serializes every observable substrate event,
    /// optionally combined with chaos-forced relay parking. Completion
    /// itself is the termination property — the scheduler's step budget
    /// turns any deadlock into a failed run — and the [`MsgLog`] checker
    /// verifies per-pair FIFO plus conservation.
    #[test]
    fn conveyor_invariants_hold_under_explored_schedules(
        scenario in arb_scenario(),
        seed in 0u64..(1u64 << 48),
        chaos in 0u8..2,
    ) {
        let grid = Grid::new(scenario.nodes, scenario.ppn).unwrap();
        let traffic = Arc::new(scenario.traffic.clone());
        let log = Arc::new(MsgLog::new());
        let options = ConveyorOptions {
            capacity: scenario.capacity,
            topology: scenario.topology,
        };
        let harness = Harness::new(grid).sched(SchedSpec::random_walk(seed));
        let stats = spmd::run(harness, {
            let traffic = Arc::clone(&traffic);
            let log = Arc::clone(&log);
            move |pe| {
                let mut c = Conveyor::<u64>::new(pe, options).unwrap();
                if chaos == 1 {
                    // Randomly pretend relay buffers are full, exercising
                    // the parked-link path on mesh topologies.
                    c.inject_chaos(seed, 0.5);
                }
                let my_traffic = &traffic[pe.rank()];
                let mut pair_seq = vec![0u64; pe.n_pes()];
                let mut next = 0usize;
                loop {
                    while next < my_traffic.len() {
                        let dst = my_traffic[next];
                        let payload = ((pe.rank() as u64) << 32) | pair_seq[dst];
                        if c.push(pe, payload, dst).unwrap().is_accepted() {
                            log.push(pe.rank(), dst, pair_seq[dst]);
                            pair_seq[dst] += 1;
                            next += 1;
                        } else {
                            break;
                        }
                    }
                    let active = c.advance(pe, next == my_traffic.len());
                    while let Some(d) = c.pull() {
                        log.pull(d.src as usize, pe.rank(), d.item & 0xffff_ffff);
                    }
                    if !active {
                        break;
                    }
                    pe.poll_yield();
                }
                c.stats()
            }
        })
        .unwrap_or_else(|e| panic!("schedule seed {seed}, chaos {chaos}: {e}"));

        let summary = log
            .check()
            .unwrap_or_else(|v| panic!("seed {seed}, chaos {chaos}: {v}"));
        let total: usize = traffic.iter().map(|t| t.len()).sum();
        prop_assert_eq!(summary.delivered as usize, total, "conservation, seed {}", seed);
        check_conveyor_quiescent(&stats)
            .unwrap_or_else(|v| panic!("seed {seed}, chaos {chaos}: {v}"));
    }
}

/// One planned send of the slab-format property below.
#[derive(Debug, Clone, Copy)]
struct PlannedSend {
    /// 0 = one `push` per item, 1 = one `push_slice`, 2 = `push` per item
    /// alternating between `dst` and `other` (one route per item).
    kind: usize,
    dst: usize,
    other: usize,
    /// Index into the run-length table `[1, 2, capacity - 1, capacity + 1]`.
    len_idx: usize,
}

#[derive(Debug, Clone)]
struct SlabScenario {
    nodes: usize,
    ppn: usize,
    topology: TopologySpec,
    capacity: usize,
    /// Per-PE plans, run after an all-pairs `push_slice` of `capacity + 1`.
    plans: Vec<Vec<PlannedSend>>,
}

fn arb_slab_scenario() -> impl Strategy<Value = SlabScenario> {
    (0usize..4, 2usize..=6).prop_flat_map(|(shape, capacity)| {
        // 1D never relays, the meshes relay once, the 2x4 cube twice.
        let (nodes, ppn, topology) = [
            (1, 4, TopologySpec::OneD),
            (2, 2, TopologySpec::Mesh2D),
            (2, 3, TopologySpec::Mesh2D),
            (2, 4, TopologySpec::Cube3D),
        ][shape];
        let n_pes = nodes * ppn;
        let send = (0usize..3, 0..n_pes, 0..n_pes, 0usize..4).prop_map(
            |(kind, dst, other, len_idx)| PlannedSend { kind, dst, other, len_idx },
        );
        proptest::collection::vec(proptest::collection::vec(send, 0..12), n_pes..=n_pes).prop_map(
            move |plans| SlabScenario { nodes, ppn, topology, capacity, plans },
        )
    })
}

/// Expand one PE's plan into `(destination, payloads, sliced)` operations.
/// A payload is `(origin << 32) | per-pair sequence number`.
fn expand_plan(
    rank: usize,
    n_pes: usize,
    capacity: usize,
    plan: &[PlannedSend],
) -> Vec<(usize, Vec<u64>, bool)> {
    let mut pair_seq = vec![0u64; n_pes];
    let mut stamp = |dst: usize| {
        let payload = ((rank as u64) << 32) | pair_seq[dst];
        pair_seq[dst] += 1;
        payload
    };
    // Every pair gets a run that cannot fit one slab, so every route of the
    // topology — direct, one relay hop, two — carries a straddling run.
    let mut ops: Vec<(usize, Vec<u64>, bool)> = (0..n_pes)
        .map(|dst| (dst, (0..=capacity).map(|_| stamp(dst)).collect(), true))
        .collect();
    for send in plan {
        let len = [1, 2, capacity - 1, capacity + 1][send.len_idx];
        match send.kind {
            2 => {
                for k in 0..2 * len {
                    let dst = if k % 2 == 0 { send.dst } else { send.other };
                    ops.push((dst, vec![stamp(dst)], false));
                }
            }
            kind => ops.push((send.dst, (0..len).map(|_| stamp(send.dst)).collect(), kind == 1)),
        }
    }
    ops
}

/// Run `scenario` free-running (`None`) or under a seeded random-walk
/// schedule with chaos-forced relay parks (`Some(seed)`), and check
/// conservation, origin tags on both pull surfaces and per-pair FIFO.
fn check_slab_scenario(scenario: &SlabScenario, mode: Option<u64>) {
    let grid = Grid::new(scenario.nodes, scenario.ppn).unwrap();
    let n_pes = grid.n_pes();
    let capacity = scenario.capacity;
    let options = ConveyorOptions {
        capacity,
        topology: scenario.topology,
    };
    let all_ops: Arc<Vec<_>> = Arc::new(
        (0..n_pes)
            .map(|rank| expand_plan(rank, n_pes, capacity, &scenario.plans[rank]))
            .collect(),
    );
    let harness = match mode {
        Some(seed) => Harness::new(grid).sched(SchedSpec::random_walk(seed)),
        None => Harness::new(grid),
    };
    let results = spmd::run(harness, {
        let all_ops = Arc::clone(&all_ops);
        move |pe| {
            let mut c = Conveyor::<u64>::new(pe, options).unwrap();
            if let Some(seed) = mode {
                c.inject_chaos(seed, 0.5);
            }
            let ops = &all_ops[pe.rank()];
            let (mut op, mut offset) = (0usize, 0usize);
            let mut received: Vec<Vec<u64>> = vec![Vec::new(); pe.n_pes()];
            let mut use_batch = false;
            loop {
                while op < ops.len() {
                    let (dst, payloads, sliced) = &ops[op];
                    let accepted = if *sliced {
                        c.push_slice(pe, &payloads[offset..], *dst).unwrap().accepted
                    } else {
                        usize::from(c.push(pe, payloads[offset], *dst).unwrap().is_accepted())
                    };
                    offset += accepted;
                    if offset == payloads.len() {
                        op += 1;
                        offset = 0;
                    } else if accepted == 0 {
                        break;
                    }
                }
                let active = c.advance(pe, op == ops.len());
                loop {
                    use_batch = !use_batch;
                    if use_batch {
                        let Some(batch) = c.pull_batch() else { break };
                        for &item in batch.items {
                            assert_eq!((item >> 32) as u32, batch.src, "BatchDelivery::src is the origin");
                            received[batch.src as usize].push(item & 0xffff_ffff);
                        }
                    } else {
                        let Some(d) = c.pull() else { break };
                        assert_eq!((d.item >> 32) as u32, d.src, "Delivery::src is the origin");
                        received[d.src as usize].push(d.item & 0xffff_ffff);
                    }
                }
                if !active {
                    break;
                }
                pe.poll_yield();
            }
            (received, c.stats())
        }
    })
    .unwrap_or_else(|e| panic!("mode {mode:?}: {e}"));

    for (me, (received, _)) in results.iter().enumerate() {
        for src in 0..n_pes {
            let expected: usize = all_ops[src]
                .iter()
                .filter(|(dst, _, _)| *dst == me)
                .map(|(_, payloads, _)| payloads.len())
                .sum();
            assert_eq!(
                received[src],
                (0..expected as u64).collect::<Vec<_>>(),
                "mode {mode:?}: every item of {src} -> {me} exactly once, in push order"
            );
        }
    }
    let stats: Vec<_> = results.iter().map(|(_, s)| *s).collect();
    check_conveyor_quiescent(&stats).unwrap_or_else(|v| panic!("mode {mode:?}: {v}"));
    let relayed: u64 = stats.iter().map(|s| s.relayed).sum();
    match scenario.topology {
        TopologySpec::OneD => assert_eq!(relayed, 0, "1D never relays"),
        _ => assert!(relayed > 0, "the all-pairs runs must take relayed routes"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        .. ProptestConfig::default()
    })]

    /// The slab format under everything that splits, merges or re-stages
    /// runs: mixed `push`/`push_slice` traffic with runs of 1, 2,
    /// `capacity - 1` and `capacity + 1` (the last straddles a slab
    /// boundary on every route) and destinations alternating every item
    /// (one route per item), over 1D, both meshes (one relay hop) and the
    /// cube (two). Free-running, then under a seeded schedule with half of
    /// all relay re-stages refused, so parked cursors stop and resume
    /// anywhere inside a run.
    #[test]
    fn slab_format_survives_relays_parks_and_mixed_runs(
        scenario in arb_slab_scenario(),
        seed in 0u64..(1u64 << 48),
    ) {
        check_slab_scenario(&scenario, None);
        check_slab_scenario(&scenario, Some(seed));
    }
}
