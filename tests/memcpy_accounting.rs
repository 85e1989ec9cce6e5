//! Quantify the copy chain per message — the paper's "Note for
//! self-sends" (§IV-D): Conveyors never bypasses the aggregation path, so
//! even a self-send pays multiple memcpys, "up to six std::memcpy ops" on
//! the routed path. `ConveyorStats::item_copies` counts item-granularity
//! copies at every stage:
//!
//! | path | copies | stages |
//! |---|---|---|
//! | self-send / same-node direct | 4 | push, local_send put, consume, pull |
//! | cross-node direct | 5 | push, nbi capture, quiet apply, consume, pull |
//! | routed (row + column) | 7 | push, local_send put, relay restage, nbi capture, quiet apply, consume, pull |
//!
//! "push" stages the payload in the link buffer, "consume" is the one copy
//! from the landing cell into the pull queue, "relay restage" the one copy
//! from the landing cell into the next link's buffer, "pull" the hand-off
//! to the caller.
//!
//! The second half pins the *bytes* of those puts, as the physical trace
//! reports them: a slab is its payloads plus 12 bytes per route-table run,
//! and a slab that only carries its sender's own traffic for the link's
//! receiver ships no table. The PAPI trace charges `MEMCPY_PER_BYTE` on
//! those same bytes, so the last test pins a PAPI line whose send bracket
//! contains a flush.

use std::mem::size_of;

use actorprof_suite::actorprof_trace::{
    PapiConfig, PeCollector, PhysicalRecord, SendType, TraceConfig,
};
use actorprof_suite::fabsp_actor::{Selector, SelectorConfig};
use actorprof_suite::fabsp_conveyors::{Conveyor, ConveyorOptions, TopologySpec};
use actorprof_suite::fabsp_hwpc::cost::model;
use actorprof_suite::fabsp_shmem::{spmd, Grid};

/// Send exactly one message `src` → `dst` through a fresh conveyor and
/// return the world-total `item_copies`.
fn copies_for_single_message(grid: Grid, src: usize, dst: usize) -> u64 {
    let stats = spmd::run(grid, move |pe| {
        let mut c = Conveyor::<u64>::new(
            pe,
            ConveyorOptions {
                capacity: 4,
                topology: TopologySpec::Auto,
            },
        )
        .unwrap();
        let mut sent = pe.rank() != src;
        loop {
            if !sent && c.push(pe, 42, dst).unwrap().is_accepted() {
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
}

#[test]
fn self_send_pays_four_copies() {
    let copies = copies_for_single_message(Grid::single_node(1).unwrap(), 0, 0);
    assert_eq!(copies, 4, "push, local_send put, consume, pull");
}

#[test]
fn same_node_direct_pays_four_copies() {
    let copies = copies_for_single_message(Grid::single_node(2).unwrap(), 0, 1);
    assert_eq!(copies, 4);
}

#[test]
fn cross_node_direct_pays_five_copies() {
    // 2 nodes x 1 PE: destination is in the sender's mesh column.
    let copies = copies_for_single_message(Grid::new(2, 1).unwrap(), 0, 1);
    assert_eq!(copies, 5, "push, nbi capture, quiet apply, consume, pull");
}

#[test]
fn routed_send_pays_at_least_six_copies() {
    // 2 nodes x 2 PEs: 0 = (n0,l0) -> 3 = (n1,l1) routes via PE 1.
    let copies = copies_for_single_message(Grid::new(2, 2).unwrap(), 0, 3);
    assert_eq!(
        copies, 7,
        "push, row put, relay restage, nbi capture, quiet apply, consume, pull"
    );
    assert!(copies >= 6, "the paper's 'up to six memcpy' bound");
}

#[test]
fn copy_count_scales_linearly_with_messages() {
    // 10 messages over the routed path: same per-message cost (buffers
    // amortize flushes, not copies).
    let grid = Grid::new(2, 2).unwrap();
    let stats = spmd::run(grid, move |pe| {
        let mut c = Conveyor::<u64>::new(pe, ConveyorOptions::default()).unwrap();
        let mut sent = 0;
        let quota = if pe.rank() == 0 { 10 } else { 0 };
        loop {
            while sent < quota && c.push(pe, sent as u64, 3).unwrap().is_accepted() {
                sent += 1;
            }
            let active = c.advance(pe, sent == quota);
            while c.pull().is_some() {}
            if !active {
                break;
            }
            pe.poll_yield();
        }
        c.stats().item_copies
    })
    .unwrap();
    assert_eq!(stats.iter().sum::<u64>(), 70, "7 copies x 10 messages");
}

/// Every PE pushes `plan(rank)` — `(item, dst)` pairs, one `push` each —
/// through a default-capacity (64) conveyor with a physical-trace collector
/// attached; returns each PE's physical records.
fn physical_trace(
    grid: Grid,
    plan: impl Fn(usize) -> Vec<(u64, usize)> + Send + Sync + 'static,
) -> Vec<Vec<PhysicalRecord>> {
    spmd::run(grid, move |pe| {
        let collector = PeCollector::new(
            pe.rank(),
            pe.n_pes(),
            pe.grid().pes_per_node(),
            TraceConfig::off().with_physical(),
        )
        .into_shared();
        let mut c = Conveyor::<u64>::new(pe, ConveyorOptions::default()).unwrap();
        c.attach_collector(collector.clone());
        let outbox = plan(pe.rank());
        let mut next = 0;
        loop {
            while next < outbox.len() && c.push(pe, outbox[next].0, outbox[next].1).unwrap().is_accepted() {
                next += 1;
            }
            let active = c.advance(pe, next == outbox.len());
            while c.pull().is_some() {}
            if !active {
                break;
            }
            pe.poll_yield();
        }
        let records = collector.borrow().physical_records().iter().collect::<Vec<_>>();
        records
    })
    .unwrap()
}

fn record(send_type: SendType, buffer_size: usize, src_pe: u32, dst_pe: u32) -> PhysicalRecord {
    PhysicalRecord {
        send_type,
        buffer_size: buffer_size as u64,
        src_pe,
        dst_pe,
    }
}

#[test]
fn a_full_direct_slab_puts_its_payload_bytes_only() {
    // 64 items 0 -> 1 on one node: one local_send of exactly 64 u64s — no
    // per-item routing, no route table.
    let traces = physical_trace(Grid::single_node(2).unwrap(), |rank| {
        if rank == 0 {
            (0..64).map(|i| (i, 1)).collect()
        } else {
            Vec::new()
        }
    });
    assert_eq!(traces[0], vec![record(SendType::LocalSend, 64 * size_of::<u64>(), 0, 1)]);
    assert!(traces[1].is_empty());
}

#[test]
fn a_cross_node_slab_puts_its_payload_bytes_only() {
    // 2 nodes x 1 PE: the column link is direct, so the nonblock_send and
    // the nonblock_progress that signals it both report 64 bare u64s.
    let traces = physical_trace(Grid::new(2, 1).unwrap(), |rank| {
        if rank == 0 {
            (0..64).map(|i| (i, 1)).collect()
        } else {
            Vec::new()
        }
    });
    assert_eq!(
        traces[0],
        vec![
            record(SendType::NonblockSend, 64 * size_of::<u64>(), 0, 1),
            record(SendType::NonblockProgress, 64 * size_of::<u64>(), 0, 1),
        ]
    );
}

#[test]
fn an_alternating_destination_row_slab_stays_within_twelve_bytes_per_run() {
    // 2x2 mesh, PE 0 alternates every item between PE 1 (direct, row) and
    // PE 3 (relayed by PE 1): both travel on row link 0 -> 1, one route per
    // item — the worst case, count * size_of::<T>() + 12 * runs with
    // runs == count. At the relay the 32 items for PE 3 are adjacent again
    // and leave as ONE run (origin 0, so the table stays: one entry).
    let traces = physical_trace(Grid::new(2, 2).unwrap(), |rank| {
        if rank == 0 {
            (0..64).map(|i| (i, if i % 2 == 0 { 1 } else { 3 })).collect()
        } else {
            Vec::new()
        }
    });
    assert_eq!(
        traces[0],
        vec![record(SendType::LocalSend, 64 * size_of::<u64>() + 12 * 64, 0, 1)]
    );
    assert_eq!(
        traces[1],
        vec![
            record(SendType::NonblockSend, 32 * size_of::<u64>() + 12, 1, 3),
            record(SendType::NonblockProgress, 32 * size_of::<u64>() + 12, 1, 3),
        ]
    );
}

#[test]
fn a_papi_line_whose_bracket_flushes_is_charged_the_bytes_put() {
    // The selector brackets each accepted run with counter reads, so a
    // flush that a send triggers lands on that send's PAPI line:
    // SEND_PUSH per message plus MEMCPY_PER_BYTE on the slab the put moved,
    // count * size_of::<T>() + 12 * runs. 2x2 mesh, PE 0 sends 65 messages
    // alternating PE 1 / PE 3: the 65th (for PE 1) finds row link 0 -> 1
    // full with 64 one-item runs and flushes it inside its bracket; the
    // remaining item leaves in the endgame, outside any bracket. The
    // per-item envelope format charged 64 * 16 here.
    let papi = spmd::run(Grid::new(2, 2).unwrap(), |pe| {
        let trace = TraceConfig::off().with_papi(PapiConfig::case_study());
        let mut actor =
            Selector::new(pe, 1, SelectorConfig::traced(trace), |_, _: u64, _, _| {}).unwrap();
        actor
            .execute(pe, |ctx| {
                if ctx.rank() == 0 {
                    for i in 0..65u64 {
                        ctx.send(0, i, if i % 2 == 0 { 1 } else { 3 }).unwrap();
                    }
                }
                ctx.done(0).unwrap();
            })
            .unwrap();
        actor.into_collector().papi_records()
    })
    .unwrap();
    let lines: Vec<(u32, u64, u64)> = papi[0]
        .iter()
        .map(|r| (r.dst_pe, r.num_sends, r.counters[0]))
        .collect();
    let slab_bytes = (64 * size_of::<u64>() + 12 * 64) as u64;
    assert_eq!(
        lines,
        vec![
            (1, 33, 33 * model::SEND_PUSH.ins + slab_bytes * model::MEMCPY_PER_BYTE.ins),
            (3, 32, 32 * model::SEND_PUSH.ins),
        ],
        "(dst, sends, TOT_INS) per PAPI line of PE 0"
    );
}
