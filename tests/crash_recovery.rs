//! Crash equivalence: a run that loses a PE (or a flaky network) and
//! recovers must be **bit-identical** to a run that was never disturbed.
//!
//! For each bundled kernel the suite runs an undisturbed baseline, then
//! sweeps `kill_pe(k, s)` over every rank, restarting from the superstep
//! checkpoint policy, and asserts:
//!
//! - the application result is identical to the baseline;
//! - the **logical trace matrix** is identical — recovery is invisible to
//!   the profiler's send accounting, not just to the application;
//! - the [`RecoveryLog`] reports *exactly* the injected faults (one kill
//!   on the right rank, one restart, no phantom retries).
//!
//! A multi-superstep kernel additionally sweeps the kill superstep and
//! checks the wasted-work accounting, and the flaky-network sweep checks
//! transparent timeout/retry the same way. The negative litmus pins the
//! quiescence precondition: a checkpoint at a non-quiescent cut must be
//! rejected, never silently captured.
//!
//! `ACTORPROF_RECOVERY_KILL=0` skips the kill classes (CI runs a
//! kill/no-kill matrix over this file; the no-kill lane still exercises
//! baselines, flaky-network recovery, and the litmus tests).

use std::cell::RefCell;
use std::rc::Rc;

use actorprof_suite::actorprof::{Matrix, Profiler, RecoverySpec, TraceBundle};
use actorprof_suite::actorprof_trace::TraceConfig;
use actorprof_suite::fabsp_apps::histogram::{self, HistogramConfig};
use actorprof_suite::fabsp_apps::index_gather::{self, IndexGatherConfig};
use actorprof_suite::fabsp_apps::registry;
use actorprof_suite::fabsp_apps::triangle::{count_triangles, DistKind, TriangleConfig};
use actorprof_suite::fabsp_graph::Csr;
use actorprof_suite::fabsp_shmem::{spmd, FaultSpec, Grid, RecoveryLog, ShmemError};
use actorprof_suite::fabsp_testkit::matrix::MatrixParams;

/// Kill classes are on unless the CI matrix turns them off.
fn kill_enabled() -> bool {
    std::env::var("ACTORPROF_RECOVERY_KILL").map_or(true, |v| v != "0")
}

fn logical(bundle: &TraceBundle) -> Matrix {
    bundle.logical_matrix().expect("logical trace collected")
}

/// Assert `log` records exactly one kill of `rank` handled by one restart.
fn assert_one_recovered_kill(log: &RecoveryLog, rank: u32) {
    assert_eq!(log.kills_observed.len(), 1, "exactly one kill: {log}");
    let kill = &log.kills_observed[0];
    assert_eq!(kill.attempt, 0, "the kill fires on the initial attempt");
    assert_eq!(kill.pe, rank as usize, "the injected rank died");
    assert!(
        kill.message.contains("fault injection: kill_pe"),
        "the log names the injected fault, got: {}",
        kill.message
    );
    assert_eq!(log.restarts, 1, "one restart recovered it: {log}");
    assert!(log.checkpoints_taken >= 1, "checkpointing was active: {log}");
}

#[test]
fn every_registered_app_recovers_bit_identical_from_any_killed_pe() {
    // The registry-wide form of the per-kernel sweeps below: for each of
    // the three apps, kill every rank in turn at the first superstep
    // boundary and demand the recovered run reproduce the undisturbed
    // baseline bit-for-bit — result digest, golden oracle, and logical
    // trace matrix — with a RecoveryLog naming exactly the injected fault.
    // This is the gate that keeps newly adopted apps honest about carrying
    // recovery state through their Outcome.
    let params = MatrixParams::new(Grid::new(2, 2).unwrap());
    for app in registry() {
        let base = app
            .run(&params)
            .unwrap_or_else(|e| panic!("{} baseline: {e}", app.name));
        base.assert_golden(&format!("{} baseline", app.name));
        assert!(
            base.recovery.is_clean(),
            "{} baseline: {}",
            app.name,
            base.recovery
        );

        if !kill_enabled() {
            continue;
        }
        for rank in 0..params.grid.n_pes() as u32 {
            let p = params
                .clone()
                .with_faults(FaultSpec::kill_pe(rank, 0))
                .with_recovery(RecoverySpec::restart(2), 1);
            let out = app
                .run(&p)
                .unwrap_or_else(|e| panic!("{} kill rank {rank}: {e}", app.name));
            let ctx = format!("{} kill rank {rank}", app.name);
            out.assert_matches(&base, &ctx);
            out.assert_golden(&ctx);
            assert_one_recovered_kill(&out.recovery, rank);
        }
    }
}

#[test]
fn histogram_recovers_bit_identical_from_any_killed_pe() {
    let mut cfg = HistogramConfig::new(Grid::new(2, 2).unwrap());
    cfg.updates_per_pe = 48;
    cfg.table_size_per_pe = 16;
    cfg.trace = TraceConfig::off().with_logical();
    let base = histogram::run(&cfg).expect("baseline run");
    assert!(base.recovery.is_clean(), "{}", base.recovery);
    let base_matrix = logical(&base.bundle);

    if !kill_enabled() {
        return;
    }
    for rank in 0..cfg.grid.n_pes() as u32 {
        let mut c = cfg.clone();
        c.faults = FaultSpec::kill_pe(rank, 0);
        c.checkpoint_every = Some(1);
        c.recovery = RecoverySpec::restart(2);
        let out = histogram::run(&c).unwrap_or_else(|e| panic!("kill rank {rank}: {e}"));
        assert_eq!(
            out.per_pe_updates, base.per_pe_updates,
            "result diverged after recovering a kill of rank {rank}"
        );
        assert_eq!(
            logical(&out.bundle),
            base_matrix,
            "logical trace diverged after recovering a kill of rank {rank}"
        );
        assert_one_recovered_kill(&out.recovery, rank);
        assert_eq!(out.recovery.wasted_supersteps, 1, "{}", out.recovery);
    }
}

#[test]
fn index_gather_recovers_bit_identical_from_any_killed_pe() {
    let mut cfg = IndexGatherConfig::new(Grid::new(2, 2).unwrap());
    cfg.reads_per_pe = 40;
    cfg.table_size_per_pe = 16;
    cfg.trace = TraceConfig::off().with_logical();
    let base = index_gather::run(&cfg).expect("baseline run");
    assert!(base.recovery.is_clean(), "{}", base.recovery);
    let base_matrix = logical(&base.bundle);

    if !kill_enabled() {
        return;
    }
    for rank in 0..cfg.grid.n_pes() as u32 {
        let mut c = cfg.clone();
        c.faults = FaultSpec::kill_pe(rank, 0);
        c.checkpoint_every = Some(1);
        c.recovery = RecoverySpec::restart(2);
        let out = index_gather::run(&c).unwrap_or_else(|e| panic!("kill rank {rank}: {e}"));
        assert_eq!(out.correct_reads, base.correct_reads, "kill rank {rank}");
        assert_eq!(
            logical(&out.bundle),
            base_matrix,
            "logical trace diverged after recovering a kill of rank {rank}"
        );
        assert_one_recovered_kill(&out.recovery, rank);
    }
}

fn recovery_graph() -> Csr {
    let edges = [
        (1, 0),
        (2, 0),
        (3, 0),
        (2, 1),
        (3, 1),
        (3, 2),
        (4, 0),
        (4, 1),
        (5, 2),
        (5, 3),
        (5, 4),
    ];
    Csr::from_edges(6, &edges)
}

#[test]
fn triangle_recovers_bit_identical_from_any_killed_pe() {
    let l = recovery_graph();
    let cfg = TriangleConfig::new(Grid::new(2, 2).unwrap())
        .with_dist(DistKind::Cyclic)
        .with_trace(TraceConfig::off().with_logical());
    let base = count_triangles(&l, &cfg).expect("baseline run");
    assert!(base.recovery.is_clean(), "{}", base.recovery);
    let base_matrix = logical(&base.bundle);

    if !kill_enabled() {
        return;
    }
    for rank in 0..cfg.grid.n_pes() as u32 {
        let mut c = cfg.clone();
        c.faults = FaultSpec::kill_pe(rank, 0);
        c.checkpoint_every = Some(1);
        c.recovery = RecoverySpec::restart(2);
        // The app validates every run: the recovered count must also match
        // the sequential reference, and the wedges the handlers received
        // must equal the graph's, not just the baseline run's.
        let out = count_triangles(&l, &c).unwrap_or_else(|e| panic!("kill rank {rank}: {e}"));
        assert_eq!(out.triangles, base.triangles, "kill rank {rank}");
        assert_eq!(out.per_pe_triangles, base.per_pe_triangles, "kill rank {rank}");
        assert_eq!(
            logical(&out.bundle),
            base_matrix,
            "logical trace diverged after recovering a kill of rank {rank}"
        );
        assert_one_recovered_kill(&out.recovery, rank);
    }
}

/// A three-superstep kernel through the facade: each superstep every PE
/// sends one tagged message per peer; the handler folds them into a
/// per-PE accumulator that survives across supersteps.
fn three_superstep_run(profiler: Profiler) -> actorprof_suite::actorprof::Report<u64> {
    profiler
        .run(|pe, prof| {
            let acc = Rc::new(RefCell::new(0u64));
            let a = Rc::clone(&acc);
            let mut actor = prof
                .selector(1, move |_mb, msg: u64, from, _ctx| {
                    *a.borrow_mut() += msg * (from as u64 + 1);
                })
                .expect("selector");
            for round in 0..3u64 {
                actor
                    .execute(pe, |ctx| {
                        for dst in 0..ctx.n_pes() {
                            ctx.send(0, round * 10 + ctx.rank() as u64, dst)
                                .expect("send");
                        }
                        ctx.done(0).expect("done");
                    })
                    .expect("execute");
            }
            let got = *acc.borrow();
            got
        })
        .expect("profiled run")
}

#[test]
fn kill_superstep_sweep_accounts_wasted_work() {
    let grid = Grid::new(2, 2).unwrap();
    let base = three_superstep_run(Profiler::new(grid).logical());
    assert!(base.recovery.is_clean(), "{}", base.recovery);
    let base_matrix = base.bundle.logical_matrix().expect("logical");

    if !kill_enabled() {
        return;
    }
    for at_superstep in 0..3u32 {
        let out = three_superstep_run(
            Profiler::new(grid)
                .logical()
                .faults(FaultSpec::kill_pe(1, at_superstep))
                .checkpoint_every(1)
                .recovery(RecoverySpec::restart(2)),
        );
        assert_eq!(
            out.results, base.results,
            "result diverged, kill at superstep {at_superstep}"
        );
        assert_eq!(
            out.bundle.logical_matrix().expect("logical"),
            base_matrix,
            "logical trace diverged, kill at superstep {at_superstep}"
        );
        assert_one_recovered_kill(&out.recovery, 1);
        // Killing at the end of superstep s wastes supersteps 0..=s.
        assert_eq!(
            out.recovery.wasted_supersteps,
            at_superstep as u64 + 1,
            "wasted-work accounting, kill at superstep {at_superstep}: {}",
            out.recovery
        );
        // One checkpoint per begun superstep on the killed attempt, plus
        // three on the clean attempt.
        assert_eq!(
            out.recovery.checkpoints_taken,
            at_superstep as u64 + 1 + 3,
            "{}",
            out.recovery
        );
    }
}

#[test]
fn flaky_network_retries_are_transparent() {
    let mut cfg = HistogramConfig::new(Grid::new(2, 2).unwrap());
    cfg.updates_per_pe = 48;
    cfg.table_size_per_pe = 16;
    cfg.trace = TraceConfig::off().with_logical();
    let base = histogram::run(&cfg).expect("baseline run");
    let base_matrix = logical(&base.bundle);

    // Aggregation collapses the 192 sends into a handful of cross-node
    // puts, so drive the drop rate high enough that some of them are
    // guaranteed to time out under this seed.
    let mut flaky = cfg.clone();
    flaky.faults = FaultSpec::net_flaky(0xF1A2, 0.5);
    let out = histogram::run(&flaky).expect("flaky run");
    assert_eq!(out.per_pe_updates, base.per_pe_updates);
    assert_eq!(logical(&out.bundle), base_matrix);
    assert!(
        out.recovery.net_retries > 0,
        "a 50% drop rate over cross-node traffic must retry at least once: {}",
        out.recovery
    );
    assert!(out.recovery.kills_observed.is_empty(), "{}", out.recovery);
    assert_eq!(out.recovery.restarts, 0, "retries never escalate to restarts");
}

#[test]
fn kill_and_flaky_network_compose() {
    if !kill_enabled() {
        return;
    }
    let mut cfg = HistogramConfig::new(Grid::new(2, 2).unwrap());
    cfg.updates_per_pe = 32;
    cfg.table_size_per_pe = 16;
    cfg.trace = TraceConfig::off().with_logical();
    let base = histogram::run(&cfg).expect("baseline run");

    let mut c = cfg.clone();
    c.faults = FaultSpec::kill_pe(2, 0).and_net_flaky(0xBEEF, 0.5);
    c.checkpoint_every = Some(1);
    c.recovery = RecoverySpec::restart(2);
    let out = histogram::run(&c).expect("composed-fault run");
    assert_eq!(out.per_pe_updates, base.per_pe_updates);
    assert_eq!(logical(&out.bundle), logical(&base.bundle));
    assert_one_recovered_kill(&out.recovery, 2);
    assert!(out.recovery.net_retries > 0, "{}", out.recovery);
}

#[test]
fn abort_policy_still_fails_on_a_kill() {
    if !kill_enabled() {
        return;
    }
    let mut cfg = HistogramConfig::new(Grid::single_node(2).unwrap());
    cfg.updates_per_pe = 8;
    cfg.table_size_per_pe = 8;
    cfg.faults = FaultSpec::kill_pe(0, 0);
    // Default recovery is Abort: the kill must surface as an error, not
    // hang and not silently succeed.
    let err = histogram::run(&cfg).expect_err("abort policy propagates the kill");
    assert!(
        err.to_string().contains("kill_pe") || err.to_string().contains("poisoned"),
        "unexpected error: {err}"
    );
}

#[test]
fn exhausted_retries_fail_with_the_injected_fault() {
    if !kill_enabled() {
        return;
    }
    // A kill that fires on *every* attempt exhausts max_retries. Use the
    // substrate directly: FaultSpec kills only attempt 0, so panic
    // unconditionally in the closure instead.
    let grid = Grid::single_node(2).unwrap();
    let harness = actorprof_suite::fabsp_shmem::Harness::new(grid)
        .recovery(RecoverySpec::restart(2));
    let err = spmd::run_recovering(harness, |pe| {
        if pe.rank() == 1 {
            panic!("permanent failure");
        }
        pe.barrier_all();
    })
    .expect_err("a fault on every attempt must exhaust retries");
    match err {
        ShmemError::RetriesExhausted { attempts, pe, message } => {
            assert_eq!(attempts, 3, "initial + 2 retries");
            assert_eq!(pe, 1);
            assert!(message.contains("permanent failure"), "{message}");
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
}

#[test]
fn checkpoint_at_a_non_quiescent_cut_is_rejected() {
    // Negative litmus for the quiescence precondition: a pending
    // non-blocking put anywhere in the world poisons the cut for all PEs.
    let grid = Grid::new(2, 1).unwrap();
    spmd::run(grid, |pe| {
        let sym = pe.alloc_sym::<u64>(1);
        if pe.rank() == 0 {
            sym.put_nbi(pe, 1, 0, &[41]).unwrap();
        }
        let err = pe.checkpoint().expect_err("non-quiescent cut");
        assert_eq!(err, ShmemError::CheckpointNotQuiescent { pending_nbi: 1 });
        assert!(pe.latest_checkpoint().is_none(), "nothing was captured");
        pe.quiet();
        let ckpt = pe.checkpoint().expect("quiet cut is accepted");
        assert_eq!(ckpt.allocations(), 1);
        pe.barrier_all();
    })
    .unwrap();
}
