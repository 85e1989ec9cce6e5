//! CI telemetry smoke: produce the observability artifacts a workflow run
//! uploads — a Perfetto-loadable trace-events JSON from a healthy
//! continuous-mode run, and a flight-recorder dump from a run that dies
//! (the deterministic scheduler's termination budget trips).
//!
//! ```text
//! cargo run --release -p fabsp-bench --bin telemetry_smoke
//! ```
//!
//! Writes under `target/ci-artifacts/`: `trace_events.json` and
//! `flightrec/flightrec-pe*.json`. Exits non-zero if either artifact is
//! missing or empty, or if the healthy run meters fewer than three windows
//! or ends over the default overhead budget.

use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use actorprof::{OverheadBudget, Profiler};
use fabsp_conveyors::{Conveyor, ConveyorOptions, TopologySpec};
use fabsp_shmem::{spmd, Grid, Harness, SchedSpec};
use fabsp_telemetry::TelemetryRegistry;

/// Messages each of the 4 PEs sends in the healthy run.
const N_PER_PE: usize = 150_000;
/// Observation window of the healthy run.
const WINDOW: Duration = Duration::from_millis(2);
/// Metered windows the healthy run must span.
const MIN_WINDOWS: u64 = 3;

fn main() {
    let dir = Path::new("target/ci-artifacts");
    std::fs::create_dir_all(dir).expect("create artifact dir");

    // --- healthy run: continuous mode, Perfetto trace with spans + instants
    // Sized to outlast several observation windows: a run shorter than one
    // window meters only the stub flush window, which is no measurement.
    let trace_path = dir.join("trace_events.json");
    let grid = Grid::new(2, 2).expect("grid");
    let report = Profiler::new(grid)
        .physical()
        .continuous(OverheadBudget::default())
        .observe_every(WINDOW, |_| {})
        .trace_events_path(&trace_path)
        .run(|pe, ctx| {
            let table = Rc::new(RefCell::new(vec![0u64; 64]));
            let h = Rc::clone(&table);
            let mut actor = ctx
                .selector(1, move |_mb, idx: u64, _from, _ctx| {
                    h.borrow_mut()[idx as usize % 64] += 1;
                })
                .expect("selector");
            actor
                .execute(pe, |main| {
                    for i in 0..N_PER_PE {
                        let dst = (i + main.rank()) % main.n_pes();
                        main.send(0, i as u64, dst).expect("send");
                    }
                    main.done(0).expect("done");
                })
                .expect("execute");
            let mass: u64 = table.borrow().iter().sum();
            mass
        })
        .expect("profiled run");
    let total: u64 = report.results.iter().sum();
    assert_eq!(total, 4 * N_PER_PE as u64, "every message handled");
    let snap = report.telemetry.expect("telemetry snapshot");
    let overhead = report.continuous.expect("continuous report");
    println!(
        "continuous: {} windows, final measured overhead {:.2}% of a {:.1}% budget",
        overhead.windows(),
        overhead.final_overhead_pct(),
        overhead.budget.pct
    );
    assert!(
        overhead.windows() >= MIN_WINDOWS,
        "the run outlasts several windows"
    );
    assert!(
        overhead.within_budget(),
        "final window over the overhead budget"
    );
    let json = std::fs::read_to_string(&trace_path).expect("trace written");
    assert!(json.contains("\"ph\":\"B\""), "trace has duration spans");
    println!(
        "trace_events.json: {} bytes, {} spans, {} sends counted",
        json.len(),
        json.matches("\"ph\":\"B\"").count(),
        snap.counter_total(actorprof::Counter::ActorSends)
    );

    // --- dying run: flight-recorder dump ---------------------------------
    let flight_dir = dir.join("flightrec");
    let _ = std::fs::remove_dir_all(&flight_dir);
    let reg = Arc::new(TelemetryRegistry::new(2).flight_dump_dir(&flight_dir));
    let harness = Harness::new(Grid::single_node(2).expect("grid"))
        .sched(SchedSpec::RandomWalk {
            seed: 9,
            max_steps: 10,
        })
        .telemetry(reg);
    let outcome = spmd::run(harness, |pe| {
        let mut c = Conveyor::<u64>::new(
            pe,
            ConveyorOptions {
                capacity: 1,
                topology: TopologySpec::Auto,
            },
        )
        .expect("conveyor");
        let dst = 1 - pe.rank();
        let mut sent = 0;
        loop {
            while sent < 500 && c.push(pe, sent as u64, dst).expect("push").is_accepted() {
                sent += 1;
            }
            let active = c.advance(pe, sent == 500);
            while c.pull().is_some() {}
            if !active {
                break;
            }
            pe.poll_yield();
        }
    });
    assert!(outcome.is_err(), "the step budget must trip");
    let dumps: Vec<_> = std::fs::read_dir(&flight_dir)
        .expect("flightrec dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    assert!(!dumps.is_empty(), "at least one flight dump written");
    for d in &dumps {
        let body = std::fs::read_to_string(d).expect("dump readable");
        assert!(body.contains("\"events\":["), "dump carries the event ring");
        println!("{}: {} bytes", d.display(), body.len());
    }
    println!("telemetry smoke ok");
}
