//! Glass-cockpit demo: fly a run live, then replay a crash.
//!
//! Part 1 runs a hash-table histogram under **continuous profiling** —
//! every span is kept, and instrumentation cost is metered online against
//! a 5% budget — while the cockpit redraws on every observer tick: master
//! status, overhead verdict, hottest phases with `file:line` attribution,
//! per-PE load bars, and a throughput sparkline.
//!
//! Part 2 crashes PE 1 with a flight-recorder directory configured and
//! renders the post-mortem `flightrec-pe*.json` dumps as a time-rebased
//! replay.
//!
//! ```text
//! cargo run --release --example live_dashboard
//! ```

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Mutex;
use std::time::Duration;

use actorprof_suite::actorprof::{
    Counter, FlightDump, Frame, OverheadBudget, Phase, Profiler, Report, RunError,
};
use actorprof_suite::actorprof_viz::cockpit::{Cockpit, CockpitConfig};
use actorprof_suite::fabsp_shmem::{Grid, ShmemError};

const N: usize = 200_000; // messages per PE — long enough to see ticks
const TABLE: usize = 512;

/// A histogram of `n` messages per PE; PE `crash_pe`, if any, panics once
/// its superstep is done.
fn histogram_run(p: Profiler, n: usize, crash_pe: Option<usize>) -> Result<Report<u64>, RunError> {
    p.run(move |pe, ctx| {
        let larray = Rc::new(RefCell::new(vec![0u64; TABLE]));
        let handler_array = Rc::clone(&larray);
        let mut actor = ctx
            .selector(1, move |_mb, idx: u64, _from, _ctx| {
                handler_array.borrow_mut()[idx as usize % TABLE] += 1;
            })
            .expect("selector");
        actor
            .execute(pe, |main| {
                for i in 0..n {
                    let dst = (i * 7 + main.rank()) % main.n_pes();
                    main.send(0, i as u64, dst).expect("send");
                }
                main.done(0).expect("done");
            })
            .expect("execute");
        if crash_pe == Some(pe.rank()) {
            panic!("deliberate crash on pe{}", pe.rank());
        }
        let mass: u64 = larray.borrow().iter().sum();
        mass
    })
}

fn main() {
    // ---- part 1: live cockpit over a continuous-profiling run ----------
    let cockpit = Mutex::new(Cockpit::new(CockpitConfig::default()));
    let report = histogram_run(
        Profiler::new(Grid::new(1, 4).expect("grid"))
            .continuous(OverheadBudget::pct(5.0))
            .observe_every(Duration::from_millis(5), move |frame: &Frame| {
                let mut cockpit = cockpit.lock().expect("cockpit");
                print!("{}{}", cockpit.clear(), cockpit.render(frame));
            }),
        N,
        None,
    )
    .expect("profiled run");
    let total: u64 = report.results.iter().sum();
    assert_eq!(total, (N * 4) as u64, "every message handled");

    let snap = report.telemetry.expect("telemetry on by default");
    let overhead = report.continuous.expect("continuous mode on");
    println!(
        "\ndone: {} messages on {} PEs ({} sends, {} spans kept)\n\
         overhead: {} windows, final {:.2}% (budget {:.1}%)",
        total,
        report.bundle.n_pes(),
        snap.counter_total(Counter::ActorSends),
        Phase::ALL
            .iter()
            .map(|p| snap.span_count_total(*p))
            .sum::<u64>(),
        overhead.windows(),
        overhead.final_overhead_pct(),
        overhead.budget.pct,
    );

    // ---- part 2: crash, replay the flight recorder ---------------------
    let dumps_dir = std::env::temp_dir().join(format!("actorprof-cockpit-{}", std::process::id()));
    let err = histogram_run(
        Profiler::new(Grid::single_node(2).expect("grid")).flightrec_dir(&dumps_dir),
        2_000,
        Some(1),
    )
    .expect_err("pe1 panics");
    assert!(
        matches!(err, RunError::Shmem(ShmemError::PePanicked { pe: 1, .. })),
        "the crash is reported as pe1's panic: {err}"
    );
    println!("\ncrashed: {err}");
    let dumps = FlightDump::load_dir(&dumps_dir).expect("load dumps");
    let cockpit = Cockpit::new(CockpitConfig::default());
    print!("{}", cockpit.render_replay(&dumps));
    let _ = std::fs::remove_dir_all(&dumps_dir);
}
