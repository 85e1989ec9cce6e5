//! CI cockpit smoke: render the glass cockpit headless and gate it
//! against the checked-in goldens.
//!
//! Three artifacts land under `target/ci-artifacts/`:
//!
//! - `cockpit.txt` — three live ticks from the deterministic fixture
//!   ([`fabsp_bench::cockpit_fixture::cockpit_live`]); must match
//!   `tests/golden/cockpit_live.txt` byte for byte.
//! - `cockpit_replay.txt` — the fixture flight-recorder replay; must match
//!   `tests/golden/cockpit_replay.txt`.
//! - `cockpit_crash_replay.txt` — the post-mortem dumps of a *real* run
//!   whose PE 1 panics, rendered through the same replay path (cycle
//!   stamps are live, so this one is sanity-checked, not golden-checked).
//!
//! ```text
//! cargo run --release -p fabsp-bench --bin cockpit_smoke
//! UPDATE_GOLDEN=1 cargo run -p fabsp-bench --bin cockpit_smoke  # regen
//! ```

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use actorprof::{FlightDump, Profiler, RunError};
use actorprof_viz::cockpit::{Cockpit, CockpitConfig};
use fabsp_bench::cockpit_fixture;
use fabsp_shmem::{Grid, ShmemError};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden").join(name)
}

/// Compare against the golden (shared with `tests/viz_golden.rs`), or
/// rewrite it when `UPDATE_GOLDEN` is set.
fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("updated golden {name}");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); run with UPDATE_GOLDEN=1", path.display()));
    assert_eq!(
        actual, golden,
        "{name} diverged from tests/golden/{name}; regenerate with UPDATE_GOLDEN=1 if intentional"
    );
    println!("{name}: matches golden ({} bytes)", actual.len());
}

fn main() {
    let dir = Path::new("target/ci-artifacts");
    std::fs::create_dir_all(dir).expect("create artifact dir");

    // --- golden-gated fixture renders ------------------------------------
    let live = cockpit_fixture::cockpit_live();
    std::fs::write(dir.join("cockpit.txt"), &live).expect("write cockpit.txt");
    assert_matches_golden("cockpit_live.txt", &live);

    let replay = cockpit_fixture::cockpit_replay();
    std::fs::write(dir.join("cockpit_replay.txt"), &replay).expect("write cockpit_replay.txt");
    assert_matches_golden("cockpit_replay.txt", &replay);

    // --- real crash: pe1 panics after its superstep, replay the recorder -
    let flight_dir = dir.join("cockpit-flightrec");
    let _ = std::fs::remove_dir_all(&flight_dir);
    let err = Profiler::new(Grid::single_node(2).expect("grid"))
        .flightrec_dir(&flight_dir)
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
                    for i in 0..2_000usize {
                        let dst = (i + main.rank()) % main.n_pes();
                        main.send(0, i as u64, dst).expect("send");
                    }
                    main.done(0).expect("done");
                })
                .expect("execute");
            if pe.rank() == 1 {
                panic!("deliberate crash on pe1");
            }
            let mass: u64 = table.borrow().iter().sum();
            mass
        })
        .expect_err("pe1 panics");
    assert!(
        matches!(err, RunError::Shmem(ShmemError::PePanicked { pe: 1, .. })),
        "the crash is reported as pe1's panic: {err}"
    );

    let dumps = FlightDump::load_dir(&flight_dir).expect("load flight dumps");
    assert!(!dumps.is_empty(), "the crash left at least one dump");
    let cockpit = Cockpit::new(CockpitConfig::plain(fabsp_telemetry::phase_site));
    let crash = cockpit.render_replay(&dumps);
    assert!(crash.contains("flight replay"), "replay header present");
    assert!(
        crash.contains("] span ") || crash.contains("] note "),
        "replay carries events:\n{crash}"
    );
    std::fs::write(dir.join("cockpit_crash_replay.txt"), &crash)
        .expect("write cockpit_crash_replay.txt");
    println!(
        "cockpit_crash_replay.txt: {} dumps, {} bytes",
        dumps.len(),
        crash.len()
    );
    println!("cockpit smoke ok");
}
