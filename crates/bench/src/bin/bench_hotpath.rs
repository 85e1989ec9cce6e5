//! Hot-path microbenchmark: conveyor push/advance throughput, SPSC rings
//! vs the frozen mutex baseline, the batched (`push_slice`/`pull_batch`)
//! surface vs per-item, traced-vs-untraced overhead, and the always-on
//! telemetry self-overhead (metrics registry on, phase spans sampled).
//!
//! Writes `BENCH_hotpath.json` (path relative to the working directory —
//! run from the repo root to update the checked-in copy). Beyond the
//! per-topology table, the file carries an oned PE-count sweep of the
//! batched path (base, 2x, 4x PEs — 8/16/32 at the defaults) with a
//! roofline column: conveyor payload bytes/sec against a STREAM-triad
//! bandwidth measurement taken at the same PE count.
//!
//! ```text
//! cargo run --release -p fabsp-bench --bin bench_hotpath
//! ACTORPROF_HOTPATH_ITEMS=20000 ACTORPROF_HOTPATH_PES=4 \
//!   cargo run --release -p fabsp-bench --bin bench_hotpath   # CI smoke
//! ```
//!
//! Environment knobs: `ACTORPROF_HOTPATH_ITEMS` (items per PE, default
//! 200000), `ACTORPROF_HOTPATH_PES` (default 8, must be even),
//! `ACTORPROF_HOTPATH_REPS` (default 3, best-of), `ACTORPROF_HOTPATH_OUT`
//! (default `BENCH_hotpath.json`), `ACTORPROF_TELEMETRY_GATE_PCT` (when
//! set, exit non-zero if the oned telemetry overhead exceeds it),
//! `ACTORPROF_CKPT_GATE_PCT` (when set, exit non-zero if the oned
//! checkpoint-on overhead exceeds it; checkpoint-off is the plain spsc
//! configuration, so its cost when disabled is zero by construction),
//! `ACTORPROF_BATCH_GATE` (when set, exit non-zero if the oned batched
//! speedup over per-item spsc falls below it).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use actorprof_trace::{PeCollector, TraceConfig};
use fabsp_bench::baseline::MutexConveyor;
use fabsp_conveyors::{Conveyor, ConveyorOptions};
use fabsp_shmem::{spmd, Grid, Harness};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// One all-to-all superstep on the SPSC conveyor: `items` pushes per PE,
/// round-robin destinations, drained to termination. Returns the slowest
/// PE's wall time for the push/advance/pull loop (construction excluded).
/// `trace` attaches a collector with that config; `telemetry` keeps the
/// always-on metrics registry wired (off isolates the ring baseline).
fn run_spsc(grid: Grid, items: usize, trace: Option<TraceConfig>, telemetry: bool) -> f64 {
    let mut harness = Harness::new(grid);
    if !telemetry {
        harness = harness.telemetry_off();
    }
    let per_pe = spmd::run(harness, move |pe| {
        let mut c = Conveyor::<u64>::new(pe, ConveyorOptions::default()).expect("conveyor");
        if let Some(cfg) = trace.clone() {
            c.attach_collector(Rc::new(RefCell::new(PeCollector::new(
                pe.rank(),
                pe.n_pes(),
                pe.grid().pes_per_node(),
                cfg,
            ))));
        }
        let n = pe.n_pes();
        let me = pe.rank();
        pe.barrier_all();
        let t0 = Instant::now();
        let mut next = 0usize;
        let mut received = 0u64;
        loop {
            while next < items {
                let dst = (me + next) % n;
                if c.push(pe, next as u64, dst).expect("push").is_accepted() {
                    next += 1;
                } else {
                    break;
                }
            }
            let active = c.advance(pe, next == items);
            while c.pull().is_some() {
                received += 1;
            }
            if !active {
                break;
            }
            pe.poll_yield();
        }
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(received, items as u64, "all-to-all must balance");
        secs
    })
    .expect("SPMD run");
    per_pe.into_iter().fold(0.0f64, f64::max)
}

/// The batched surface on the same all-to-all workload: the round-robin
/// stream is bucketed per destination up front (the shape `DestBuckets`
/// callers hand the runtime), staged with `push_slice`, and drained as
/// zero-copy `pull_batch` runs. PEs are pinned — the batched path is the
/// hot-path showcase, and pinning keeps the SPSC ring endpoints from
/// migrating mid-measurement. `adaptive` arms the capacity controller.
fn run_spsc_batched(grid: Grid, items: usize, adaptive: bool) -> f64 {
    let harness = Harness::new(grid).telemetry_off().pin_pes(true);
    let per_pe = spmd::run(harness, move |pe| {
        let mut c = Conveyor::<u64>::new(
            pe,
            ConveyorOptions {
                adaptive,
                ..ConveyorOptions::default()
            },
        )
        .expect("conveyor");
        let n = pe.n_pes();
        let me = pe.rank();
        let slices: Vec<Vec<u64>> = (0..n)
            .map(|dst| {
                (0..items)
                    .filter(|k| (me + k) % n == dst)
                    .map(|k| k as u64)
                    .collect()
            })
            .collect();
        pe.barrier_all();
        let t0 = Instant::now();
        let mut offsets = vec![0usize; n];
        let mut sent = 0usize;
        let mut received = 0u64;
        loop {
            for (dst, slice) in slices.iter().enumerate() {
                if offsets[dst] < slice.len() {
                    let accepted = c
                        .push_slice(pe, &slice[offsets[dst]..], dst)
                        .expect("push_slice")
                        .accepted;
                    offsets[dst] += accepted;
                    sent += accepted;
                }
            }
            let active = c.advance(pe, sent == items);
            while let Some(batch) = c.pull_batch() {
                received += batch.items.len() as u64;
            }
            if !active {
                break;
            }
            pe.poll_yield();
        }
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(received, items as u64, "all-to-all must balance");
        secs
    })
    .expect("SPMD run");
    per_pe.into_iter().fold(0.0f64, f64::max)
}

/// Aggregate STREAM-triad bandwidth (`a[i] = b[i] + s * c[i]`, 24 bytes
/// moved per element) at the given PE count — the memory-bandwidth
/// roofline the batched conveyor path is compared against. Arrays are
/// sized well past L2 so the loop streams from memory.
fn stream_triad_bytes_per_sec(pes: usize, reps: usize) -> f64 {
    const N: usize = 1 << 21; // 3 x 16 MiB of f64 per PE
    let grid = Grid::single_node(pes).expect("grid");
    (0..reps)
        .map(|_| {
            let per_pe = spmd::run(Harness::new(grid).telemetry_off().pin_pes(true), |pe| {
                let mut a = vec![0.0f64; N];
                let b = vec![1.0f64; N];
                let c = vec![2.0f64; N];
                pe.barrier_all();
                let t0 = Instant::now();
                for i in 0..N {
                    a[i] = b[i] + 3.0 * c[i];
                }
                let secs = t0.elapsed().as_secs_f64();
                std::hint::black_box(&a);
                secs
            })
            .expect("SPMD run");
            let slowest = per_pe.into_iter().fold(0.0f64, f64::max);
            (pes * N * 24) as f64 / slowest
        })
        .fold(0.0f64, f64::max)
}

/// The SPSC superstep with fault tolerance armed: a symmetric payload
/// region to capture, `checkpoint_every(1)`, and a
/// begin/checkpoint/end-superstep bracket around the exchange — one
/// capture per superstep, the way the selector runtime drives it. The
/// plain `run_spsc` numbers are the checkpoint-off baselines: with no
/// `checkpoint_every` configured the hot loop takes no checkpoint branch
/// at all, so the disabled feature costs nothing by construction.
fn run_spsc_ckpt(grid: Grid, items: usize) -> f64 {
    let harness = Harness::new(grid).telemetry_off().checkpoint_every(1);
    let per_pe = spmd::run(harness, move |pe| {
        let payload = pe.alloc_sym::<u64>(1024);
        payload.write_local(pe, |v| v.fill(pe.rank() as u64));
        let mut c = Conveyor::<u64>::new(pe, ConveyorOptions::default()).expect("conveyor");
        let n = pe.n_pes();
        let me = pe.rank();
        pe.barrier_all();
        let t0 = Instant::now();
        let ss = pe.begin_superstep();
        if pe.checkpoint_due(ss) {
            pe.checkpoint().expect("superstep start is quiescent");
        }
        let mut next = 0usize;
        let mut received = 0u64;
        loop {
            while next < items {
                let dst = (me + next) % n;
                if c.push(pe, next as u64, dst).expect("push").is_accepted() {
                    next += 1;
                } else {
                    break;
                }
            }
            let active = c.advance(pe, next == items);
            while c.pull().is_some() {
                received += 1;
            }
            if !active {
                break;
            }
            pe.poll_yield();
        }
        pe.end_superstep(ss);
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(received, items as u64, "all-to-all must balance");
        secs
    })
    .expect("SPMD run");
    per_pe.into_iter().fold(0.0f64, f64::max)
}

/// The same superstep on the frozen mutex baseline (telemetry off so the
/// baseline keeps measuring only the ring discipline).
fn run_mutex(grid: Grid, items: usize) -> f64 {
    let per_pe = spmd::run(Harness::new(grid).telemetry_off(), |pe| {
        let mut c = MutexConveyor::<u64>::new(pe, ConveyorOptions::default()).expect("conveyor");
        let n = pe.n_pes();
        let me = pe.rank();
        pe.barrier_all();
        let t0 = Instant::now();
        let mut next = 0usize;
        let mut received = 0u64;
        loop {
            while next < items {
                let dst = (me + next) % n;
                if c.push(pe, next as u64, dst).expect("push") {
                    next += 1;
                } else {
                    break;
                }
            }
            let active = c.advance(pe, next == items);
            while c.pull().is_some() {
                received += 1;
            }
            if !active {
                break;
            }
            pe.poll_yield();
        }
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(received, items as u64, "all-to-all must balance");
        secs
    })
    .expect("SPMD run");
    per_pe.into_iter().fold(0.0f64, f64::max)
}

/// Best-of-`reps` throughput in items/sec.
fn best_tput(reps: usize, total_items: usize, mut run: impl FnMut() -> f64) -> f64 {
    (0..reps)
        .map(|_| total_items as f64 / run())
        .fold(0.0f64, f64::max)
}

fn main() {
    let items = env_usize("ACTORPROF_HOTPATH_ITEMS", 200_000);
    let pes = env_usize("ACTORPROF_HOTPATH_PES", 8);
    let reps = env_usize("ACTORPROF_HOTPATH_REPS", 3);
    let out = std::env::var("ACTORPROF_HOTPATH_OUT")
        .unwrap_or_else(|_| "BENCH_hotpath.json".to_string());
    assert!(
        pes >= 2 && pes.is_multiple_of(2),
        "ACTORPROF_HOTPATH_PES must be even"
    );

    let topologies = [
        ("oned", Grid::single_node(pes).expect("grid")),
        ("mesh2d", Grid::new(2, pes / 2).expect("grid")),
    ];

    let mut sections = Vec::new();
    let mut oned_telemetry_overhead = 0.0f64;
    let mut oned_ckpt_overhead = 0.0f64;
    let mut oned_batched_speedup = 0.0f64;
    for (name, grid) in topologies {
        let total = items * grid.n_pes();
        eprintln!("[{name}] {} PEs x {items} items, best of {reps}", grid.n_pes());
        let mutex = best_tput(reps, total, || run_mutex(grid, items));
        let spsc = best_tput(reps, total, || run_spsc(grid, items, None, false));
        let batched = best_tput(reps, total, || run_spsc_batched(grid, items, false));
        let batched_adaptive = best_tput(reps, total, || run_spsc_batched(grid, items, true));
        let traced = best_tput(reps, total, || {
            run_spsc(grid, items, Some(TraceConfig::off().with_physical()), false)
        });
        // the always-on configuration: metrics registry wired, phase spans
        // enabled but sampled (1 in 64 hot-phase spans kept)
        let telemetry = best_tput(reps, total, || {
            run_spsc(
                grid,
                items,
                Some(TraceConfig::off().with_spans().with_span_sampling(64)),
                true,
            )
        });
        // fault tolerance on: one symmetric-heap checkpoint per superstep
        let ckpt = best_tput(reps, total, || run_spsc_ckpt(grid, items));
        let speedup = spsc / mutex;
        let batched_speedup = batched / spsc;
        let overhead = (1.0 - traced / spsc) * 100.0;
        let telemetry_overhead = (1.0 - telemetry / spsc) * 100.0;
        let ckpt_overhead = (1.0 - ckpt / spsc) * 100.0;
        if name == "oned" {
            oned_telemetry_overhead = telemetry_overhead;
            oned_ckpt_overhead = ckpt_overhead;
            oned_batched_speedup = batched_speedup;
        }
        eprintln!(
            "[{name}] mutex {:.2e} it/s | spsc {:.2e} it/s ({speedup:.2}x) | batched {:.2e} it/s ({batched_speedup:.2}x vs per-item) | adaptive {:.2e} it/s | traced {:.2e} it/s ({overhead:.1}% overhead) | telemetry {:.2e} it/s ({telemetry_overhead:.1}% overhead) | ckpt {:.2e} it/s ({ckpt_overhead:.1}% overhead)",
            mutex, spsc, batched, batched_adaptive, traced, telemetry, ckpt
        );
        sections.push(format!(
            r#"    "{name}": {{
      "mutex_baseline_items_per_sec": {mutex:.0},
      "spsc_items_per_sec": {spsc:.0},
      "speedup_vs_mutex": {speedup:.3},
      "batched_items_per_sec": {batched:.0},
      "batched_speedup_vs_per_item": {batched_speedup:.3},
      "batched_adaptive_items_per_sec": {batched_adaptive:.0},
      "traced_items_per_sec": {traced:.0},
      "tracing_overhead_percent": {overhead:.2},
      "telemetry_items_per_sec": {telemetry:.0},
      "telemetry_overhead_percent": {telemetry_overhead:.2},
      "ckpt_items_per_sec": {ckpt:.0},
      "checkpoint_overhead_percent": {ckpt_overhead:.2}
    }}"#
        ));
    }

    // oned PE-count sweep of the batched path with a STREAM-triad
    // roofline column: payload bytes/sec (8 bytes per item) over the
    // measured triad bandwidth at the same PE count.
    let mut sweep_sections = Vec::new();
    for p in [pes, pes * 2, pes * 4] {
        let grid = Grid::single_node(p).expect("grid");
        let total = items * p;
        eprintln!("[sweep] {p} PEs x {items} items (batched)");
        let batched = best_tput(reps, total, || run_spsc_batched(grid, items, false));
        let bytes_per_sec = batched * 8.0;
        let stream = stream_triad_bytes_per_sec(p, reps);
        let fraction = bytes_per_sec / stream;
        eprintln!(
            "[sweep] {p} PEs: batched {batched:.2e} it/s = {bytes_per_sec:.2e} B/s | stream triad {stream:.2e} B/s | {:.1}% of roofline",
            fraction * 100.0
        );
        sweep_sections.push(format!(
            r#"    {{
      "pes": {p},
      "batched_items_per_sec": {batched:.0},
      "payload_bytes_per_sec": {bytes_per_sec:.0},
      "stream_triad_bytes_per_sec": {stream:.0},
      "fraction_of_stream_roofline": {fraction:.4}
    }}"#
        ));
    }

    let json = format!(
        r#"{{
  "benchmark": "conveyor_hotpath",
  "workload": "all-to-all push/advance/pull, round-robin destinations",
  "items_per_pe": {items},
  "pes": {pes},
  "reps_best_of": {reps},
  "capacity": {capacity},
  "topologies": {{
{body}
  }},
  "oned_batched_pe_sweep": [
{sweep}
  ]
}}
"#,
        capacity = ConveyorOptions::default().capacity,
        body = sections.join(",\n"),
        sweep = sweep_sections.join(",\n")
    );
    std::fs::write(&out, json).expect("write BENCH_hotpath.json");
    println!("wrote {out}");

    // CI smoke gate: fail loudly if the always-on telemetry cost regresses
    if let Ok(gate) = std::env::var("ACTORPROF_TELEMETRY_GATE_PCT") {
        let gate: f64 = gate.parse().expect("ACTORPROF_TELEMETRY_GATE_PCT is a number");
        if oned_telemetry_overhead > gate {
            eprintln!(
                "FAIL: oned telemetry overhead {oned_telemetry_overhead:.2}% exceeds gate {gate}%"
            );
            std::process::exit(1);
        }
        println!(
            "telemetry gate ok: oned overhead {oned_telemetry_overhead:.2}% <= {gate}%"
        );
    }
    if let Ok(gate) = std::env::var("ACTORPROF_CKPT_GATE_PCT") {
        let gate: f64 = gate.parse().expect("ACTORPROF_CKPT_GATE_PCT is a number");
        if oned_ckpt_overhead > gate {
            eprintln!(
                "FAIL: oned checkpoint-on overhead {oned_ckpt_overhead:.2}% exceeds gate {gate}%"
            );
            std::process::exit(1);
        }
        println!("checkpoint gate ok: oned overhead {oned_ckpt_overhead:.2}% <= {gate}%");
    }
    if let Ok(gate) = std::env::var("ACTORPROF_BATCH_GATE") {
        let gate: f64 = gate.parse().expect("ACTORPROF_BATCH_GATE is a number");
        if oned_batched_speedup < gate {
            eprintln!(
                "FAIL: oned batched speedup {oned_batched_speedup:.2}x below gate {gate}x"
            );
            std::process::exit(1);
        }
        println!("batch gate ok: oned batched {oned_batched_speedup:.2}x >= {gate}x vs per-item");
    }
}
