//! The repo benchmark. Two modes over four 2-PE workloads:
//!
//! ```text
//! actorprof-benchmark [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1] [--sets K]
//! ```
//!
//! `--trace 0` (default) measures the six end-to-end metrics with the
//! benchmark's own spans off; `--trace 1` is the traced `layers` run that
//! produces the per-layer metrics and writes `benchmark/out/spans.json`.
//! Each workload ends with one JSON line: `correct`, `attempted`,
//! `failed`, `metrics`. See README.md.

mod e2e;
mod host;
mod layers;
mod postmortem;
mod repeat;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

use host::Host;
use spans::Spans;
use stats::Row;
use workloads::{Workload, N_PES};

/// Seed of a run that names none.
const DEFAULT_SEED: u64 = 20240917;
/// Measuring time of a run that names none; `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 26.0;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    sets: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        sets: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if value == "all" => {}
            "--workload" => args.workloads = vec![Workload::from_name(&value).ok_or_else(bad)?],
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--sets" => {
                args.sets = value.parse().map_err(|_| bad())?;
                if args.sets == 0 {
                    return Err(bad());
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.traced && args.sets > 1 {
        return Err("--sets compares end-to-end runs; use it with --trace 0".into());
    }
    Ok(args)
}

/// Print one workload's table, failures and result line; append it to the
/// history. Returns whether every rep passed and every value is a number
/// (a metric loses its row only when all of its reps failed).
fn report(host: &Host, args: &Args, workload: Workload, rows: &[Row], ops: &e2e::Ops) -> bool {
    let (attempted, failures) = (ops.attempted, &ops.failures);
    let mode = if args.traced { "layers" } else { "end_to_end" };
    let title = format!(
        "{} [{mode}] seed {} — {} CPUs ({}), commit {}, {N_PES} PEs",
        workload.name(),
        args.seed,
        host.nproc,
        host.cpu_model,
        host.commit
    );
    stats::print_table(&title, rows);
    let failed = failures.len() as u64;
    println!("  ops_attempted {attempted}  ops_failed {failed}");
    for f in failures {
        println!("  FAILED {f}");
    }
    let finite = rows.iter().all(|r| r.summary.value.is_finite());
    let correct = failed == 0 && finite;
    let run = host::Run {
        workload: workload.name(),
        mode,
        seed: args.seed,
        seconds: args.seconds,
        rows,
        attempted,
        failed,
    };
    if let Err(e) = host::append_history(host, &run) {
        eprintln!("warning: could not append to history.jsonl: {e}");
    }
    let printable: Vec<Row> = rows
        .iter()
        .filter(|r| r.summary.value.is_finite())
        .cloned()
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        host::metrics_json(&printable)
    );
    correct
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("actorprof-benchmark: {e}");
            eprintln!("usage: actorprof-benchmark [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1] [--sets K]");
            eprintln!(
                "workloads: {}",
                Workload::ALL.map(Workload::name).join(", ")
            );
            return ExitCode::from(2);
        }
    };
    let host = Host::detect();
    if host.nproc < N_PES {
        eprintln!(
            "actorprof-benchmark: refusing to run: {} CPU available, every workload needs {N_PES} \
             (one per PE thread; an oversubscribed PE stalls its spinning partner and the timings \
             measure the scheduler)",
            host.nproc
        );
        return ExitCode::from(2);
    }
    let scratch = host::out_dir().join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!(
            "actorprof-benchmark: cannot create {}: {e}",
            scratch.display()
        );
        return ExitCode::from(2);
    }

    let mut all_correct = true;
    if args.traced {
        let mut span_json = Vec::new();
        for &w in &args.workloads {
            let mut spans = Spans::new(w.name(), true);
            let (rows, ops) = layers::run(w, args.seed, args.seconds, &scratch, &mut spans);
            span_json.push(spans.to_json_items());
            all_correct &= report(&host, &args, w, &rows, &ops);
        }
        let path = host::out_dir().join("spans.json");
        let json = format!("[\n{}\n]\n", span_json.join(",\n"));
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("actorprof-benchmark: cannot write {}: {e}", path.display());
            all_correct = false;
        }
    } else {
        let mut sets = Vec::new();
        for set in 0..args.sets {
            if args.sets > 1 {
                println!("=== set {} of {} ===", set + 1, args.sets);
            }
            let mut outcomes = Vec::new();
            for &w in &args.workloads {
                let mut spans = Spans::new(w.name(), false);
                let (rows, ops) = e2e::run(w, args.seed, args.seconds, &scratch, &mut spans);
                all_correct &= report(&host, &args, w, &rows, &ops);
                outcomes.push(rows);
            }
            sets.push(outcomes);
        }
        if args.sets > 1 && all_correct {
            all_correct &= repeat::report(&args.workloads, &sets);
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
