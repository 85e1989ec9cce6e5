//! Correctness of the Google Trace Events export on a real profiled run:
//! parse the emitted JSON back (hand-rolled — the format is one event per
//! line), and check it against the bundle it came from.
//!
//! Invariants: one instant event per physical record; every `B` has a
//! matching `E` on the same thread under stack discipline; per-PE
//! timestamps are monotone non-decreasing across all event kinds.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use actorprof_suite::actorprof::{export, OverheadBudget, Profiler};
use actorprof_suite::fabsp_shmem::Grid;

/// One parsed trace event: (name, ph, pid, tid, ts).
#[derive(Debug, Clone)]
struct Ev {
    name: String,
    ph: char,
    tid: u64,
    ts: f64,
}

/// Extract the `"args":{"name":"..."}` value from one metadata line.
fn args_name(line: &str) -> Option<String> {
    let tag = "\"args\":{\"name\":\"";
    let start = line.find(tag)? + tag.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extract the string value of `"key":"..."` from one JSON object line.
fn str_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":\"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extract the numeric value of `"key":...` from one JSON object line.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest
        .find([',', '}'])
        .expect("number terminated by , or }");
    rest[..end].trim().parse().ok()
}

/// Parse every event object out of the trace-events JSON.
fn parse(json: &str) -> Vec<Ev> {
    assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
    assert!(json.trim_end().ends_with("]}"));
    json.lines()
        .filter(|l| l.starts_with('{') && l.contains("\"ph\":"))
        .filter(|l| !l.starts_with("{\"displayTimeUnit\""))
        .map(|l| Ev {
            name: str_field(l, "name").expect("every event is named"),
            ph: str_field(l, "ph").expect("every event has a phase").chars().next().unwrap(),
            tid: num_field(l, "tid").expect("every event has a tid") as u64,
            ts: num_field(l, "ts").unwrap_or(0.0),
        })
        .collect()
}

#[test]
fn exported_json_matches_bundle_and_nests_cleanly() {
    // 2 nodes × 2 PEs: cross-node traffic forces non-blocking puts and
    // their quiet fences, so quiet spans appear alongside advances
    let grid = Grid::new(2, 2).unwrap();
    let report = Profiler::new(grid)
        .physical()
        .spans()
        .run(|pe, ctx| {
            let table = Rc::new(RefCell::new(vec![0u64; 64]));
            let h = Rc::clone(&table);
            let mut actor = ctx
                .selector(1, move |_mb, idx: u64, _from, _ctx| {
                    h.borrow_mut()[idx as usize % 64] += 1;
                })
                .unwrap();
            actor
                .execute(pe, |main| {
                    for i in 0..500usize {
                        let dst = (i + main.rank()) % main.n_pes();
                        main.send(0, i as u64, dst).unwrap();
                    }
                    main.done(0).unwrap();
                })
                .unwrap();
            let mass: u64 = table.borrow().iter().sum();
            mass
        })
        .expect("profiled run");
    assert_eq!(report.results.iter().sum::<u64>(), 2000);

    let json = export::trace_events_json(&report.bundle).expect("export");
    let events = parse(&json);

    // --- metadata: every PE lane is labeled pe<rank> ---------------------
    let thread_names: HashMap<u64, String> = json
        .lines()
        .filter(|l| l.contains("\"name\":\"thread_name\""))
        .map(|l| {
            (
                num_field(l, "tid").expect("tid") as u64,
                args_name(l).expect("thread_name carries args.name"),
            )
        })
        .collect();
    assert_eq!(thread_names.len(), 4, "one thread_name per PE");
    for (tid, label) in &thread_names {
        assert_eq!(label, &format!("pe{tid}"), "PE lanes are labeled pe<rank>");
    }
    assert!(!json.contains("\"PE"), "no uppercase PE labels in metadata");

    // --- instant events: exactly one per physical record -----------------
    let physical: usize = report
        .bundle
        .collectors()
        .iter()
        .map(|c| c.physical_records().len())
        .sum();
    let instants = events.iter().filter(|e| e.ph == 'i').count();
    assert!(physical > 0, "the run must have physical sends");
    assert_eq!(instants, physical, "one instant event per physical record");

    // --- durations: B/E balanced per thread, stack discipline ------------
    let spans: usize = report
        .bundle
        .collectors()
        .iter()
        .map(|c| c.span_records().len())
        .sum();
    assert!(spans > 0, "the run must have phase spans");
    assert_eq!(events.iter().filter(|e| e.ph == 'B').count(), spans);
    assert_eq!(events.iter().filter(|e| e.ph == 'E').count(), spans);
    let mut stacks: HashMap<u64, Vec<String>> = HashMap::new();
    for e in &events {
        match e.ph {
            'B' => stacks.entry(e.tid).or_default().push(e.name.clone()),
            'E' => {
                let top = stacks
                    .get_mut(&e.tid)
                    .and_then(|s| s.pop())
                    .unwrap_or_else(|| panic!("E with empty stack on tid {}", e.tid));
                assert_eq!(top, e.name, "E must close the innermost open B");
            }
            _ => {}
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "tid {tid} left open spans: {stack:?}");
    }
    // every recorded phase shows up
    for phase in ["superstep", "advance", "quiet"] {
        assert!(
            events.iter().any(|e| e.ph == 'B' && e.name == phase),
            "expected at least one {phase} span"
        );
    }

    // --- timestamps monotone per PE over i/B/E ---------------------------
    let mut last: HashMap<u64, f64> = HashMap::new();
    for e in events.iter().filter(|e| e.ph != 'M' && e.ph != 'C') {
        let prev = last.entry(e.tid).or_insert(0.0);
        assert!(
            e.ts >= *prev,
            "tid {} went back in time: {} after {}",
            e.tid,
            e.ts,
            prev
        );
        *prev = e.ts;
    }
}

#[test]
fn continuous_run_round_trips_the_governor_lane() {
    let grid = Grid::new(2, 2).unwrap();
    let path = std::env::temp_dir().join(format!(
        "actorprof-overhead-lane-{}.json",
        std::process::id()
    ));
    let report = Profiler::new(grid)
        .continuous(OverheadBudget::pct(5.0))
        .observe_every(Duration::from_millis(1), |_| {})
        .trace_events_path(&path)
        .run(|pe, ctx| {
            let seen = Rc::new(RefCell::new(0u64));
            let h = Rc::clone(&seen);
            let mut actor = ctx
                .selector(1, move |_mb, _idx: u64, _from, _ctx| *h.borrow_mut() += 1)
                .unwrap();
            actor
                .execute(pe, |main| {
                    for i in 0..20_000usize {
                        let dst = (i + main.rank()) % main.n_pes();
                        main.send(0, i as u64, dst).unwrap();
                    }
                    main.done(0).unwrap();
                })
                .unwrap();
            let handled = *seen.borrow();
            handled
        })
        .expect("continuous run");
    let continuous = report.continuous.as_ref().expect("continuous report");
    assert!(continuous.windows() >= 1, "at least one observation window");

    let json = std::fs::read_to_string(&path).expect("trace written");
    let _ = std::fs::remove_file(&path);

    // The overhead lane rides as its own process after the node pids.
    let lane_pid = json
        .lines()
        .find(|l| args_name(l).as_deref() == Some("overhead"))
        .and_then(|l| num_field(l, "pid"))
        .expect("overhead process_name metadata") as u64;
    assert_eq!(lane_pid, 2, "synthetic pid follows the two node pids");
    assert!(
        json.lines()
            .any(|l| args_name(l).as_deref() == Some("overhead meter")),
        "overhead thread_name metadata"
    );

    // One window event per metered window: the first (no known start) is
    // an instant, every later one a balanced B/E pair whose end carries
    // the window's measured overhead.
    let window = |ph: &str| {
        json.lines()
            .filter(|l| l.contains("\"name\":\"window\"") && l.contains(&format!("\"ph\":\"{ph}\"")))
            .count() as u64
    };
    assert_eq!(window("i"), 1, "first window is an instant");
    assert_eq!(window("B"), continuous.windows() - 1);
    assert_eq!(window("B"), window("E"), "window pairs balanced");
    let with_pct = json
        .lines()
        .filter(|l| l.contains("\"name\":\"window\"") && l.contains("\"overhead_pct\":"))
        .count() as u64;
    assert_eq!(
        with_pct,
        continuous.windows(),
        "every window carries its measured overhead"
    );
}
