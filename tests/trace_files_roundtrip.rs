//! Run boundaries and byte identity of the trace-file codec.
//!
//! Random record sequences — runs of length 1, 2 and 1000, the values 0 and
//! `u32::MAX`/`u64::MAX` (for a physical buffer, the largest size a packed
//! event holds), a run interrupted by one different record and resumed —
//! go through the real writer and reader. Three things must hold
//! for all five formats: the files are byte-for-byte what the `format!`
//! lines the writer used before the codec would have been (kept below as
//! the oracle), and reading them back gives the records that were written,
//! sampled or not.

use std::path::{Path, PathBuf};

use actorprof_suite::actorprof::{reader, writer, TraceBundle};
use actorprof_suite::actorprof_trace::{
    PapiConfig, PeCollector, PhysicalEvent, SendType, TraceConfig,
};
use proptest::prelude::*;

const N_PES: usize = 3;
const PES_PER_NODE: usize = 2;
const SIZES: [u32; 3] = [0, 8, u32::MAX];
const RUNS: [u64; 3] = [1, 2, 1000];
const BUFFERS: [u64; 3] = [0, 4096, PhysicalEvent::MAX_BUFFER_SIZE];
const CYCLES: [u64; 3] = [0, 1, u64::MAX / 4];
const TYPES: [SendType; 3] = [SendType::LocalSend, SendType::NonblockSend, SendType::NonblockProgress];

/// What one PE records, as indices into the tables above: sends
/// `(dst, size, mailbox, run)`, physical events `(type, buffer, dst, run)`
/// and the overall `(main, proc, comm)` cycles.
#[derive(Debug, Clone)]
struct PeInput {
    sends: Vec<(usize, usize, u32, usize)>,
    physical: Vec<(usize, usize, usize, usize)>,
    overall: (usize, usize, usize),
}

fn pe_input() -> impl Strategy<Value = PeInput> {
    let three = || 0usize..3;
    (
        proptest::collection::vec((0..N_PES, three(), 0u32..2, three()), 0..12),
        proptest::collection::vec((three(), three(), 0..N_PES, three()), 0..8),
        (three(), three(), three()),
    )
        .prop_map(|(sends, physical, overall)| PeInput { sends, physical, overall })
}

fn collector(pe: usize, config: TraceConfig, input: &PeInput) -> PeCollector {
    let mut c = PeCollector::new(pe, N_PES, PES_PER_NODE, config);
    // a run interrupted by one different record and resumed; one counter
    // close to the top of its range
    c.record_send_run(1, 8, 0, 1000, Some(&[u64::MAX - 1_000_000, 0]));
    c.record_send_run(2, 8, 0, 1, Some(&[0, 0]));
    c.record_send_run(1, 8, 0, 1000, Some(&[1, 2]));
    for (i, &(dst, size, mailbox, run)) in input.sends.iter().enumerate() {
        c.record_send_run(dst, SIZES[size], mailbox, RUNS[run], Some(&[i as u64, 7 * i as u64]));
    }
    for &(send_type, buffer, dst, run) in &input.physical {
        for _ in 0..RUNS[run] {
            c.record_physical(TYPES[send_type], BUFFERS[buffer], dst);
        }
    }
    let (t_main, t_proc, t_comm) = input.overall;
    let (t_main, t_proc) = (CYCLES[t_main], CYCLES[t_proc]);
    c.set_overall(t_main, t_proc, t_main + t_proc + CYCLES[t_comm]);
    c
}

fn bundle(config: &TraceConfig, inputs: &[PeInput]) -> TraceBundle {
    let collectors = inputs.iter().enumerate().map(|(pe, input)| collector(pe, config.clone(), input));
    TraceBundle::from_collectors(collectors.collect()).unwrap()
}

/// The lines the writer rendered with `format!` before the codec: file
/// name → contents, for every file `write_all` produces.
fn oracle(bundle: &TraceBundle) -> Vec<(String, String)> {
    let ppn = bundle.pes_per_node();
    let mut files = Vec::new();
    let (mut physical, mut absolute, mut relative) = (String::new(), String::new(), String::new());
    for c in bundle.collectors() {
        let exact = c.logical_records().iter().map(|r| {
            format!("{},{},{},{},{}\n", r.src_node, r.src_pe, r.dst_node, r.dst_pe, r.msg_size)
        });
        files.push((format!("PE{}_send.csv", c.pe()), exact.collect()));

        let cells = c.logical_matrix().iter().enumerate().filter(|(_, cell)| cell.sends > 0);
        let agg = cells.map(|(dst, cell)| {
            format!("{},{},{},{},{},{}\n", c.node(), c.pe(), dst / ppn, dst, cell.sends, cell.bytes)
        });
        files.push((format!("PE{}_send_agg.csv", c.pe()), agg.collect()));

        let papi = c.config().papi.as_ref().unwrap();
        let mut text = format!(
            "src_node,src_pe,dst_node,dst_pe,pkt_size,MAILBOXID,NUM_SENDS,{}\n",
            papi.papi_names().join(",")
        );
        for r in c.papi_records() {
            let counters: Vec<String> = r.counters.iter().map(|v| v.to_string()).collect();
            text += &format!(
                "{},{},{},{},{},{},{},{}\n",
                r.src_node, r.src_pe, r.dst_node, r.dst_pe, r.pkt_size, r.mailbox_id, r.num_sends,
                counters.join(",")
            );
        }
        files.push((format!("PE{}_PAPI.csv", c.pe()), text));

        for r in c.physical_records().iter() {
            physical += &format!("{},{},{},{}\n", r.send_type.label(), r.buffer_size, r.src_pe, r.dst_pe);
        }
        let r = c.overall().unwrap();
        absolute += &format!("Absolute [PE{}] TCOMM_PROFILING ({}, {}, {})\n", r.pe, r.t_main, r.t_comm(), r.t_proc);
        let (m, c, p) = r.relative();
        relative += &format!("Relative [PE{}] TCOMM_PROFILING ({m:.6}, {c:.6}, {p:.6})\n", r.pe);
    }
    files.push(("physical.txt".into(), physical));
    files.push(("overall.txt".into(), absolute + &relative));
    files
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("actorprof-roundtrip-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn read(dir: &Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn written_files_are_the_oracle_bytes_and_read_back_equal(
        inputs in proptest::collection::vec(pe_input(), N_PES),
        sample in 0usize..2,
    ) {
        let sample = [1u32, 3][sample];
        // cases run one after the other, each removing its directory
        let dir = scratch("files");
        let config = TraceConfig::off()
            .with_logical_sampling(sample)
            .with_papi(PapiConfig::case_study())
            .with_overall()
            .with_physical();
        let bundle = bundle(&config, &inputs);

        let mut written = writer::write_all(&dir, &bundle).unwrap();
        let expected = oracle(&bundle);
        written.sort();
        let mut names: Vec<&str> = expected.iter().map(|(name, _)| name.as_str()).collect();
        names.sort();
        prop_assert_eq!(written, names);
        for (name, text) in &expected {
            prop_assert!(read(&dir, name) == text.as_bytes(), "{} differs from the format! oracle", name);
        }

        let mut physical = Vec::new();
        for c in bundle.collectors() {
            let pe = c.pe();
            let exact = reader::read_logical_exact(&dir.join(format!("PE{pe}_send.csv"))).unwrap();
            prop_assert!(exact.runs().eq(c.logical_records().runs()), "PE{}_send.csv", pe);
            let (events, papi) = reader::read_papi(&dir.join(format!("PE{pe}_PAPI.csv"))).unwrap();
            prop_assert_eq!(events, ["PAPI_TOT_INS", "PAPI_LST_INS"]);
            prop_assert_eq!(papi, c.papi_records());
            physical.extend(c.physical_records().iter());
        }
        prop_assert!(reader::read_physical(&dir.join("physical.txt")).unwrap() == physical, "physical.txt");
        prop_assert_eq!(reader::read_overall(&dir.join("overall.txt")).unwrap(), bundle.overall_records().unwrap());
        prop_assert_eq!(reader::read_logical_matrix(&dir, N_PES).unwrap(), bundle.logical_matrix().unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
