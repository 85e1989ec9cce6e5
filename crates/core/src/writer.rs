//! Trace-file writers, one per ActorProf output format (§III).
//!
//! | File | Contents | Paper section |
//! |---|---|---|
//! | `PE<i>_send.csv` | exact per-send logical trace | §III-A |
//! | `PE<i>_send_agg.csv` | per-destination aggregate logical trace | §III-A (bloat-safe form) |
//! | `PE<i>_PAPI.csv` | PAPI message trace | §III-A |
//! | `physical.txt` | post-aggregation sends, all PEs | §III-C |
//! | `overall.txt` | absolute + relative MAIN/COMM/PROC per PE | §III-B |

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use actorprof_trace::codec;

use crate::bundle::TraceBundle;
use crate::error::ProfError;

/// Create `dir` and `dir/name`, let `fill` write the file through one large
/// buffer, and flush it.
fn write_file(
    dir: &Path,
    name: String,
    fill: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> Result<String, ProfError> {
    std::fs::create_dir_all(dir)?;
    let mut w = BufWriter::with_capacity(1 << 20, File::create(dir.join(&name))?);
    fill(&mut w)?;
    w.flush()?;
    Ok(name)
}

/// Write every collected trace into `dir` (created if missing). Returns
/// the list of files written.
pub fn write_all(dir: &Path, bundle: &TraceBundle) -> Result<Vec<String>, ProfError> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    if bundle.has_logical() {
        written.extend(write_logical_agg(dir, bundle)?);
        if bundle.collectors().iter().all(|c| c.config().logical_sample != 0) {
            written.extend(write_logical_exact(dir, bundle)?);
        }
    }
    if bundle.collectors().iter().any(|c| c.has_papi_records()) {
        written.extend(write_papi(dir, bundle)?);
    }
    if bundle.has_physical() {
        written.push(write_physical(dir, bundle)?);
    }
    if bundle.has_overall() {
        written.push(write_overall(dir, bundle)?);
    }
    Ok(written)
}

/// Write `PE<i>_send.csv` (exact per-send records) for every PE, one run
/// of equal lines at a time.
pub fn write_logical_exact(dir: &Path, bundle: &TraceBundle) -> Result<Vec<String>, ProfError> {
    let mut block = Vec::new();
    let per_pe = bundle.collectors().iter().map(|c| {
        if c.config().logical_sample == 0 {
            return Err(ProfError::NotCollected("per-send logical records"));
        }
        write_file(dir, format!("PE{}_send.csv", c.pe()), |w| {
            c.logical_records().runs().try_for_each(|(record, n)| {
                codec::write_run(w, &mut block, &record, n, codec::encode_logical)
            })
        })
    });
    per_pe.collect()
}

/// Write `PE<i>_send_agg.csv` (per-destination aggregates) for every PE.
pub fn write_logical_agg(dir: &Path, bundle: &TraceBundle) -> Result<Vec<String>, ProfError> {
    if !bundle.has_logical() {
        return Err(ProfError::NotCollected("logical trace"));
    }
    let ppn = bundle.pes_per_node();
    let per_pe = bundle.collectors().iter().map(|c| {
        let mut buf = Vec::new();
        let sent_to = c.logical_matrix().iter().enumerate().filter(|(_, cell)| cell.sends > 0);
        for (dst, cell) in sent_to {
            codec::encode_agg(&mut buf, [c.node(), c.pe(), (dst / ppn) as u32, dst as u32], cell);
        }
        write_file(dir, format!("PE{}_send_agg.csv", c.pe()), |w| w.write_all(&buf))
    });
    per_pe.collect()
}

/// Write `PE<i>_PAPI.csv` for every PE that recorded PAPI lines. The first
/// line is a header naming the counter columns.
pub fn write_papi(dir: &Path, bundle: &TraceBundle) -> Result<Vec<String>, ProfError> {
    let per_pe = bundle.collectors().iter().filter_map(|c| {
        let papi = c.config().papi.as_ref()?;
        let mut header = Vec::new();
        codec::encode_papi_header(&mut header, &papi.papi_names());
        Some(write_file(dir, format!("PE{}_PAPI.csv", c.pe()), |w| {
            w.write_all(&header)?;
            codec::encode_lines(w, c.papi_records(), codec::encode_papi)
        }))
    });
    per_pe.collect()
}

/// Write `physical.txt`: one line per post-aggregation send, all PEs.
pub fn write_physical(dir: &Path, bundle: &TraceBundle) -> Result<String, ProfError> {
    if !bundle.has_physical() {
        return Err(ProfError::NotCollected("physical trace"));
    }
    let records = bundle
        .collectors()
        .iter()
        .flat_map(|c| c.physical_records().iter());
    write_file(dir, "physical.txt".into(), |w| {
        codec::encode_lines(w, records, codec::encode_physical)
    })
}

/// Write `overall.txt`: the paper's absolute and relative lines per PE.
pub fn write_overall(dir: &Path, bundle: &TraceBundle) -> Result<String, ProfError> {
    let mut buf = Vec::new();
    codec::encode_overall(&mut buf, &bundle.overall_records()?);
    write_file(dir, "overall.txt".into(), |w| w.write_all(&buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use actorprof_trace::{PapiConfig, PeCollector, SendType, TraceConfig};

    fn full_bundle() -> TraceBundle {
        let cfg = TraceConfig::off()
            .with_logical_records()
            .with_papi(PapiConfig::case_study())
            .with_overall()
            .with_physical();
        let collectors = (0..2)
            .map(|pe| {
                let mut c = PeCollector::new(pe, 2, 2, cfg.clone());
                c.record_send(1 - pe, 16, 0, Some(&[100, 40]));
                c.record_physical(SendType::LocalSend, 128, 1 - pe);
                c.set_overall(10, 20, 100);
                c
            })
            .collect();
        TraceBundle::from_collectors(collectors).unwrap()
    }

    #[test]
    fn write_all_produces_every_format() {
        let dir = std::env::temp_dir().join(format!("actorprof-w-{}", std::process::id()));
        let bundle = full_bundle();
        let files = write_all(&dir, &bundle).unwrap();
        for expected in [
            "PE0_send_agg.csv",
            "PE1_send_agg.csv",
            "PE0_send.csv",
            "PE1_send.csv",
            "PE0_PAPI.csv",
            "PE1_PAPI.csv",
            "physical.txt",
            "overall.txt",
        ] {
            assert!(files.iter().any(|f| f == expected), "missing {expected}");
            assert!(dir.join(expected).exists());
        }
        let overall = std::fs::read_to_string(dir.join("overall.txt")).unwrap();
        assert!(overall.contains("Absolute [PE0] TCOMM_PROFILING (10, 70, 20)"));
        assert!(overall.contains("Relative [PE0] TCOMM_PROFILING (0.100000, 0.700000, 0.200000)"));
        let physical = std::fs::read_to_string(dir.join("physical.txt")).unwrap();
        assert!(physical.contains("local_send,128,0,1"));
        let papi = std::fs::read_to_string(dir.join("PE0_PAPI.csv")).unwrap();
        assert!(papi.starts_with("src_node,src_pe,dst_node,dst_pe,pkt_size,MAILBOXID,NUM_SENDS,PAPI_TOT_INS,PAPI_LST_INS"));
        assert!(papi.contains("0,0,0,1,16,0,1,"));
        let send = std::fs::read_to_string(dir.join("PE0_send.csv")).unwrap();
        assert_eq!(send.trim(), "0,0,0,1,16");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exact_writer_requires_records() {
        let c = PeCollector::new(0, 1, 1, TraceConfig::off().with_logical());
        let bundle = TraceBundle::from_collectors(vec![c]).unwrap();
        let dir = std::env::temp_dir().join(format!("actorprof-w2-{}", std::process::id()));
        assert!(matches!(
            write_logical_exact(&dir, &bundle),
            Err(ProfError::NotCollected(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn agg_writer_skips_zero_rows() {
        let mut c = PeCollector::new(0, 3, 3, TraceConfig::off().with_logical());
        c.record_send(2, 8, 0, None);
        let mut c1 = PeCollector::new(1, 3, 3, TraceConfig::off().with_logical());
        c1.record_send(0, 8, 0, None);
        let c2 = PeCollector::new(2, 3, 3, TraceConfig::off().with_logical());
        let bundle = TraceBundle::from_collectors(vec![c, c1, c2]).unwrap();
        let dir = std::env::temp_dir().join(format!("actorprof-w3-{}", std::process::id()));
        write_logical_agg(&dir, &bundle).unwrap();
        let s = std::fs::read_to_string(dir.join("PE0_send_agg.csv")).unwrap();
        assert_eq!(s.lines().count(), 1);
        assert_eq!(s.trim(), "0,0,0,2,1,8");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
