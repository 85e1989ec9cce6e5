//! Parsers for the trace-file formats written by [`crate::writer`] — the
//! input side of the visualization scripts (`logical.py`, `physical.py`,
//! `papi.py`, `Overall.py` in the paper's tooling).

use std::path::Path;

use actorprof_trace::codec;
use actorprof_trace::{LogicalRecord, OverallRecord, PapiRecord, PhysicalRecord};

use crate::error::ProfError;
use crate::stats::Matrix;

fn parse_err(file: &Path, line: usize, message: String) -> ProfError {
    ProfError::Parse { file: file.display().to_string(), line, message }
}

/// `codec::for_each_line` over `bytes`, which start at line `first` of `path`.
fn scan<T>(
    path: &Path,
    bytes: &[u8],
    first: usize,
    decode: impl Fn(&[u8]) -> Result<T, String>,
    sink: impl FnMut(&T) -> Result<(), String>,
) -> Result<(), ProfError> {
    codec::for_each_line(bytes, first, decode, sink)
        .map_err(|(line, message)| parse_err(path, line, message))
}

/// Room for the records of `bytes`: every record line of every format is
/// longer than 8 bytes, so this is an upper bound, reserved in one step
/// instead of grown by doubling from empty. Reserved pages that no record
/// reaches are never touched and cost nothing; counting the lines to size
/// it exactly would be a second pass over the file.
fn records_capacity(bytes: &[u8]) -> usize {
    bytes.len() / 8
}

/// The file at `path` as one record per non-blank line.
fn read_records<T: Clone>(
    path: &Path,
    decode: impl Fn(&[u8]) -> Result<T, String>,
) -> Result<Vec<T>, ProfError> {
    let bytes = std::fs::read(path)?;
    let mut out = Vec::with_capacity(records_capacity(&bytes));
    scan(path, &bytes, 1, decode, |record| {
        out.push(record.clone());
        Ok(())
    })?;
    Ok(out)
}

/// Read one `PE<i>_send.csv` (exact per-send records).
pub fn read_logical_exact(path: &Path) -> Result<Vec<LogicalRecord>, ProfError> {
    read_records(path, codec::decode_logical)
}

/// Read every `PE<i>_send_agg.csv` in `dir` into a send-count matrix over
/// `n_pes` PEs (the heatmap input, mirroring `logical.py dir num_PEs`).
pub fn read_logical_matrix(dir: &Path, n_pes: usize) -> Result<Matrix, ProfError> {
    let mut m = Matrix::zeros(n_pes);
    // of the whole matrix: bounds every cell, row, column and grand total
    let mut total = 0u64;
    for pe in 0..n_pes {
        let path = dir.join(format!("PE{pe}_send_agg.csv"));
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            // a PE that sent nothing may have no file
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e.into()),
        };
        scan(&path, &bytes, 1, codec::decode_agg, |&(src_pe, dst_pe, sends)| {
            if src_pe.max(dst_pe) >= n_pes as u64 {
                return Err("PE out of range".into());
            }
            total = total.checked_add(sends).ok_or("num_sends overflow")?;
            m.add(src_pe as usize, dst_pe as usize, sends);
            Ok(())
        })?;
    }
    Ok(m)
}

/// Read one `PE<i>_PAPI.csv`: returns the counter column names and records.
pub fn read_papi(path: &Path) -> Result<(Vec<String>, Vec<PapiRecord>), ProfError> {
    let bytes = std::fs::read(path)?;
    let (header, rows) = codec::split_line(&bytes);
    if header.is_empty() {
        return Ok((Vec::new(), Vec::new()));
    }
    let names = codec::decode_papi_header(header).map_err(|m| parse_err(path, 1, m))?;
    let mut records = Vec::with_capacity(records_capacity(rows));
    scan(path, rows, 2, codec::decode_papi, |record| {
        if record.counters.len() != names.len() {
            return Err("counter count != header".into());
        }
        records.push(record.clone());
        Ok(())
    })?;
    Ok((names, records))
}

/// Read `physical.txt`.
pub fn read_physical(path: &Path) -> Result<Vec<PhysicalRecord>, ProfError> {
    read_records(path, codec::decode_physical)
}

/// Read `overall.txt` (the `Absolute` lines; `Relative` lines are
/// redundant and used only for cross-checking).
pub fn read_overall(path: &Path) -> Result<Vec<OverallRecord>, ProfError> {
    let lines = read_records(path, codec::decode_overall)?;
    let mut out: Vec<OverallRecord> = lines.into_iter().flatten().collect();
    out.sort_by_key(|r| r.pe);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::TraceBundle;
    use crate::writer;
    use actorprof_trace::{PapiConfig, PeCollector, SendType, TraceConfig};

    fn roundtrip_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("actorprof-r-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn full_bundle() -> TraceBundle {
        let cfg = TraceConfig::off()
            .with_logical_records()
            .with_papi(PapiConfig::case_study())
            .with_overall()
            .with_physical();
        let collectors = (0..2)
            .map(|pe| {
                let mut c = PeCollector::new(pe, 2, 1, cfg.clone());
                for _ in 0..(pe + 1) * 3 {
                    c.record_send(1 - pe, 16, 0, Some(&[60, 24]));
                }
                c.record_physical(SendType::NonblockSend, 96, 1 - pe);
                c.record_physical(SendType::NonblockProgress, 96, 1 - pe);
                c.set_overall(100 + pe as u64, 200, 1000);
                c
            })
            .collect();
        TraceBundle::from_collectors(collectors).unwrap()
    }

    #[test]
    fn logical_roundtrip() {
        let dir = roundtrip_dir("log");
        let bundle = full_bundle();
        writer::write_all(&dir, &bundle).unwrap();
        let m = read_logical_matrix(&dir, 2).unwrap();
        assert_eq!(m.get(0, 1), 3);
        assert_eq!(m.get(1, 0), 6);
        let recs = read_logical_exact(&dir.join("PE1_send.csv")).unwrap();
        assert_eq!(recs.len(), 6);
        assert_eq!(recs[0].dst_pe, 0);
        assert_eq!(recs[0].msg_size, 16);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn papi_roundtrip() {
        let dir = roundtrip_dir("papi");
        let bundle = full_bundle();
        writer::write_all(&dir, &bundle).unwrap();
        let (events, recs) = read_papi(&dir.join("PE0_PAPI.csv")).unwrap();
        assert_eq!(events, vec!["PAPI_TOT_INS", "PAPI_LST_INS"]);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].num_sends, 3);
        assert_eq!(recs[0].counters, vec![180, 72]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn physical_roundtrip() {
        let dir = roundtrip_dir("phys");
        let bundle = full_bundle();
        writer::write_all(&dir, &bundle).unwrap();
        let recs = read_physical(&dir.join("physical.txt")).unwrap();
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[0].send_type, SendType::NonblockSend);
        assert_eq!(recs[1].send_type, SendType::NonblockProgress);
        assert_eq!(recs[0].buffer_size, 96);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overall_roundtrip() {
        let dir = roundtrip_dir("ovr");
        let bundle = full_bundle();
        writer::write_all(&dir, &bundle).unwrap();
        let recs = read_overall(&dir.join("overall.txt")).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].t_main, 100);
        assert_eq!(recs[0].t_proc, 200);
        assert_eq!(recs[0].t_total, 1000);
        assert_eq!(recs[1].t_main, 101);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_lines_report_file_and_line() {
        let dir = roundtrip_dir("bad");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("physical.txt"), "teleport,1,0,0\n").unwrap();
        let err = read_physical(&dir.join("physical.txt")).unwrap_err();
        match err {
            ProfError::Parse { line, message, .. } => {
                assert_eq!(line, 1);
                assert!(message.contains("teleport"));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        std::fs::write(dir.join("overall.txt"), "Absolute [PEx] TCOMM_PROFILING (1, 2, 3)\n")
            .unwrap();
        assert!(read_overall(&dir.join("overall.txt")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_agg_files_are_tolerated() {
        let dir = roundtrip_dir("sparse");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("PE0_send_agg.csv"), "0,0,0,1,5,40\n").unwrap();
        // PE1's file absent
        let m = read_logical_matrix(&dir, 2).unwrap();
        assert_eq!(m.get(0, 1), 5);
        assert_eq!(m.get(1, 0), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
