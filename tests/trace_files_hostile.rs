//! Hostile and odd-but-valid inputs for the five trace-file readers.
//!
//! Every input is checked in below, next to what the reader must make of
//! it: either the exact records or a `ProfError::Parse` naming the file and
//! the 1-based line. The expectations were pinned by running this file
//! against the `str::parse` readers before the byte-level codec replaced
//! them; four kinds of input behave differently now, on purpose:
//!
//! - a byte that is not UTF-8 was an `Io(InvalidData)` for the whole file
//!   and is a `Parse` error on its line (or ignored in a trailing field);
//! - cycle counts or aggregate rows whose sum overflows `u64`, and a `)`
//!   before the `(` in `overall.txt`, panicked (debug) or wrapped (release)
//!   and are `Parse` errors;
//! - a vertical tab or a non-ASCII space around a field was trimmed and is
//!   a bad field.
//!
//! No input may panic in either profile — CI runs this file in debug and in
//! `--release`, because integer overflow behaves differently in each.

use std::fmt::Debug;
use std::path::{Path, PathBuf};

use actorprof_suite::actorprof::{reader, ProfError};
use actorprof_suite::actorprof_trace::{
    LogicalRecord, OverallRecord, PapiRecord, PhysicalRecord, SendType,
};

/// A scratch directory per test (tests run on parallel threads).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("actorprof-hostile-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn file(&self, name: &str, bytes: &[u8]) -> PathBuf {
        let path = self.0.join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[track_caller]
fn assert_parse_error<T: Debug>(result: Result<T, ProfError>, path: &Path, line: usize, message: &str) {
    match result {
        Err(ProfError::Parse { file, line: l, message: m }) => {
            assert_eq!((file.as_str(), l, m.as_str()), (path.to_str().unwrap(), line, message));
        }
        other => panic!("expected a parse error at line {line} ({message}), got {other:?}"),
    }
}

const fn rec(src_node: u32, src_pe: u32, dst_node: u32, dst_pe: u32, msg_size: u32) -> LogicalRecord {
    LogicalRecord { src_node, src_pe, dst_node, dst_pe, msg_size }
}

/// A line of `len` bytes (before its `\n`): a valid record padded with
/// extra trailing fields, which every reader ignores.
fn long_line(record: &str, len: usize) -> Vec<u8> {
    let mut line = record.as_bytes().to_vec();
    line.resize(len, b',');
    line.push(b'\n');
    line
}

#[test]
fn logical_exact_accepts_odd_but_valid_files() {
    let a = rec(0, 0, 0, 1, 16);
    let b = rec(1, 3, 0, 1, 8);
    let max = rec(u32::MAX, u32::MAX, u32::MAX, u32::MAX, u32::MAX);
    let cases: &[(&str, &[u8], &[LogicalRecord])] = &[
        ("empty", b"", &[]),
        ("only-newline", b"\n", &[]),
        ("no-final-newline", b"0,0,0,1,16\n1,3,0,1,8", &[a, b]),
        ("crlf", b"0,0,0,1,16\r\n0,0,0,1,16\r\n1,3,0,1,8\r\n", &[a, a, b]),
        ("final-cr-without-lf", b"0,0,0,1,16\r", &[a]),
        ("blank-between-equal", b"0,0,0,1,16\n\n   \n\r\n\t\n0,0,0,1,16\n\n", &[a, a]),
        ("spaces-in-fields", b" 0 ,0\t, 0,\r1\x0c , 16 \n", &[a]),
        ("leading-plus", b"+0,+0,+0,+1,+16\n", &[a]),
        ("leading-zeros", b"00,0000000000000000000000,0,01,0016\n", &[a]),
        ("extra-trailing-fields", b"0,0,0,1,16,junk,,\xff\n", &[a]),
        ("u32-max", b"4294967295,4294967295,4294967295,4294967295,4294967295\n", &[max]),
        (
            "run-interrupted-and-resumed",
            b"0,0,0,1,16\n0,0,0,1,16\n1,3,0,1,8\n0,0,0,1,16\n0,0,0,1,16\n",
            &[a, a, b, a, a],
        ),
        // byte-different spellings of one record, and a prefix of the line before
        ("same-record-different-bytes", b"0,0,0,1,16\n0,0,0,1,+16\n0,0,0,1,16 \n0,0,0,1,1\n", &[a, a, a, rec(0, 0, 0, 1, 1)]),
    ];
    let dir = Scratch::new("logical-ok");
    for (name, bytes, want) in cases {
        let got = reader::read_logical_exact(&dir.file(name, bytes)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(got.iter().collect::<Vec<_>>(), *want, "{name}");
    }

    let mut big = long_line("0,0,0,1,16", 1 << 20);
    big.extend_from_slice(b"1,3,0,1,8\n");
    assert_eq!(reader::read_logical_exact(&dir.file("1mb-line", &big)).unwrap().iter().collect::<Vec<_>>(), [a, b]);
}

#[test]
fn logical_exact_rejects_malformed_lines_with_file_and_line() {
    let cases: &[(&str, &[u8], usize, &str)] = &[
        ("missing-field", b"0,0,0,1,16\n0,0,0,1\n", 2, "missing msg_size"),
        ("missing-all-but-one", b"\n7\n", 2, "missing src_pe"),
        ("empty-field", b"0,0,0,1,\n", 1, "bad msg_size"),
        ("empty-first-field", b",0,0,1,16\n", 1, "bad src_node"),
        ("non-digit", b"0,0,0,1,16\n0,0,0,1,16\n0,x,0,1,16\n", 3, "bad src_pe"),
        ("hex", b"0,0,0,0x1,16\n", 1, "bad dst_pe"),
        ("minus", b"0,0,-1,1,16\n", 1, "bad dst_node"),
        ("minus-zero", b"-0,0,0,1,16\n", 1, "bad src_node"),
        ("bare-plus", b"0,0,0,1,+\n", 1, "bad msg_size"),
        ("double-plus", b"0,0,0,1,++1\n", 1, "bad msg_size"),
        ("inner-space", b"0,0,0,1,1 6\n", 1, "bad msg_size"),
        // whitespace is ASCII space, \t, \n, \x0c, \r: not the vertical tab
        // or the Unicode spaces `str::trim` also took
        ("vertical-tab", b"0,0,0,1,\x0b16\n", 1, "bad msg_size"),
        ("no-break-space", b"0,0,0,1,\xc2\xa016\n", 1, "bad msg_size"),
        ("float", b"0,0,0,1,16.0\n", 1, "bad msg_size"),
        ("non-utf8", b"0,0,0,1,16\n0,0,\xff,1,16\n", 2, "bad dst_node"),
        ("nul-byte", b"0,0,0,1,1\x006\n", 1, "bad msg_size"),
        ("u32-overflow", b"0,0,0,1,4294967295\n0,0,0,1,4294967296\n", 2, "bad msg_size"),
        ("u64-overflow", b"18446744073709551616,0,0,1,16\n", 1, "bad src_node"),
        ("huge-number", b"0,99999999999999999999999999999999999999999,0,1,16\n", 1, "bad src_pe"),
        ("wrong-separator", b"0;0;0;1;16\n", 1, "bad src_node"),
        // an equal line must not be accepted on the strength of a rejected one
        ("bad-line-twice", b"0,0,0,1,16\n\n0,0,0,1,x\n0,0,0,1,x\n", 3, "bad msg_size"),
        ("lone-cr-mid-line", b"0,0,0,1,16\n0,0\r0,0,1,16\n", 2, "bad src_pe"),
    ];
    let dir = Scratch::new("logical-bad");
    for (name, bytes, line, message) in cases {
        let path = dir.file(name, bytes);
        assert_parse_error(reader::read_logical_exact(&path), &path, *line, message);
    }

    let digits = vec![b'9'; 1 << 20];
    let path = dir.file("1mb-number", &digits);
    assert_parse_error(reader::read_logical_exact(&path), &path, 1, "bad src_node");

    let mut big = long_line("0,0,0,1,16", 1 << 20);
    big.extend_from_slice(b"0,0,0,1\n");
    let path = dir.file("bad-after-1mb-line", &big);
    assert_parse_error(reader::read_logical_exact(&path), &path, 2, "missing msg_size");
}

#[test]
fn logical_matrix_reads_aggregates_and_tolerates_missing_files() {
    let dir = Scratch::new("agg");
    // PE0: CRLF, a blank line, spaces, a `+`, no `bytes` column on one
    // line and extra columns on another; PE1: absent; PE2: empty
    dir.file("PE0_send_agg.csv", b"0,0,0,1,5,40\r\n\r\n 0, 0 ,0,+2,7\n0,0,0,1,1,8,extra,\xff");
    dir.file("PE2_send_agg.csv", b"");
    let m = reader::read_logical_matrix(&dir.0, 3).unwrap();
    assert_eq!((m.get(0, 1), m.get(0, 2), m.total()), (6, 7, 13));

    let cases: &[(&[u8], usize, &str)] = &[
        (b"0,0,0,1,5,40\n0,0,0,1\n", 2, "missing num_sends"),
        (b"0,0,0,1,x,40\n", 1, "bad num_sends"),
        (b"0,0,0,1,18446744073709551616,40\n", 1, "bad num_sends"),
        (b"4294967296,0,0,1,5,40\n", 1, "bad src_node"),
        (b"0,0,4294967296,1,5,40\n", 1, "bad dst_node"),
        (b"0,0,0,\xc3\xa9,5,40\n", 1, "bad dst_pe"),
        (b"0,3,0,1,5,40\n", 1, "PE out of range"),
        (b"0,0,0,1,5,40\n\n0,0,0,3,5,40\n", 3, "PE out of range"),
        (b"0,0,0,18446744073709551615,5,40\n", 1, "PE out of range"),
        // with PE0's 13 sends the matrix total is u64::MAX after line 1
        (b"0,1,0,2,18446744073709551602,0\n0,1,0,0,1,0\n", 2, "num_sends overflow"),
    ];
    for (bytes, line, message) in cases {
        let path = dir.file("PE1_send_agg.csv", bytes);
        assert_parse_error(reader::read_logical_matrix(&dir.0, 3), &path, *line, message);
    }

    // anything but "not found" is an error, not an idle PE
    std::fs::remove_file(dir.0.join("PE1_send_agg.csv")).unwrap();
    std::fs::create_dir(dir.0.join("PE1_send_agg.csv")).unwrap();
    assert!(matches!(reader::read_logical_matrix(&dir.0, 3), Err(ProfError::Io(_))));
}

#[test]
fn physical_reader_on_odd_and_hostile_files() {
    let phys = |send_type, buffer_size, src_pe, dst_pe| PhysicalRecord { send_type, buffer_size, src_pe, dst_pe };
    let local = phys(SendType::LocalSend, 128, 0, 1);
    let nbi = phys(SendType::NonblockSend, u64::MAX, 1, 0);
    let progress = phys(SendType::NonblockProgress, 0, u32::MAX, 0);
    let ok: &[(&str, &[u8], &[PhysicalRecord])] = &[
        ("empty", b"", &[]),
        ("no-final-newline", b"local_send,128,0,1\nnonblock_send,18446744073709551615,1,0", &[local, nbi]),
        ("crlf", b"local_send,128,0,1\r\nlocal_send,128,0,1\r\n", &[local, local]),
        ("blank-between-equal", b"local_send,128,0,1\n \n\nlocal_send,128,0,1\n", &[local, local]),
        ("spaces-plus-extra", b" nonblock_progress\t, +0 ,4294967295, 0 ,extra\n", &[progress]),
        ("alternating", b"local_send,128,0,1\nnonblock_progress,0,4294967295,0\nlocal_send,128,0,1\n", &[local, progress, local]),
    ];
    let dir = Scratch::new("physical");
    for (name, bytes, want) in ok {
        let got = reader::read_physical(&dir.file(name, bytes)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(&got, want, "{name}");
    }
    let mut big = long_line("local_send,128,0,1", 1 << 20);
    big.extend_from_slice(b"local_send,128,0,1\n");
    assert_eq!(reader::read_physical(&dir.file("1mb-line", &big)).unwrap(), [local, local]);

    let bad: &[(&str, &[u8], usize, &str)] = &[
        ("unknown-type", b"local_send,128,0,1\nteleport,1,0,0\n", 2, "unknown send type teleport"),
        ("unknown-type-keeps-spaces", b" Local_send ,1,0,0\n", 1, "unknown send type  Local_send "),
        ("type-only", b"local_send\n", 1, "missing buffer_size"),
        ("missing-field", b"local_send,128,0\n", 1, "missing dst_pe"),
        ("non-digit", b"local_send,128,0,1\nlocal_send,12q,0,1\n", 2, "bad buffer_size"),
        ("u64-overflow", b"local_send,18446744073709551616,0,1\n", 1, "bad buffer_size"),
        ("u32-overflow", b"local_send,128,4294967296,1\n", 1, "bad src_pe"),
        ("non-utf8-number", b"local_send,128,0,\xf0\x9f\n", 1, "bad dst_pe"),
    ];
    for (name, bytes, line, message) in bad {
        let path = dir.file(name, bytes);
        assert_parse_error(reader::read_physical(&path), &path, *line, message);
    }
    // a label that is not UTF-8 is reported lossily, not dropped
    let path = dir.file("non-utf8-type", b"local\xffsend,128,0,1\n");
    assert_parse_error(reader::read_physical(&path), &path, 1, "unknown send type local\u{fffd}send");
}

const PAPI_HEADER: &str = "src_node,src_pe,dst_node,dst_pe,pkt_size,MAILBOXID,NUM_SENDS,PAPI_TOT_INS,PAPI_LST_INS";

#[test]
fn papi_reader_on_odd_and_hostile_files() {
    let row = |pkt_size, num_sends, counters: &[u64]| PapiRecord {
        src_node: 0,
        src_pe: 1,
        dst_node: 0,
        dst_pe: 0,
        pkt_size,
        mailbox_id: 2,
        num_sends,
        counters: counters.to_vec(),
    };
    let names = ["PAPI_TOT_INS", "PAPI_LST_INS"].map(String::from);
    let file = |rows: &str| format!("{PAPI_HEADER}\n{rows}").into_bytes();
    let dir = Scratch::new("papi");

    assert_eq!(reader::read_papi(&dir.file("empty", b"")).unwrap(), (vec![], vec![]));
    assert_eq!(reader::read_papi(&dir.file("header-only", PAPI_HEADER.as_bytes())).unwrap(), (names.to_vec(), vec![]));
    let ok: &[(&str, Vec<u8>, Vec<PapiRecord>)] = &[
        ("no-final-newline", file("0,1,0,0,48,2,3,180,72"), vec![row(48, 3, &[180, 72])]),
        (
            "crlf-blank-equal",
            format!("{PAPI_HEADER}\r\n0,1,0,0,48,2,3,180,72\r\n\r\n0,1,0,0,48,2,3,180,72\r\n").into_bytes(),
            vec![row(48, 3, &[180, 72]); 2],
        ),
        (
            "spaces-plus-max",
            file(" 0,1 ,0,0, +18446744073709551615 ,2,\t3, 18446744073709551615 ,+0\n"),
            vec![row(u64::MAX, 3, &[u64::MAX, 0])],
        ),
    ];
    for (name, bytes, want) in ok {
        let (events, got) = reader::read_papi(&dir.file(name, bytes)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!((&events[..], &got), (&names[..], want), "{name}");
    }
    // a header may name no counters at all, as long as the rows agree
    let bare = b"a,b,c,d,e,f,NUM_SENDS,\n0,1,0,0,48,2,3,9\n";
    let (events, got) = reader::read_papi(&dir.file("one-unnamed-counter", bare)).unwrap();
    assert_eq!((events, got), (vec![String::new()], vec![row(48, 3, &[9])]));

    let bad: &[(&str, Vec<u8>, usize, &str)] = &[
        ("blank-first-line", format!("\n{PAPI_HEADER}\n").into_bytes(), 1, "unrecognized PAPI header"),
        ("short-header", b"src_node,src_pe,NUM_SENDS\n".to_vec(), 1, "unrecognized PAPI header"),
        ("header-without-counters", b"a,b,c,d,e,f,NUM_SENDS\n".to_vec(), 1, "unrecognized PAPI header"),
        ("header-wrong-column", PAPI_HEADER.replace("NUM_SENDS", "num_sends").into_bytes(), 1, "unrecognized PAPI header"),
        ("header-padded-column", PAPI_HEADER.replace("NUM_SENDS", " NUM_SENDS").into_bytes(), 1, "unrecognized PAPI header"),
        ("row-fewer-counters", file("0,1,0,0,48,2,3,180,72\n0,1,0,0,48,2,3,180\n"), 3, "counter count != header"),
        ("row-more-counters", file("0,1,0,0,48,2,3,180,72,9\n"), 2, "counter count != header"),
        ("row-no-counters", file("0,1,0,0,48,2,3\n"), 2, "counter count != header"),
        ("row-missing-field", file("0,1,0,0,48,2\n"), 2, "missing NUM_SENDS"),
        ("row-bad-mailbox", file("0,1,0,0,48,4294967296,3,180,72\n"), 2, "bad MAILBOXID"),
        ("row-bad-pkt-size", file("0,1,0,0,18446744073709551616,2,3,180,72\n"), 2, "bad pkt_size"),
        ("row-bad-counter", file("\n0,1,0,0,48,2,3,180,7x\n"), 3, "bad counter value"),
        ("row-empty-counter", file("0,1,0,0,48,2,3,180,\n"), 2, "bad counter value"),
        ("row-counter-overflow", file("0,1,0,0,48,2,3,18446744073709551616,72\n"), 2, "bad counter value"),
        // the bad value is reported before the column count
        ("row-bad-and-extra-counter", file("0,1,0,0,48,2,3,180,72,x\n"), 2, "bad counter value"),
        ("row-non-utf8", [PAPI_HEADER.as_bytes(), b"\n0,1,0,0,48,2,3,180,\xff72\n"].concat(), 2, "bad counter value"),
    ];
    for (name, bytes, line, message) in bad {
        let path = dir.file(name, bytes);
        assert_parse_error(reader::read_papi(&path), &path, *line, message);
    }
    let path = dir.file("non-utf8-header", b"a,b,c,d,e,f,NUM_SENDS,PAPI_\xff\n");
    assert_parse_error(reader::read_papi(&path), &path, 1, "unrecognized PAPI header");
    let mut big = file("");
    big.extend(long_line("0,1,0,0,48,2,3,180,72", 1 << 20));
    let path = dir.file("1mb-row", &big);
    assert_parse_error(reader::read_papi(&path), &path, 2, "bad counter value");
}

#[test]
fn overall_reader_on_odd_and_hostile_files() {
    let overall = |pe, t_main, t_proc, t_total| OverallRecord { pe, t_main, t_proc, t_total };
    let ok: &[(&str, &[u8], &[OverallRecord])] = &[
        ("empty", b"", &[]),
        ("relative-only", b"Relative [PE0] TCOMM_PROFILING (0.1, 0.7, 0.2)\n", &[]),
        (
            "crlf-unsorted-no-final-newline",
            b"Absolute [PE1] TCOMM_PROFILING (11, 71, 21)\r\n\r\nnoise\r\nAbsolute [PE0] TCOMM_PROFILING (10, 70, 20)",
            &[overall(0, 10, 20, 100), overall(1, 11, 21, 103)],
        ),
        ("indented-spaced-plus", b" \tAbsolute[PE7]( +1 ,\t2,3 ) trailing\n", &[overall(7, 1, 3, 6)]),
        ("equal-lines", b"Absolute [PE2] x (1,2,3)\n\nAbsolute [PE2] x (1,2,3)\n", &[overall(2, 1, 3, 6); 2]),
        (
            "max-total",
            b"Absolute [PE4294967295] T (18446744073709551615, 0, 0)\n",
            &[overall(u32::MAX, u64::MAX, 0, u64::MAX)],
        ),
    ];
    let dir = Scratch::new("overall");
    for (name, bytes, want) in ok {
        let got = reader::read_overall(&dir.file(name, bytes)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(&got, want, "{name}");
    }

    let bad: &[(&str, &[u8], usize, &str)] = &[
        ("no-pe", b"Absolute TCOMM_PROFILING (1, 2, 3)\n", 1, "missing [PE"),
        ("no-bracket", b"\nAbsolute [PE0 TCOMM_PROFILING (1, 2, 3)\n", 2, "missing ]"),
        ("bad-pe", b"Absolute [PEx] TCOMM_PROFILING (1, 2, 3)\n", 1, "bad PE"),
        ("spaced-pe", b"Absolute [PE 0] TCOMM_PROFILING (1, 2, 3)\n", 1, "bad PE"),
        ("pe-overflow", b"Absolute [PE4294967296] TCOMM_PROFILING (1, 2, 3)\n", 1, "bad PE"),
        ("no-open", b"Absolute [PE0] TCOMM_PROFILING 1, 2, 3)\n", 1, "missing ("),
        ("no-close", b"Absolute [PE0] TCOMM_PROFILING (1, 2, 3\n", 1, "missing )"),
        ("nested-open", b"Absolute [PE0] ((1,2,3)\n", 1, "bad cycle count"),
        ("two-counts", b"Absolute [PE0] TCOMM_PROFILING (1, 2)\n", 1, "expected three cycle counts"),
        ("four-counts", b"Absolute [PE0] TCOMM_PROFILING (1, 2, 3, 4)\n", 1, "expected three cycle counts"),
        ("empty-parens", b"Absolute [PE0] TCOMM_PROFILING ()\n", 1, "bad cycle count"),
        ("bad-count", b"Absolute [PE0] T (1, 2, 3)\nAbsolute [PE1] T (1, -2, 3)\n", 2, "bad cycle count"),
        ("count-overflow", b"Absolute [PE0] T (1, 18446744073709551616, 3)\n", 1, "bad cycle count"),
        ("non-utf8-count", b"Absolute [PE0] T (1, \xff, 3)\n", 1, "bad cycle count"),
        // three counts that each fit but whose total does not
        (
            "total-overflow",
            b"Absolute [PE0] T (1, 2, 3)\nAbsolute [PE1] T (9223372036854775808, 9223372036854775807, 1)\n",
            2,
            "cycle counts overflow",
        ),
        // `)` before `(`
        ("close-before-open", b"Absolute [PE0] ) T (\n", 1, "missing )"),
    ];
    for (name, bytes, line, message) in bad {
        let path = dir.file(name, bytes);
        assert_parse_error(reader::read_overall(&path), &path, *line, message);
    }
    let mut big = b"Absolute [PE0] T (1, 2, 3".to_vec();
    big.resize(1 << 20, b' ');
    big.extend_from_slice(b")\nAbsolute [PE1] T (1, 2\n");
    let path = dir.file("1mb-line", &big);
    assert_parse_error(reader::read_overall(&path), &path, 2, "missing )");
}
