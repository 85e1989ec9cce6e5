//! The byte-level line codec of the five trace files (§III): the one place
//! that knows how a record becomes a line and a line a record. Encoders
//! append to a reused `Vec<u8>`; decoders take one line of an `fs::read`
//! buffer — no UTF-8 pass, no `String` per field, every multiply and add
//! on parsed digits checked. A decode error is the message only; the
//! reader adds file and line. Grammars and tolerances: DESIGN.md,
//! "Trace-file grammar and codec".

use std::io::Write;

use crate::collector::LogicalCell;
use crate::record::{LogicalRecord, OverallRecord, PapiRecord, PhysicalRecord, SendType};

/// The first line of `bytes` with its terminator, and what follows it.
pub fn split_line(bytes: &[u8]) -> (&[u8], &[u8]) {
    let end = bytes.iter().position(|&b| b == b'\n').map_or(bytes.len(), |i| i + 1);
    bytes.split_at(end)
}

/// A raw line without its `\n` or `\r\n`.
fn chomp(raw: &[u8]) -> &[u8] {
    raw.strip_suffix(b"\n").map_or(raw, |line| line.strip_suffix(b"\r").unwrap_or(line))
}

/// Runs shorter than this are read and written line by line.
const SHORT_RUN: usize = 8;

/// How many copies of its first line, `line` bytes long and ending in its
/// only `\n`, `bytes` starts with. The first few lines are compared one by
/// one; past them, the copies found so far are compared with what follows
/// them in steps that double while they match and halve when not, so a
/// run of `n` lines costs `O(log n)` comparisons of `O(n)` bytes in total.
fn run_length(bytes: &[u8], line: usize) -> usize {
    // with scattered destinations most runs are short: one comparison a line
    let mut count = 1;
    while count < SHORT_RUN {
        if bytes.get(count * line..(count + 1) * line) != Some(&bytes[..line]) {
            return count;
        }
        count += 1;
    }
    let mut step = count;
    loop {
        // `done` is `count` copies of the line, so its first `step ≤ count`
        // of them are what the next `step` lines must be
        let (done, rest) = bytes.split_at(count * line);
        let span = step * line;
        if rest.len() >= span && rest[..span] == done[..span] {
            count += step;
            step *= 2;
        } else if step > 1 {
            step /= 2;
        } else {
            return count;
        }
    }
}

/// Decode `bytes` — line `first` of its file onwards, blank lines skipped
/// — one run of byte-equal lines at a time: each run is decoded once and
/// reaches `sink` once, with its number of lines. Equal bytes include the
/// terminator, so each is a whole line. A decode error comes back with its
/// line number; a sink error `(i, message)` with the number of the run's
/// line `i` (0-based), so a sink that fails in the middle of a run still
/// names the exact line.
pub fn for_each_run<T>(
    mut rest: &[u8],
    mut number: usize,
    decode: impl Fn(&[u8]) -> Result<T, String>,
    mut sink: impl FnMut(&T, usize) -> Result<(), (usize, String)>,
) -> Result<(), (usize, String)> {
    while !rest.is_empty() {
        let raw = split_line(rest).0;
        let count = run_length(rest, raw.len());
        let line = chomp(raw);
        if !line.trim_ascii().is_empty() {
            let record = decode(line).map_err(|m| (number, m))?;
            sink(&record, count).map_err(|(i, m)| (number + i, m))?;
        }
        rest = &rest[raw.len() * count..];
        number += count;
    }
    Ok(())
}

/// [`for_each_run`] with `sink` called once per line: decode each line of
/// `bytes` — line `first` of its file onwards, blank ones skipped — and
/// pass the record to `sink`; an error of either comes back with the line
/// number.
pub fn for_each_line<T>(
    bytes: &[u8],
    first: usize,
    decode: impl Fn(&[u8]) -> Result<T, String>,
    mut sink: impl FnMut(&T) -> Result<(), String>,
) -> Result<(), (usize, String)> {
    for_each_run(bytes, first, decode, |record, count| {
        (0..count).try_for_each(|i| sink(record).map_err(|m| (i, m)))
    })
}

/// Bytes of whole lines [`write_run`] hands the writer at a time.
const RUN_BLOCK: usize = 64 << 10;

/// Write `count` copies of the line `encode` makes of `record`. The line is
/// encoded once into `block` (the caller's, reused from run to run); a
/// short run writes it once per line, a longer one doubles it there while
/// the run and 64 KiB allow and writes the block as often as the run
/// needs, then the rest of the run.
pub fn write_run<T>(
    w: &mut impl Write,
    block: &mut Vec<u8>,
    record: &T,
    count: u64,
    encode: impl Fn(&mut Vec<u8>, &T),
) -> std::io::Result<()> {
    block.clear();
    encode(block, record);
    let line = block.len();
    // a short run goes out line by line, a longer one in doubled blocks
    let mut lines = 1;
    while count >= SHORT_RUN as u64 && lines * 2 <= count && block.len() * 2 <= RUN_BLOCK {
        block.extend_from_within(..);
        lines *= 2;
    }
    let mut left = count;
    while left > 0 {
        let n = left.min(lines);
        w.write_all(&block[..n as usize * line])?;
        left -= n;
    }
    Ok(())
}

/// Write one line per record. Run-aware: a record equal to the one before
/// it re-emits the cached bytes instead of being encoded again.
pub fn encode_lines<'a, T: PartialEq + 'a>(
    w: &mut impl Write,
    records: impl IntoIterator<Item = &'a T>,
    encode: impl Fn(&mut Vec<u8>, &T),
) -> std::io::Result<()> {
    let mut line = Vec::new();
    let mut prev = None;
    for record in records {
        if prev != Some(record) {
            line.clear();
            encode(&mut line, record);
            prev = Some(record);
        }
        w.write_all(&line)?;
    }
    Ok(())
}

/// An optional `+`, then one or more decimal digits whose value fits `T`.
fn parse<T: TryFrom<u64>>(field: &[u8]) -> Option<T> {
    let digits = field.strip_prefix(b"+").unwrap_or(field);
    if digits.is_empty() {
        return None;
    }
    let value = digits.iter().try_fold(0u64, |v, b| match b {
        b'0'..=b'9' => v.checked_mul(10)?.checked_add(u64::from(b - b'0')),
        _ => None,
    })?;
    T::try_from(value).ok()
}

/// The comma-separated fields of a line.
fn fields(line: &[u8]) -> impl Iterator<Item = &[u8]> {
    line.split(|&b| b == b',')
}

/// The next field, trimmed, as a number of the width the record stores.
fn num<'a, T: TryFrom<u64>>(
    fields: &mut impl Iterator<Item = &'a [u8]>,
    what: &str,
) -> Result<T, String> {
    let field = fields.next().ok_or_else(|| format!("missing {what}"))?;
    parse(field.trim_ascii()).ok_or_else(|| format!("bad {what}"))
}

/// Append `values` in decimal with `separator` between them.
fn put(buf: &mut Vec<u8>, values: &[u64], separator: &str) {
    for (i, &value) in values.iter().enumerate() {
        if i > 0 {
            buf.extend_from_slice(separator.as_bytes());
        }
        let (mut digits, mut at, mut v) = ([0u8; 20], 20, value);
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        buf.extend_from_slice(&digits[at..]);
    }
}

/// `PE<i>_send.csv`: `src_node,src_pe,dst_node,dst_pe,msg_size`.
pub fn encode_logical(buf: &mut Vec<u8>, r: &LogicalRecord) {
    put(buf, &[r.src_node, r.src_pe, r.dst_node, r.dst_pe, r.msg_size].map(u64::from), ",");
    buf.push(b'\n');
}

/// One line of `PE<i>_send.csv`.
pub fn decode_logical(line: &[u8]) -> Result<LogicalRecord, String> {
    let f = &mut fields(line);
    Ok(LogicalRecord {
        src_node: num(f, "src_node")?,
        src_pe: num(f, "src_pe")?,
        dst_node: num(f, "dst_node")?,
        dst_pe: num(f, "dst_pe")?,
        msg_size: num(f, "msg_size")?,
    })
}

/// `PE<i>_send_agg.csv`: `src_node,src_pe,dst_node,dst_pe,num_sends,bytes`,
/// the first four being `route`.
pub fn encode_agg(buf: &mut Vec<u8>, route: [u32; 4], cell: &LogicalCell) {
    let [a, b, c, d] = route.map(u64::from);
    put(buf, &[a, b, c, d, cell.sends, cell.bytes], ",");
    buf.push(b'\n');
}

/// One line of `PE<i>_send_agg.csv` as `(src_pe, dst_pe, num_sends)`; the
/// `bytes` column is optional on read.
pub fn decode_agg(line: &[u8]) -> Result<(u64, u64, u64), String> {
    let f = &mut fields(line);
    num::<u32>(f, "src_node")?;
    let src_pe = num(f, "src_pe")?;
    num::<u32>(f, "dst_node")?;
    Ok((src_pe, num(f, "dst_pe")?, num(f, "num_sends")?))
}

/// The header of `PE<i>_PAPI.csv`, naming the counter columns.
pub fn encode_papi_header(buf: &mut Vec<u8>, events: &[&str]) {
    buf.extend_from_slice(b"src_node,src_pe,dst_node,dst_pe,pkt_size,MAILBOXID,NUM_SENDS,");
    buf.extend_from_slice(events.join(",").as_bytes());
    buf.push(b'\n');
}

/// The counter column names of a `PE<i>_PAPI.csv` header, given the
/// file's first line with or without its terminator.
pub fn decode_papi_header(line: &[u8]) -> Result<Vec<String>, String> {
    let cols: Vec<&[u8]> = fields(chomp(line)).collect();
    let names = (cols.len() >= 8 && cols[6] == b"NUM_SENDS")
        .then(|| cols[7..].iter().map(|name| String::from_utf8(name.to_vec()).ok()).collect());
    names.flatten().ok_or_else(|| "unrecognized PAPI header".to_string())
}

/// `PE<i>_PAPI.csv`: seven fixed columns, then one value per counter.
pub fn encode_papi(buf: &mut Vec<u8>, r: &PapiRecord) {
    let [a, b, c, d] = [r.src_node, r.src_pe, r.dst_node, r.dst_pe].map(u64::from);
    put(buf, &[a, b, c, d, r.pkt_size, r.mailbox_id.into(), r.num_sends], ",");
    buf.push(b',');
    put(buf, &r.counters, ",");
    buf.push(b'\n');
}

/// One data line of `PE<i>_PAPI.csv`, with however many counters it has.
pub fn decode_papi(line: &[u8]) -> Result<PapiRecord, String> {
    let f = &mut fields(line);
    Ok(PapiRecord {
        src_node: num(f, "src_node")?,
        src_pe: num(f, "src_pe")?,
        dst_node: num(f, "dst_node")?,
        dst_pe: num(f, "dst_pe")?,
        pkt_size: num(f, "pkt_size")?,
        mailbox_id: num(f, "MAILBOXID")?,
        num_sends: num(f, "NUM_SENDS")?,
        counters: f
            .map(|v| parse(v.trim_ascii()).ok_or("bad counter value"))
            .collect::<Result<_, _>>()?,
    })
}

/// `physical.txt`: `send_type,buffer_size,src_pe,dst_pe`.
pub fn encode_physical(buf: &mut Vec<u8>, r: &PhysicalRecord) {
    buf.extend_from_slice(r.send_type.label().as_bytes());
    buf.push(b',');
    put(buf, &[r.buffer_size, r.src_pe.into(), r.dst_pe.into()], ",");
    buf.push(b'\n');
}

/// One line of `physical.txt`.
pub fn decode_physical(line: &[u8]) -> Result<PhysicalRecord, String> {
    let f = &mut fields(line);
    let label = f.next().unwrap_or_default();
    let send_type = std::str::from_utf8(label.trim_ascii()).ok().and_then(SendType::from_label);
    Ok(PhysicalRecord {
        send_type: send_type
            .ok_or_else(|| format!("unknown send type {}", String::from_utf8_lossy(label)))?,
        buffer_size: num(f, "buffer_size")?,
        src_pe: num(f, "src_pe")?,
        dst_pe: num(f, "dst_pe")?,
    })
}

/// The body of `overall.txt`: per record an
/// `Absolute [PE<i>] TCOMM_PROFILING (main, comm, proc)` line in cycles,
/// then per record a `Relative` one with the three as fractions of the total.
pub fn encode_overall(buf: &mut Vec<u8>, records: &[OverallRecord]) {
    for r in records {
        buf.extend_from_slice(b"Absolute [PE");
        put(buf, &[r.pe.into()], "");
        buf.extend_from_slice(b"] TCOMM_PROFILING (");
        put(buf, &[r.t_main, r.t_comm(), r.t_proc], ", ");
        buf.extend_from_slice(b")\n");
    }
    for r in records {
        let (m, c, p) = r.relative();
        writeln!(buf, "Relative [PE{}] TCOMM_PROFILING ({m:.6}, {c:.6}, {p:.6})", r.pe)
            .expect("a Vec takes every write");
    }
}

/// One line of `overall.txt`: the record of an `Absolute` line, `None` for
/// any other (the `Relative` lines are redundant).
pub fn decode_overall(line: &[u8]) -> Result<Option<OverallRecord>, String> {
    let line = line.trim_ascii();
    if !line.starts_with(b"Absolute") {
        return Ok(None);
    }
    let find = |hay: &[u8], needle: &[u8]| {
        let at = hay.windows(needle.len()).position(|w| w == needle);
        at.ok_or_else(|| format!("missing {}", String::from_utf8_lossy(needle)))
    };
    let pe = &line[find(line, b"[PE")? + 3..];
    let pe = &pe[..find(pe, b"]")?];
    let counts = &line[find(line, b"(")? + 1..];
    let close = counts.iter().rposition(|&b| b == b')').ok_or("missing )")?;
    let counts: Vec<u64> = fields(&counts[..close])
        .map(|v| parse(v.trim_ascii()).ok_or("bad cycle count"))
        .collect::<Result<_, _>>()?;
    let &[t_main, t_comm, t_proc] = &counts[..] else {
        return Err("expected three cycle counts".into());
    };
    let t_total = t_main.checked_add(t_comm).and_then(|t| t.checked_add(t_proc));
    Ok(Some(OverallRecord {
        pe: parse(pe).ok_or("bad PE")?,
        t_main,
        t_proc,
        t_total: t_total.ok_or("cycle counts overflow")?,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    const A: LogicalRecord =
        LogicalRecord { src_node: 0, src_pe: 1, dst_node: 0, dst_pe: 0, msg_size: 8 };
    const MAX: LogicalRecord = LogicalRecord {
        src_node: u32::MAX,
        src_pe: u32::MAX,
        dst_node: u32::MAX,
        dst_pe: u32::MAX,
        msg_size: u32::MAX,
    };

    #[test]
    fn a_run_is_encoded_and_decoded_once() {
        let records = [vec![A; 1000], vec![MAX], vec![A; 2]].concat();
        let encodes = Cell::new(0);
        let mut file = Vec::new();
        encode_lines(&mut file, &records, |buf, r| {
            encodes.set(encodes.get() + 1);
            encode_logical(buf, r);
        })
        .unwrap();
        assert_eq!(encodes.get(), 3);
        let max = ["4294967295"; 5].join(",") + "\n";
        let text = ["0,1,0,0,8\n".repeat(1000), max, "0,1,0,0,8\n".repeat(2)];
        assert_eq!(file, text.concat().as_bytes());

        let (decodes, mut out) = (Cell::new(0), Vec::new());
        let decode = |line: &[u8]| {
            decodes.set(decodes.get() + 1);
            decode_logical(line)
        };
        for_each_line(&file, 1, decode, |r| {
            out.push(*r);
            Ok(())
        })
        .unwrap();
        assert_eq!((decodes.get(), out), (3, records));
    }

    #[test]
    fn runs_either_side_of_the_short_run_bound_round_trip() {
        let b = LogicalRecord { src_node: 1, src_pe: 3, dst_node: 0, dst_pe: 1, msg_size: 8 };
        let mut block = Vec::new();
        for count in 0..3 * SHORT_RUN as u64 {
            let mut file = Vec::new();
            write_run(&mut file, &mut block, &A, count, encode_logical).unwrap();
            write_run(&mut file, &mut block, &b, 1, encode_logical).unwrap();
            let want = format!("{}1,3,0,1,8\n", "0,1,0,0,8\n".repeat(count as usize));
            assert_eq!(file, want.as_bytes(), "count {count}");
            let mut runs = Vec::new();
            for_each_run(&file, 1, decode_logical, |&r, n| {
                runs.push((r, n as u64));
                Ok(())
            })
            .unwrap();
            let want = [(A, count), (b, 1)].into_iter().filter(|&(_, n)| n > 0);
            assert_eq!(runs, want.collect::<Vec<_>>(), "count {count}");
        }
    }

    #[test]
    fn a_million_line_run_is_written_and_read_as_one_run() {
        const N: u64 = 1_000_000;
        let (encodes, mut file) = (Cell::new(0), Vec::new());
        let mut block = Vec::new();
        let encode = |buf: &mut Vec<u8>, r: &LogicalRecord| {
            encodes.set(encodes.get() + 1);
            encode_logical(buf, r);
        };
        for count in [N, 0, 1] {
            write_run(&mut file, &mut block, &A, count, encode).unwrap();
        }
        assert_eq!(encodes.get(), 3, "once per run");
        assert_eq!(file, "0,1,0,0,8\n".repeat(N as usize + 1).as_bytes());
        assert!(block.len() <= RUN_BLOCK, "{} bytes staged", block.len());

        let (decodes, mut runs) = (Cell::new(0), crate::record::Runs::default());
        let decode = |line: &[u8]| {
            decodes.set(decodes.get() + 1);
            decode_logical(line)
        };
        for_each_run(&file[..N as usize * 10], 1, decode, |&r, n| {
            runs.push(r, n as u64);
            Ok(())
        })
        .unwrap();
        assert_eq!((decodes.get(), runs.runs().collect::<Vec<_>>(), runs.len()), (1, vec![(A, N)], N as usize));
    }

    #[test]
    fn errors_inside_a_run_carry_their_exact_line() {
        let run = "0,1,0,0,8\n".repeat(1000);
        let file = format!("\n{run}0,1,0,0\n");
        let sink = |_: &LogicalRecord, _| Ok(());
        let bad = for_each_run(file.as_bytes(), 5, decode_logical, sink);
        assert_eq!(bad, Err((1006, "missing msg_size".to_string())));

        // the 700th line of the run refused, per run and per line
        let refuse = |_: &LogicalRecord, n: usize| Err((699.min(n), "no".to_string()));
        assert_eq!(for_each_run(file.as_bytes(), 5, decode_logical, refuse), Err((705, "no".into())));
        let mut calls = 0;
        let refuse_700th = |_: &LogicalRecord| {
            calls += 1;
            if calls == 700 {
                return Err("no".to_string());
            }
            Ok(())
        };
        assert_eq!(for_each_line(file.as_bytes(), 5, decode_logical, refuse_700th), Err((705, "no".into())));
    }

    #[test]
    fn errors_carry_the_line_number_from_first() {
        let sink = |_: &LogicalRecord| Ok(());
        let bad = for_each_line(b"0,1,0,0,8\n\n0,1,0,0,8\n0,1,0,0\n", 2, decode_logical, sink);
        assert_eq!(bad, Err((5, "missing msg_size".to_string())));
        let refuse = |_: &LogicalRecord| Err("no".to_string());
        let refused = for_each_line(b"0,1,0,0,8\n0,1,0,0,8", 1, decode_logical, refuse);
        assert_eq!(refused, Err((1, "no".to_string())));
    }

    #[test]
    fn numbers_are_width_checked() {
        assert_eq!(parse::<u32>(b"4294967295"), Some(u32::MAX));
        assert_eq!(parse::<u32>(b"4294967296"), None);
        assert_eq!(parse::<u64>(b"+18446744073709551615"), Some(u64::MAX));
        assert_eq!(parse::<u64>(b"18446744073709551616"), None);
        for bad in [&b""[..], b"+", b"-1", b" 1", b"1_0", b"\xff"] {
            assert_eq!(parse::<u64>(bad), None, "{bad:?}");
        }
    }
}
