//! The host block stamped on every result, and the append-only history.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;

use crate::stats::Row;
use crate::workloads::N_PES;

/// The benchmark's own directory in this checkout (`benchmark/`).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where spans and temporary trace files go; ignored by git.
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// What a number depends on besides the code: the machine and the commit.
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub commit: String,
}

impl Host {
    pub fn detect() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        // A checkout that is not a git repository has no commit to name.
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .current_dir(bench_dir())
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|c| !c.is_empty())
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc,
            cpu_model,
            commit,
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": \"{}\", \"commit\": \"{}\", \"pes\": {N_PES}}}",
            self.nproc,
            escape(&self.cpu_model),
            escape(&self.commit)
        )
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c => vec![c],
        })
        .collect()
}

/// `{"name": {"value": v, "unit": "u"}, …}` — the driver's metric object.
/// Values keep every digit they were measured with.
pub fn metrics_json(rows: &[Row]) -> String {
    let items: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                r.name, r.summary.value, r.unit
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// One workload's finished run, as the history records it.
pub struct Run<'a> {
    pub workload: &'a str,
    pub mode: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub rows: &'a [Row],
    pub attempted: u64,
    pub failed: u64,
}

/// Append one line to `benchmark/history.jsonl`: when, which commit and
/// host, which run, and every row's value, median, quartiles and sample
/// count.
pub fn append_history(host: &Host, run: &Run<'_>) -> std::io::Result<()> {
    let Run {
        workload,
        mode,
        seed,
        seconds,
        rows,
        attempted,
        failed,
    } = run;
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut line = format!(
        "{{\"unix_s\": {unix_s}, \"host\": {}, \"workload\": \"{workload}\", \"mode\": \"{mode}\", \
         \"seed\": {seed}, \"seconds\": {seconds}, \"ops_attempted\": {attempted}, \"ops_failed\": {failed}, \
         \"metrics\": {{",
        host.json()
    );
    for (i, r) in rows.iter().enumerate() {
        let s = &r.summary;
        let _ = write!(
            line,
            "{}\"{}\": {{\"unit\": \"{}\", \"value\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
            if i == 0 { "" } else { ", " },
            r.name,
            r.unit,
            s.value,
            s.median,
            s.q1,
            s.q3,
            s.n
        );
    }
    line.push_str("}}\n");
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(bench_dir().join("history.jsonl"))?;
    f.write_all(line.as_bytes())
}
