//! The repo's benchmark harness.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark compare <A.jsonl> <B.jsonl>
//! ```
//!
//! A run prints every metric by name with its unit, checks every output,
//! and ends its standard output with the one-line JSON result the driver
//! reads. Layers are timed from outside, through the crates' public
//! functions; all of those calls live in `adapter.rs`. See `README.md`.

mod adapter;
mod compare;
mod grid;
mod metrics;
mod minijson;
mod probes;
mod seed;
mod serve;
mod stats;
mod trace;
mod workloads;

use grid::Workload;
use metrics::{RunRecord, WORKLOADS};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where a run leaves its artifacts (trace files, the run log, the
/// `serve_mix` store): inside the checkout the command runs from.
pub fn out_dir() -> PathBuf {
    Path::new("benchmark").join("out")
}

/// The value of one `/proc/self/status` field (`"VmHWM:"`, `"Threads:"`),
/// trimmed.
pub fn proc_status(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .map(|rest| rest.trim().to_string())
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM:")
        .and_then(|rest| rest.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// The run log this run's record is appended to.
    log: PathBuf,
}

const USAGE: &str = "usage: benchmark --workload <paper_compute|paper_memory|corpus_grid|serve_mix> \
--seed <n> --seconds <s> --trace <0|1> [--log <runs.jsonl>]\n       benchmark compare <A.jsonl> <B.jsonl>";

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        log: out_dir().join("runs.jsonl"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value `{value}` for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                run.seconds = value.parse().map_err(|_| bad())?;
                if !(run.seconds > 0.0 && run.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--log" => run.log = PathBuf::from(value),
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    if !WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!("unknown workload `{}`\n{USAGE}", run.workload));
    }
    Ok(run)
}

fn run(args: &RunArgs) -> std::io::Result<RunRecord> {
    let out = out_dir();
    std::fs::create_dir_all(&out)?;
    let grid = match args.workload.as_str() {
        "paper_compute" => Some(Workload::PaperCompute),
        "paper_memory" => Some(Workload::PaperMemory),
        "corpus_grid" => Some(Workload::CorpusGrid),
        _ => None,
    };
    let (seed, seconds) = (args.seed, args.seconds);
    let (record, tracer) = match (grid, args.trace) {
        (Some(grid), false) => (grid::run_untraced(grid, seed, seconds), None),
        (Some(grid), true) => {
            let (record, tracer) = grid::run_traced(grid, seed, seconds);
            (record, Some(tracer))
        }
        (None, false) => (serve::run_untraced(seed, seconds)?, None),
        (None, true) => {
            let (record, tracer) = serve::run_traced(seed)?;
            (record, Some(tracer))
        }
    };
    if let Some(tracer) = tracer {
        let path = out.join(format!("trace-{}.json", record.workload));
        std::fs::write(path, tracer.to_json(record.workload))?;
    }
    let mut log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&args.log)?;
    writeln!(log, "{}", record.log_line())?;
    Ok(record)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => compare::main(Path::new(a), Path::new(b)),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let run_args = match parse_run_args(&args) {
        Ok(run_args) => run_args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match run(&run_args) {
        Ok(record) => {
            print!("{}", record.table());
            println!("{}", record.result_line());
            if record.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(3)
        }
    }
}
