//! `hsmsim` — run a pthread C program on the simulated SCC.
//!
//! ```text
//! hsmsim prog.c                          # pthread baseline (1 core)
//! hsmsim prog.c --mode rcce --cores 32   # translate + run on 32 cores
//! hsmsim prog.c --mode rcce --off-chip   # force DRAM placement
//! hsmsim prog.c --mode native --cores 8  # run hand-written RCCE source
//! hsmsim prog.c --stats                  # print memory-system statistics
//! ```

use hsm_core::api::{take_bool_flag, take_flag, Mode, Pipeline, Policy};
use hsm_exec::{ExecModel, NullSink, RunSpec, Units};
use scc_sim::SccConfig;
use std::process::ExitCode;

const USAGE: &str =
    "usage: hsmsim <prog.c> [--mode pthread|rcce|native] [--cores N] [--off-chip] [--stats]";

/// What the command line asked for.
struct Args {
    input: String,
    /// `None` is `native`: hand-written RCCE source, run without the
    /// pipeline — the one way of running a `Scenario` cannot express.
    mode: Option<Mode>,
    cores: usize,
    policy: Policy,
    stats: bool,
}

fn parse_args(mut args: Vec<String>) -> Result<Args, String> {
    let flag = |args: &mut Vec<String>, name| take_flag(args, name).map_err(|e| e.message);
    let mode = match flag(&mut args, "--mode")?.as_deref() {
        None | Some("pthread") => Some(Mode::PthreadBaseline),
        Some("rcce") => Some(Mode::RcceHsm),
        Some("native") => None,
        Some(other) => return Err(format!("bad mode `{other}` (pthread|rcce|native)")),
    };
    let cores = match flag(&mut args, "--cores")? {
        None => 32,
        Some(value) => value.parse().map_err(|_| "bad --cores value")?,
    };
    let policy = match take_bool_flag(&mut args, "--off-chip") {
        true => Policy::OffChipOnly,
        false => Policy::SizeAscending,
    };
    let stats = take_bool_flag(&mut args, "--stats");
    // What is left is the input file, and nothing else.
    if let Some(unknown) = args.iter().find(|a| a.starts_with('-')).or(args.get(1)) {
        return Err(format!("unknown argument `{unknown}`"));
    }
    let input = args.pop().ok_or("no input file (try --help)")?;
    Ok(Args {
        input,
        mode,
        cores,
        policy,
        stats,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Args {
        input,
        mode,
        cores,
        policy,
        stats,
    } = match parse_args(args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("hsmsim: {message}");
            return ExitCode::FAILURE;
        }
    };
    let source = match std::fs::read_to_string(&input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hsmsim: cannot read `{input}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    let config = SccConfig::table_6_1();

    let result = match mode {
        Some(mode) => Pipeline::new(source.as_str())
            .cores(cores)
            .scenario(mode.into())
            .policy(policy)
            .config(config.clone())
            .run_scenario(),
        None => (|| {
            let tu = hsm_cir::parse(&source)?;
            let program = hsm_vm::compile(&tu)?;
            let spec = RunSpec::new(config.clone(), Units::Rcce { cores }, ExecModel::Coherent);
            Ok(hsm_exec::run(&program, &spec, &mut NullSink)?)
        })(),
    };
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hsmsim: {input}: {e}");
            return ExitCode::FAILURE;
        }
    };

    print!("{}", result.output_text());
    let freq = f64::from(config.core_freq_mhz) * 1e6;
    eprintln!(
        "[hsmsim] exit {} | timed region {} cycles ({:.3} ms) | total {} cycles",
        result.exit_code,
        result.timed_cycles,
        result.timed_cycles as f64 / freq * 1e3,
        result.total_cycles,
    );
    if stats {
        eprintln!(
            "[hsmsim] {} units, load imbalance {:.2} (max/mean cycles)",
            result.per_unit_cycles.len(),
            result.imbalance()
        );
        let m = result.mem_stats;
        eprintln!(
            "[hsmsim] L1 hits {} | L2 hits {} | private DRAM {} | shared DRAM {} | MPB {} | MC queue cycles {}",
            m.l1_hits, m.l2_hits, m.private_dram, m.shared_dram, m.mpb, m.mc_queue_cycles
        );
    }
    ExitCode::from(u8::try_from(result.exit_code.rem_euclid(256)).unwrap_or(0))
}
