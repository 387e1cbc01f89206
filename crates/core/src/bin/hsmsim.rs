//! `hsmsim` — run a pthread C program on the simulated SCC.
//!
//! ```text
//! hsmsim prog.c                          # pthread baseline (1 core)
//! hsmsim prog.c --mode rcce --cores 32   # translate + run on 32 cores
//! hsmsim prog.c --mode rcce --off-chip   # force DRAM placement
//! hsmsim prog.c --mode native --cores 8  # run hand-written RCCE source
//! hsmsim prog.c --stats                  # print memory-system statistics
//! ```

use hsm_core::{Mode, Pipeline, Policy};
use scc_sim::SccConfig;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut input: Option<String> = None;
    // `None` is `native`: hand-written RCCE source, run without the
    // pipeline — the one way of running a `Scenario` cannot express.
    let mut mode = Some(Mode::PthreadBaseline);
    let mut cores = 32usize;
    let mut policy = Policy::SizeAscending;
    let mut stats = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--mode" => match it.next().as_deref() {
                Some("pthread") => mode = Some(Mode::PthreadBaseline),
                Some("rcce") => mode = Some(Mode::RcceHsm),
                Some("native") => mode = None,
                other => {
                    eprintln!("hsmsim: bad mode {other:?} (pthread|rcce|native)");
                    return ExitCode::FAILURE;
                }
            },
            "--cores" => {
                let Some(v) = it.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("hsmsim: bad --cores value");
                    return ExitCode::FAILURE;
                };
                cores = v;
            }
            "--off-chip" => policy = Policy::OffChipOnly,
            "--stats" => stats = true,
            "-h" | "--help" => {
                println!(
                    "usage: hsmsim <prog.c> [--mode pthread|rcce|native] \
                     [--cores N] [--off-chip] [--stats]"
                );
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') && input.is_none() => {
                input = Some(other.to_string());
            }
            other => {
                eprintln!("hsmsim: unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(input) = input else {
        eprintln!("hsmsim: no input file (try --help)");
        return ExitCode::FAILURE;
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
            Ok(hsm_exec::run_rcce(&program, cores, &config)?)
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
