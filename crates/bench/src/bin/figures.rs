//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! figures                  # everything
//! figures table4.1         # per-variable analysis table
//! figures table4.2         # sharing status per stage
//! figures example4.2       # translated RCCE source
//! figures table6.1         # SCC configuration
//! figures fig6.1           # off-chip speedups
//! figures fig6.2           # off-chip vs MPB
//! figures fig6.3           # core scaling
//! figures ablation.mc      # memory-controller contention
//! figures ablation.policy  # partition policy quality
//! figures fig7.threads     # >cores thread folding
//! figures stream.kernels   # per-kernel Stream bandwidth
//! figures dvfs             # frequency sweep (memory wall)
//! figures ext.jacobi       # barrier-heavy stencil extension
//! figures --json           # write the bench-out/BENCH_pipeline.json run manifest
//! figures --json --opt-level O2   # … with entries executed at O2
//! figures --json --cache-dir DIR  # … over a persistent artifact store
//! figures --check-sharing  # run the corpus under the soundness oracle
//! figures --client ADDR    # sweep the corpus on a running hsmd server
//! figures --client ADDR --shutdown  # … then stop the server
//! figures --rows FILE      # sweep in-process, one SweepRow JSON line per point
//! figures --client ADDR --rows FILE  # … same rows via the server (byte-diffable)
//! ```
//!
//! `--json` composes with the table selectors: `figures fig6.1 --json`
//! prints Figure 6.1 and writes the manifest. `--check-sharing` runs every
//! corpus program (including `corpus/adversarial/`) under the
//! sharing-soundness oracle, prints the verdict table, folds the `sharing`
//! section into the manifest when `--json` is also given, and exits
//! non-zero if any program misses its expectation. Both sweeps fan out
//! over `--workers N` threads (default: one per host core); any worker
//! count produces the same manifest modulo `host_*` timing fields.
//! `--exec-model NAME` (coherent, non_coherent_wb, seq_cst_ref) switches
//! the memory model the manifest entries execute under; the default is
//! the coherent ground truth the goldens pin. `--opt-level LEVEL` (O0,
//! O1, O2) switches the bytecode optimization level the entries execute
//! at (default O0); the manifest's `opt` section always reports the
//! per-program `O0`-vs-`O2` instruction and simulated-cycle deltas
//! regardless. These execution flags (plus `--cache-dir DIR`, which
//! backs the sweep's artifact cache with a persistent content-addressed
//! store so a second run recompiles nothing) all parse into one
//! [`hsm_core::spec::SweepSpec`] — the same value an `hsmd` sweep job
//! carries.
//!
//! `--client ADDR` runs the corpus sweep on a running `hsmd` server
//! instead of in-process: it ships the spec as a sweep job, prints one
//! row per point as the server streams them back, and with `--shutdown`
//! stops the server afterwards. `--modes A,B,..` picks the scenario modes
//! (baseline, offchip, hsm, task) and repeatable `--program NAME:CORES`
//! replaces the default corpus; both parse into the spec's `Scenario`
//! list. `--rows FILE` writes one compact `SweepRow` JSON line per point
//! — the rows are deterministic and identical whether the sweep runs
//! in-process or via `--client`, which CI diffs byte-for-byte.
//!
//! All machine-readable artifacts land under `bench-out/` (gitignored;
//! created on demand) so repeated runs never dirty the work tree.
//!
//! If manifest generation fails, the manifest file is still written, as an
//! error document naming the failing pipeline stage:
//! `{"schema_version": 3, "error": {"stage": "parse", "message": …}}`.

use hsm_bench::json::Json;
use hsm_core::spec::{take_bool_flag, take_flag};
use std::env;
use std::process::ExitCode;

/// Output file of `--json`.
const MANIFEST_FILE: &str = "bench-out/BENCH_pipeline.json";

/// The error document `--json` writes when the sweep fails: the failing
/// stage name (from `PipelineError::stage`) plus the rendered error chain.
fn error_manifest(e: &hsm_core::PipelineError) -> Json {
    Json::obj(vec![
        (
            "schema_version",
            Json::UInt(hsm_bench::manifest::MANIFEST_SCHEMA_VERSION),
        ),
        (
            "error",
            Json::obj(vec![
                ("stage", Json::str(e.stage())),
                ("message", Json::Str(e.to_string())),
            ]),
        ),
    ])
}

fn main() -> ExitCode {
    let mut args: Vec<String> = env::args().skip(1).collect();
    let emit_json = take_bool_flag(&mut args, "--json");
    let check_sharing = take_bool_flag(&mut args, "--check-sharing");
    // The execution axes (--workers, --exec-model, --opt-level,
    // --cache-dir) all live in one SweepSpec — the value the manifest
    // consumes and a `--client` sweep job ships.
    let mut spec = hsm_core::spec::SweepSpec::default();
    let flags = spec.take_cli_flags(&mut args).and_then(|()| {
        let client = take_flag(&mut args, "--client")?;
        let rows = take_flag(&mut args, "--rows")?;
        Ok((client, rows))
    });
    let (client_addr, rows_file) = match flags {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("figures: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = spec.open_cache() {
        eprintln!("figures: {e}");
        return ExitCode::FAILURE;
    }
    let client_shutdown = take_bool_flag(&mut args, "--shutdown");

    if let Some(addr) = client_addr {
        return match run_client(&addr, &spec, rows_file.as_deref(), client_shutdown) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("figures: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(path) = rows_file {
        return match run_rows_local(&spec, &path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("figures: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let workers = spec.workers;
    let all = args.is_empty() && !emit_json && !check_sharing;
    let want = |name: &str| all || args.iter().any(|a| a == name);
    let mut failed = false;

    let mut sharing_section = None;
    if check_sharing {
        match hsm_bench::sharing::sharing_manifest_with(workers) {
            Ok(sharing) => {
                print_sharing(&sharing);
                if !hsm_bench::sharing::all_pass(&sharing) {
                    eprintln!("sharing check FAILED: a program missed its expectation");
                    failed = true;
                }
                sharing_section = Some(sharing);
            }
            Err(e) => {
                eprintln!("sharing check failed to run: {e}");
                failed = true;
            }
        }
    }

    if emit_json {
        let opts = hsm_bench::manifest::ManifestOptions {
            spec: spec.clone(),
            ..Default::default()
        };
        let manifest = match hsm_bench::manifest::full_manifest(&opts) {
            Ok(mut m) => {
                if let (Some(sharing), Json::Obj(pairs)) = (sharing_section.take(), &mut m) {
                    pairs.push(("sharing".to_string(), sharing));
                }
                m
            }
            Err(e) => {
                eprintln!("manifest generation failed: {e}");
                failed = true;
                error_manifest(&e)
            }
        };
        if let Err(e) = write_artifact(MANIFEST_FILE, &manifest.render()) {
            eprintln!("{e}");
            failed = true;
        }
    }

    if want("table4.1") || want("table4.2") {
        let (t41, t42) = hsm_bench::analysis_tables();
        if want("table4.1") {
            println!("Table 4.1 — information extracted per variable (Example Code 4.1)\n");
            println!("{t41}");
        }
        if want("table4.2") {
            println!("Table 4.2 — variable sharing status after each stage\n");
            println!("{t42}");
        }
    }

    if want("example4.2") {
        println!("Example Code 4.2 — translated RCCE source\n");
        println!("{}", hsm_bench::render_example_4_2());
    }

    if want("table6.1") {
        println!("Table 6.1 — SCC configuration\n");
        println!("{}", hsm_bench::render_table_6_1(hsm_bench::EVAL_UNITS));
    }

    if want("fig6.1") || want("fig6.2") {
        match hsm_bench::run_evaluation(hsm_bench::EVAL_UNITS) {
            Ok(results) => {
                if want("fig6.1") {
                    println!("{}", hsm_bench::render_fig_6_1(&results));
                }
                if want("fig6.2") {
                    println!("{}", hsm_bench::render_fig_6_2(&results));
                }
            }
            Err(e) => {
                eprintln!("evaluation failed: {e}");
                failed = true;
            }
        }
    }

    if want("fig6.3") {
        match hsm_bench::fig_6_3(&[1, 2, 4, 8, 16, 32, 48]) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("figure 6.3 failed: {e}");
                failed = true;
            }
        }
    }

    if want("ablation.mc") {
        match hsm_bench::ablation_memory_controllers(hsm_bench::EVAL_UNITS) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("MC ablation failed: {e}");
                failed = true;
            }
        }
    }

    if want("ablation.policy") {
        println!("{}", hsm_bench::ablation_partition_policies());
    }

    if want("stream.kernels") {
        match hsm_bench::stream_kernel_table(hsm_bench::EVAL_UNITS) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("stream kernels failed: {e}");
                failed = true;
            }
        }
    }

    if want("ext.jacobi") {
        match hsm_bench::jacobi_extension(&[4, 8, 16, 32]) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("jacobi extension failed: {e}");
                failed = true;
            }
        }
    }

    if want("dvfs") {
        match hsm_bench::dvfs_sweep(hsm_bench::EVAL_UNITS) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("dvfs sweep failed: {e}");
                failed = true;
            }
        }
    }

    if want("fig7.threads") {
        match hsm_bench::thread_folding(&[48, 64, 96]) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("thread folding failed: {e}");
                failed = true;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Fills an empty program list with the manifest corpus, so `--client`
/// and `--rows` sweep the same default set the manifest reports.
fn with_default_programs(spec: &hsm_core::spec::SweepSpec) -> hsm_core::spec::SweepSpec {
    use hsm_core::api::SpecProgram;
    let mut spec = spec.clone();
    if spec.programs.is_empty() {
        spec.programs = hsm_bench::manifest::MANIFEST_PROGRAMS
            .iter()
            .map(|&(name, cores)| SpecProgram::corpus(name, cores))
            .collect();
    }
    spec
}

/// Serializes sweep rows as newline-delimited compact JSON — one
/// `SweepRow` per line, in matrix order. The encoding is deterministic,
/// so the in-process and `--client` paths produce identical bytes for
/// the same spec; CI diffs the two files directly.
fn write_rows(path: &str, rows: &[hsm_core::api::SweepRow]) -> Result<(), String> {
    let mut doc = rows
        .iter()
        .map(|row| row.to_json().render_compact())
        .collect::<Vec<_>>()
        .join("\n");
    doc.push('\n');
    write_artifact(path, &doc)
}

/// Writes a machine-readable artifact, creating its directory on demand
/// (the create-on-demand behaviour itself lives in and is unit-tested by
/// `hsm_bench::write_artifact`).
fn write_artifact(path: &str, content: &str) -> Result<(), String> {
    hsm_bench::write_artifact(path, content)
        .map(|()| println!("wrote {path}"))
        .map_err(|e| format!("writing {path} failed: {e}"))
}

/// Runs the spec's sweep in this process and writes the row file —
/// the reference bytes the `--client --rows` transport must reproduce.
fn run_rows_local(spec: &hsm_core::spec::SweepSpec, path: &str) -> Result<(), String> {
    use hsm_core::api::SweepRow;
    use hsm_core::experiment::sweep;
    let spec = with_default_programs(spec);
    let cache = spec.open_cache().map_err(|e| e.to_string())?;
    let matrix = spec
        .to_matrix(&scc_sim::SccConfig::table_6_1())
        .map_err(|e| e.to_string())?
        .cache(cache);
    let report = sweep(&matrix);
    let rows: Vec<SweepRow> = report.outcomes.iter().map(SweepRow::from_outcome).collect();
    write_rows(path, &rows)?;
    let failed = rows.iter().filter(|r| r.error.is_some()).count();
    println!("{} points, {failed} failed", rows.len());
    if failed > 0 {
        return Err(format!("{failed} sweep points failed"));
    }
    Ok(())
}

/// Runs the corpus sweep as a job on a running `hsmd` server, printing
/// one row per point as the server streams them back (matrix order).
fn run_client(
    addr: &str,
    spec: &hsm_core::spec::SweepSpec,
    rows_file: Option<&str>,
    shutdown: bool,
) -> Result<(), String> {
    use hsm_core::api::Client;
    let spec = with_default_programs(spec);
    let mut client = Client::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    println!("sweeping {} programs on {addr}\n", spec.programs.len());
    println!("{:<32}{:>6}{:>14}  Output FNV", "Point", "Exit", "Cycles");
    println!("{}", "-".repeat(72));
    let rows = client
        .sweep_streaming(&spec, None, |row| match &row.error {
            Some(e) => println!("{:<32}  ERROR: {e}", row.name),
            None => println!(
                "{:<32}{:>6}{:>14}  {}",
                row.name,
                row.exit_code.unwrap_or(-1),
                row.timed_cycles.unwrap_or(0),
                row.output_fnv
                    .map(|v| format!("{v:016x}"))
                    .unwrap_or_default(),
            ),
        })
        .map_err(|e| format!("sweep failed: {e}"))?;
    let failed = rows.iter().filter(|r| r.error.is_some()).count();
    println!("\n{} points, {failed} failed", rows.len());
    if let Some(path) = rows_file {
        write_rows(path, &rows)?;
    }
    if shutdown {
        client
            .shutdown()
            .map_err(|e| format!("shutdown failed: {e}"))?;
        println!("server shut down");
    }
    if failed > 0 {
        return Err(format!("{failed} sweep points failed"));
    }
    Ok(())
}

/// Prints the sharing-oracle verdict table for `--check-sharing`.
fn print_sharing(sharing: &hsm_bench::json::Json) {
    use hsm_bench::json::Json;
    println!("Sharing-soundness oracle — corpus sweep\n");
    println!(
        "{:<30}{:>14}{:>14}{:>8}",
        "Program", "Expected", "Observed", "Pass"
    );
    println!("{}", "-".repeat(66));
    let Some(Json::Arr(entries)) = sharing.get("programs") else {
        return;
    };
    for entry in entries {
        let name = match entry.get("name") {
            Some(Json::Str(s)) => s.clone(),
            _ => "?".to_string(),
        };
        let expected = match entry.get("expected") {
            Some(Json::Str(s)) => s.clone(),
            _ => "?".to_string(),
        };
        let observed = match entry.get("violations") {
            Some(Json::Arr(vs)) if vs.is_empty() => "clean".to_string(),
            Some(Json::Arr(vs)) => {
                let mut classes: Vec<String> = vs
                    .iter()
                    .filter_map(|v| match v.get("class") {
                        Some(Json::Str(c)) => Some(c.clone()),
                        _ => None,
                    })
                    .collect();
                classes.sort();
                classes.dedup();
                classes.join("+")
            }
            _ => "?".to_string(),
        };
        let pass = entry.get("pass") == Some(&Json::Bool(true));
        println!(
            "{:<30}{:>14}{:>14}{:>8}",
            name,
            expected,
            observed,
            if pass { "ok" } else { "FAIL" }
        );
    }
    println!();
}
