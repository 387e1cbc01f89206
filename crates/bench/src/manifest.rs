//! The machine-readable run manifest.
//!
//! `figures --json` writes `BENCH_pipeline.json`: a versioned snapshot of
//! the chip configuration, the sweep engine's artifact-cache counters,
//! per-core × per-region memory counters, MPB occupancy and per-stage
//! pipeline metrics for a fixed set of corpus programs. The whole corpus
//! is executed as one parallel [`hsm_core::api::sweep`] over a
//! shared [`hsm_core::api::ArtifactCache`], so each program's source is parsed
//! once for its baseline and HSM runs and the per-point wall times shrink
//! with the host's core count.
//!
//! Everything except the `host_*` fields is a pure function of the
//! program sources and the simulator — including the cache hit/miss
//! counters, which the pending-slot cache keeps schedule-independent — so
//! the manifest is diffable against the checked-in goldens in `goldens/`,
//! the CI gate that pins the simulator's observable behaviour.

use hsm_core::api::Json;
use hsm_core::api::PipelineMetrics;
use hsm_core::api::SweepSpec;
use hsm_core::api::{sweep, Mode, Scenario, SweepMatrix, SweepReport, SweepTask};
use hsm_core::api::{ArtifactCache, OptLevel, Pipeline, PipelineError, Stage};
use hsm_core::experiment::outputs_equivalent;
use hsm_exec::{ExecModel, RunResult};
use scc_sim::{Region, SccConfig};
use std::path::PathBuf;
use std::sync::Arc;

/// Version of the manifest layout. Bump when renaming or moving fields so
/// downstream consumers can dispatch. Version 2 added the `sweep` section
/// (artifact-cache counters plus host parallelism figures). Version 3
/// records the memory model each entry executed under in a per-entry
/// `exec_model` field. Version 4 records the bytecode
/// optimization level in a per-entry `opt_level` field and adds the
/// top-level `opt` section with per-program `O0`-vs-`O2` instruction and
/// simulated-cycle deltas. Version 5 adds the top-level `tasks` section:
/// for each ported corpus pair, the barrier (RCCE HSM) run of the
/// original against the task-dataflow run of the port, with cycle counts
/// and an output-equivalence verdict; entry axes now come from the
/// spec's [`Scenario`] list. Version 6 added a top-level `predict`
/// section (the cycle predictor against full simulation); version 7
/// removes it with the predictor (ISSUE 17).
pub const MANIFEST_SCHEMA_VERSION: u64 = 7;

/// The corpus programs the manifest replays, with the core counts the
/// corpus integration tests use.
pub const MANIFEST_PROGRAMS: [(&str, usize); 5] = [
    ("example_4_1", 3),
    ("matrix_vector", 4),
    ("mutex_histogram", 4),
    ("switch_classifier", 2),
    ("escaping_local", 4),
];

/// The barrier-program → task-annotated-port pairs behind the `tasks`
/// section: the original pthread corpus program, its
/// `task_spawn`-annotated port, and the core count both run at. A pair is
/// included when its barrier program is in the manifest's program list.
pub(crate) const TASK_PROGRAMS: [(&str, &str, usize); 2] = [
    ("matrix_vector", "task_matrix_vector", 4),
    ("mutex_histogram", "task_histogram", 4),
];

/// The subset of [`MANIFEST_PROGRAMS`] covered by the checked-in goldens
/// (kept small so the debug-mode regression test stays fast).
pub(crate) const GOLDEN_PROGRAMS: [(&str, usize); 2] = [("example_4_1", 3), ("matrix_vector", 4)];

/// Manifest generation knobs. The execution axes — worker threads, the
/// memory model and optimization level every entry executes under, and
/// the optional persistent cache directory — live in the embedded
/// [`SweepSpec`], the same value the `figures` CLI parses its flags into
/// and `hsmd` jobs carry (the spec's own program list is ignored here:
/// the manifest's corpus is its own pinned axis). The defaults pin what
/// the goldens pin: coherent, `O0`, no store. The `opt` delta section
/// always compares `O0` against `O2` regardless of the spec's level.
#[derive(Debug, Clone)]
pub struct ManifestOptions {
    /// Include host wall-clock timings (`host_*` fields). These vary run
    /// to run; goldens are built without them.
    pub include_host_timings: bool,
    /// The execution knobs (workers, exec model, opt level, cache dir).
    pub spec: SweepSpec,
}

impl Default for ManifestOptions {
    fn default() -> Self {
        ManifestOptions {
            include_host_timings: true,
            spec: SweepSpec::default(),
        }
    }
}

impl ManifestOptions {
    /// The memory model manifest entries execute under (the first
    /// spec scenario's — the manifest's mode axis is its own).
    fn exec_model(&self) -> ExecModel {
        self.spec
            .scenarios
            .first()
            .map_or(ExecModel::Coherent, |s| s.exec_model)
    }

    /// The optimization level manifest entries execute at.
    fn opt_level(&self) -> OptLevel {
        self.spec
            .scenarios
            .first()
            .map_or(OptLevel::O0, |s| s.opt_level)
    }

    /// The manifest's scenario for `mode` (the spec's shared model and
    /// level applied to the given mode).
    fn scenario(&self, mode: Mode) -> Scenario {
        Scenario::new(mode)
            .exec_model(self.exec_model())
            .opt_level(self.opt_level())
    }
}

/// Opens the spec's artifact cache. A failing store directory is a host
/// environment error, reported like a missing corpus file (the `figures`
/// CLI validates the directory before building a manifest).
fn open_cache(spec: &SweepSpec) -> Arc<ArtifactCache> {
    spec.open_cache()
        .unwrap_or_else(|e| panic!("opening the artifact store failed: {e}"))
}

/// Absolute path of a corpus program.
pub(crate) fn corpus_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../corpus")
        .join(format!("{name}.c"))
}

/// Reads a corpus program's source.
pub(crate) fn corpus_source(name: &str) -> Arc<str> {
    let path = corpus_path(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read corpus program {}: {e}", path.display()))
        .into()
}

/// The chip-configuration block.
pub(crate) fn config_json(config: &SccConfig) -> Json {
    Json::obj(vec![
        ("cores", Json::UInt(config.cores as u64)),
        ("mesh_cols", Json::UInt(config.mesh_cols as u64)),
        ("mesh_rows", Json::UInt(config.mesh_rows as u64)),
        ("core_freq_mhz", Json::UInt(u64::from(config.core_freq_mhz))),
        ("l1_bytes", Json::UInt(config.l1_bytes as u64)),
        ("l2_bytes", Json::UInt(config.l2_bytes as u64)),
        ("line_bytes", Json::UInt(config.line_bytes as u64)),
        (
            "mpb_bytes_per_core",
            Json::UInt(config.mpb_bytes_per_core as u64),
        ),
        (
            "memory_controllers",
            Json::UInt(config.memory_controllers as u64),
        ),
    ])
}

/// One run's counter block: chip-global aggregate, per-region totals with
/// latency histograms, and per-core rows for every core that issued at
/// least one access.
pub(crate) fn run_json(r: &RunResult) -> Json {
    let agg = &r.mem_stats;
    let matrix = &r.stats_matrix;
    let regions = Json::Obj(
        Region::ALL
            .iter()
            .map(|&region| {
                let hist = matrix.region_histogram(region);
                let reads: u64 = matrix
                    .per_core
                    .iter()
                    .map(|c| c.reads[region.index()])
                    .sum();
                let writes: u64 = matrix
                    .per_core
                    .iter()
                    .map(|c| c.writes[region.index()])
                    .sum();
                (
                    region.name().to_string(),
                    Json::obj(vec![
                        ("reads", Json::UInt(reads)),
                        ("writes", Json::UInt(writes)),
                        ("cycles", Json::UInt(hist.total_cycles)),
                        ("max_latency", Json::UInt(hist.max)),
                        ("latency_buckets", Json::uints(hist.buckets)),
                    ]),
                )
            })
            .collect(),
    );
    let per_core = Json::Arr(
        matrix
            .per_core
            .iter()
            .enumerate()
            .filter(|(_, c)| c.total_accesses() > 0)
            .map(|(i, c)| {
                Json::obj(vec![
                    ("core", Json::UInt(i as u64)),
                    ("reads", Json::uints(c.reads)),
                    ("writes", Json::uints(c.writes)),
                    ("cycles", Json::uints(c.region_cycles)),
                ])
            })
            .collect(),
    );
    Json::obj(vec![
        ("total_cycles", Json::UInt(r.total_cycles)),
        ("timed_cycles", Json::UInt(r.timed_cycles)),
        ("exit_code", Json::Int(r.exit_code)),
        ("l1_hits", Json::UInt(agg.l1_hits)),
        ("l2_hits", Json::UInt(agg.l2_hits)),
        ("private_dram", Json::UInt(agg.private_dram)),
        ("shared_dram", Json::UInt(agg.shared_dram)),
        ("mpb", Json::UInt(agg.mpb)),
        ("mc_queue_cycles", Json::UInt(agg.mc_queue_cycles)),
        ("active_cores", Json::UInt(matrix.active_cores() as u64)),
        ("mpb_high_water_bytes", Json::UInt(r.mpb_high_water as u64)),
        ("regions", regions),
        ("per_core", per_core),
    ])
}

/// The per-stage pipeline block (region sizes always; wall times only when
/// requested, since they are host-dependent).
pub(crate) fn metrics_json(m: &PipelineMetrics, opts: &ManifestOptions) -> Json {
    Json::Arr(
        m.stages
            .iter()
            .map(|s| {
                let mut pairs = vec![
                    ("stage", Json::str(s.stage.label())),
                    ("ir_size", Json::UInt(s.ir_size as u64)),
                ];
                if opts.include_host_timings {
                    pairs.push(("host_wall_nanos", Json::UInt(s.wall_nanos as u64)));
                }
                Json::obj(pairs)
            })
            .collect(),
    )
}

/// The `sweep` section: the shared artifact cache's hit/miss counters
/// (deterministic — identical for every worker count, and unchanged by a
/// persistent store, which only intercepts misses) plus, when host
/// timings are requested, the host-side parallelism figures and the
/// `host_store` disk-traffic block (present only with a `--cache-dir`).
pub(crate) fn sweep_json(report: &SweepReport, opts: &ManifestOptions) -> Json {
    let c = report.cache;
    // One hit/miss pair per compile-side stage, and their totals; the
    // `profile` and `run` shelves are not part of the manifest layout (a
    // run-shelf hit must leave the manifest as it found it).
    let compile_side = &Stage::ALL[..5];
    let mut cache: Vec<(&str, Json)> = compile_side
        .iter()
        .map(|&stage| {
            let counters = Json::obj(vec![
                ("hits", Json::UInt(c[stage].hits)),
                ("misses", Json::UInt(c[stage].misses)),
            ]);
            (stage.label(), counters)
        })
        .collect();
    let total = |pick: fn(&hsm_core::api::StageCounters) -> u64| {
        Json::UInt(compile_side.iter().map(|&stage| pick(&c[stage])).sum())
    };
    cache.push(("total_hits", total(|s| s.hits)));
    cache.push(("total_misses", total(|s| s.misses)));
    let mut pairs = vec![("cache", Json::obj(cache))];
    if opts.include_host_timings {
        pairs.push(("host_workers", Json::UInt(report.workers as u64)));
        pairs.push(("host_points", Json::UInt(report.outcomes.len() as u64)));
        pairs.push((
            "host_wall_nanos",
            Json::UInt(u64::try_from(report.host_wall_nanos).unwrap_or(u64::MAX)),
        ));
        if let Some(s) = c.store {
            pairs.push((
                "host_store",
                Json::obj(vec![
                    ("loads", Json::UInt(s.total_loads())),
                    ("misses", Json::UInt(s.total_misses())),
                    ("writes", Json::UInt(s.total_writes())),
                    ("corrupt", Json::UInt(s.total_corrupt())),
                    ("evictions", Json::UInt(s.evictions)),
                    // How many of the sweep's points simulated (`misses`)
                    // and how many were read back (`loads`).
                    (
                        "run",
                        Json::obj(vec![
                            ("loads", Json::UInt(s[Stage::Run].loads)),
                            ("misses", Json::UInt(s[Stage::Run].misses)),
                        ]),
                    ),
                ]),
            ));
        }
    }
    Json::obj(pairs)
}

/// The sweep matrix behind a manifest: per program, one metered baseline
/// point and one metered HSM point.
fn manifest_matrix(
    programs: &[(&str, usize)],
    opts: &ManifestOptions,
    config: &SccConfig,
    cache: &Arc<ArtifactCache>,
) -> SweepMatrix {
    let mut matrix = SweepMatrix::new(config.clone())
        .workers(opts.spec.workers)
        .cache(Arc::clone(cache));
    for &(name, cores) in programs {
        let src = corpus_source(name);
        matrix = matrix
            .point(
                format!("{name}/baseline"),
                Arc::clone(&src),
                SweepTask::RunMetered(opts.scenario(Mode::PthreadBaseline)),
                cores,
            )
            .point(
                format!("{name}/hsm"),
                src,
                SweepTask::RunMetered(opts.scenario(Mode::RcceHsm)),
                cores,
            );
    }
    matrix
}

/// Unwraps a metered sweep payload.
fn metered_run(
    outcome: hsm_core::api::SweepOutcome,
) -> Result<(RunResult, PipelineMetrics), PipelineError> {
    match outcome.result? {
        hsm_core::api::SweepPayload::Run(r, Some(m)) => Ok((r, m)),
        _ => unreachable!("manifest points are always metered runs"),
    }
}

/// Builds one program's manifest entry from its two sweep outcomes.
fn entry_json(
    name: &str,
    cores: usize,
    base: (RunResult, PipelineMetrics),
    hsm: (RunResult, PipelineMetrics),
    opts: &ManifestOptions,
) -> Json {
    Json::obj(vec![
        ("name", Json::str(name)),
        ("cores", Json::UInt(cores as u64)),
        ("exec_model", Json::str(opts.exec_model().label())),
        ("opt_level", Json::str(opts.opt_level().label())),
        ("pipeline", metrics_json(&hsm.1, opts)),
        ("baseline_pipeline", metrics_json(&base.1, opts)),
        ("baseline", run_json(&base.0)),
        ("hsm", run_json(&hsm.0)),
    ])
}

/// One optimization level's measurement of one program's HSM run:
/// static instruction count of the compiled program, dynamically retired
/// instructions, and simulated timed cycles.
fn opt_level_json(pipeline: &Pipeline) -> Result<Json, PipelineError> {
    let program = pipeline.program()?;
    let run = pipeline.run_scenario()?;
    Ok(Json::obj(vec![
        ("instr_static", Json::UInt(program.code_len() as u64)),
        ("instructions", Json::UInt(run.instructions)),
        ("timed_cycles", Json::UInt(run.timed_cycles)),
    ]))
}

/// The `opt` section: for every program, the HSM run measured at `O0`
/// and at `O2` (same exec model as the rest of the manifest) plus the
/// dynamic instruction and timed-cycle deltas. All pipelines share the
/// manifest sweep's cache (and its store, when one is attached), so each
/// program is parsed, analyzed, partitioned and translated once — only
/// the compile stage forks per level.
///
/// # Errors
///
/// Propagates pipeline failures.
pub(crate) fn opt_json(
    programs: &[(&str, usize)],
    opts: &ManifestOptions,
    config: &SccConfig,
    cache: &Arc<ArtifactCache>,
) -> Result<Json, PipelineError> {
    let mut entries = Vec::with_capacity(programs.len());
    for &(name, cores) in programs {
        let session = Pipeline::new(corpus_source(name))
            .cores(cores)
            .config(config.clone())
            .cache(Arc::clone(cache));
        let hsm = Scenario::new(Mode::RcceHsm).exec_model(opts.exec_model());
        let o0 = opt_level_json(&session.clone().scenario(hsm.opt_level(OptLevel::O0)))?;
        let o2 = opt_level_json(&session.scenario(hsm.opt_level(OptLevel::O2)))?;
        let delta = |field: &str| {
            let a = match o0.get(field) {
                Some(&Json::UInt(v)) => v,
                _ => 0,
            };
            let b = match o2.get(field) {
                Some(&Json::UInt(v)) => v,
                _ => 0,
            };
            Json::Int(a as i64 - b as i64)
        };
        entries.push(Json::obj(vec![
            ("name", Json::str(name)),
            ("cores", Json::UInt(cores as u64)),
            ("instr_static_delta", delta("instr_static")),
            ("instructions_delta", delta("instructions")),
            ("timed_cycles_delta", delta("timed_cycles")),
            ("O0", o0),
            ("O2", o2),
        ]));
    }
    Ok(Json::Arr(entries))
}

/// The `tasks` section: for every [`TASK_PROGRAMS`] pair whose barrier
/// program is in the manifest's program list, the barrier (RCCE HSM) run
/// of the original against the task-dataflow run of the annotated port —
/// same memory model and opt level as the rest of the manifest. Each
/// entry pins both runs' timed and total cycles, exit codes, and whether
/// the two programs produced equivalent output (the paper's
/// barrier-vs-task comparison as a manifest axis).
///
/// # Errors
///
/// Propagates pipeline failures.
pub(crate) fn tasks_json(
    programs: &[(&str, usize)],
    opts: &ManifestOptions,
    config: &SccConfig,
    cache: &Arc<ArtifactCache>,
) -> Result<Json, PipelineError> {
    let mut entries = Vec::new();
    for &(barrier_name, task_name, cores) in &TASK_PROGRAMS {
        if !programs.iter().any(|&(name, _)| name == barrier_name) {
            continue;
        }
        let barrier_run = Pipeline::new(corpus_source(barrier_name))
            .cores(cores)
            .config(config.clone())
            .cache(Arc::clone(cache))
            .scenario(opts.scenario(Mode::RcceHsm))
            .run_scenario()?;
        let task_run = Pipeline::new(corpus_source(task_name))
            .cores(cores)
            .config(config.clone())
            .cache(Arc::clone(cache))
            .scenario(opts.scenario(Mode::TaskDataflow))
            .run_scenario()?;
        let run_block = |r: &RunResult| {
            Json::obj(vec![
                ("timed_cycles", Json::UInt(r.timed_cycles)),
                ("total_cycles", Json::UInt(r.total_cycles)),
                ("instructions", Json::UInt(r.instructions)),
                ("exit_code", Json::Int(r.exit_code)),
            ])
        };
        let outputs_match = outputs_equivalent(&barrier_run, &task_run)
            && barrier_run.exit_code == task_run.exit_code;
        entries.push(Json::obj(vec![
            ("name", Json::str(barrier_name)),
            ("task_program", Json::str(task_name)),
            ("cores", Json::UInt(cores as u64)),
            ("outputs_match", Json::Bool(outputs_match)),
            ("barrier", run_block(&barrier_run)),
            ("task", run_block(&task_run)),
        ]));
    }
    Ok(Json::Arr(entries))
}

/// Builds a manifest for an explicit program list by sweeping every
/// program's points in parallel over one shared artifact cache.
///
/// # Errors
///
/// Propagates pipeline failures.
pub(crate) fn manifest_for(
    programs: &[(&str, usize)],
    opts: &ManifestOptions,
) -> Result<Json, PipelineError> {
    let config = SccConfig::table_6_1();
    let cache = open_cache(&opts.spec);
    let report = sweep(&manifest_matrix(programs, opts, &config, &cache));
    // The sweep section snapshots the counters here, before the `opt`
    // section reuses the cache, so the pinned `sweep.cache` numbers keep
    // meaning "the manifest sweep alone" (what the goldens fix).
    let sweep_section = sweep_json(&report, opts);
    let mut outcomes = report.outcomes.into_iter();
    let mut entries = Vec::with_capacity(programs.len());
    for &(name, cores) in programs {
        let base = metered_run(outcomes.next().expect("baseline point"))?;
        let hsm = metered_run(outcomes.next().expect("hsm point"))?;
        entries.push(entry_json(name, cores, base, hsm, opts));
    }
    let opt_section = opt_json(programs, opts, &config, &cache)?;
    let tasks_section = tasks_json(programs, opts, &config, &cache)?;
    Ok(Json::obj(vec![
        ("schema_version", Json::UInt(MANIFEST_SCHEMA_VERSION)),
        ("config", config_json(&config)),
        ("sweep", sweep_section),
        ("opt", opt_section),
        ("tasks", tasks_section),
        ("programs", Json::Arr(entries)),
    ]))
}

/// The full manifest `figures --json` writes.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn full_manifest(opts: &ManifestOptions) -> Result<Json, PipelineError> {
    manifest_for(&MANIFEST_PROGRAMS, opts)
}

/// The deterministic golden manifest (no host timings, golden program
/// subset) the regression test pins. Runs through the same parallel sweep
/// engine as the full manifest: the cache counters it pins are identical
/// for every worker count.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn golden_manifest() -> Result<Json, PipelineError> {
    manifest_for(
        &GOLDEN_PROGRAMS,
        &ManifestOptions {
            include_host_timings: false,
            spec: SweepSpec::default(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Options with the given worker count and no host timings.
    fn quiet_opts(workers: usize) -> ManifestOptions {
        ManifestOptions {
            include_host_timings: false,
            spec: SweepSpec {
                workers,
                ..SweepSpec::default()
            },
        }
    }

    #[test]
    fn manifest_structure_is_versioned_and_complete() {
        let m = manifest_for(&[("example_4_1", 3)], &quiet_opts(1)).expect("manifest");
        assert_eq!(
            m.get("schema_version"),
            Some(&Json::UInt(MANIFEST_SCHEMA_VERSION))
        );
        assert_eq!(
            m.get("config").and_then(|c| c.get("cores")),
            Some(&Json::UInt(48))
        );
        let Some(Json::Arr(programs)) = m.get("programs") else {
            panic!("programs array missing");
        };
        let entry = &programs[0];
        assert_eq!(entry.get("name"), Some(&Json::str("example_4_1")));
        // The HSM pipeline has all five stages, the baseline two.
        let Some(Json::Arr(stages)) = entry.get("pipeline") else {
            panic!("pipeline missing");
        };
        assert_eq!(stages.len(), 5);
        let Some(Json::Arr(base_stages)) = entry.get("baseline_pipeline") else {
            panic!("baseline pipeline missing");
        };
        assert_eq!(base_stages.len(), 2);
        // Counter blocks are present and populated.
        let hsm = entry.get("hsm").expect("hsm block");
        assert!(matches!(hsm.get("total_cycles"), Some(Json::UInt(c)) if *c > 0));
        let shared = hsm.get("regions").and_then(|r| r.get("shared_dram"));
        assert!(shared.is_some(), "per-region block missing");
        // The sweep section records the shared cache: the HSM point reused
        // the baseline point's parse.
        let cache = m.get("sweep").and_then(|s| s.get("cache")).expect("cache");
        assert_eq!(
            cache.get("parse"),
            Some(&Json::obj(vec![
                ("hits", Json::UInt(1)),
                ("misses", Json::UInt(1)),
            ]))
        );
        assert!(matches!(cache.get("total_hits"), Some(Json::UInt(h)) if *h > 0));
        // Without host timings the rendering is deterministic.
        let again = manifest_for(&[("example_4_1", 3)], &quiet_opts(1)).expect("manifest");
        assert_eq!(m.render(), again.render());
    }

    #[test]
    fn host_timings_are_opt_in() {
        let base_opts = ManifestOptions {
            include_host_timings: true,
            spec: SweepSpec {
                workers: 1,
                ..SweepSpec::default()
            },
        };
        let with = manifest_for(&[("example_4_1", 3)], &base_opts).expect("manifest");
        let without = manifest_for(&[("example_4_1", 3)], &quiet_opts(1)).expect("manifest");
        assert!(with.render().contains("host_wall_nanos"));
        assert!(!without.render().contains("host_wall_nanos"));
    }

    /// The tentpole's determinism guarantee at the manifest level: a
    /// serial and a 4-worker sweep render byte-identical manifests when
    /// host timings are excluded — including the cache counters.
    #[test]
    fn manifest_is_worker_count_invariant() {
        let serial = manifest_for(&GOLDEN_PROGRAMS, &quiet_opts(1)).expect("serial");
        let parallel = manifest_for(&GOLDEN_PROGRAMS, &quiet_opts(4)).expect("parallel");
        assert_eq!(serial.render(), parallel.render());
    }

    /// The tentpole's warm-cache guarantee at the manifest level: two
    /// manifests built over the same store directory render identically
    /// (host timings off), and the warm build never misses the store.
    #[test]
    fn manifest_is_byte_identical_cold_vs_warm() {
        let dir = std::env::temp_dir().join(format!("hsm-manifest-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ManifestOptions {
            include_host_timings: false,
            spec: SweepSpec {
                workers: 1,
                cache_dir: Some(dir.to_string_lossy().into_owned()),
                ..SweepSpec::default()
            },
        };
        let cold = manifest_for(&[("example_4_1", 3)], &opts).expect("cold");
        let warm = manifest_for(&[("example_4_1", 3)], &opts).expect("warm");
        assert_eq!(cold.render(), warm.render());
        // And against a storeless build: the store must not leak into
        // the deterministic sections.
        let plain = manifest_for(&[("example_4_1", 3)], &quiet_opts(1)).expect("plain");
        assert_eq!(plain.render(), warm.render());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
