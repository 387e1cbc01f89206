//! The artifact-reuse `Pipeline` session.
//!
//! A [`Pipeline`] is a configured view of one C source through the
//! five-stage pipeline (parse → analyze → partition → translate →
//! compile) plus the simulated executions built on top of it. It is a
//! builder —
//!
//! ```
//! use hsm_core::api::{Mode, Pipeline};
//!
//! let src = "int main() { return 7; }";
//! let session = Pipeline::new(src).cores(4).scenario(Mode::PthreadBaseline.into());
//! let result = session.run_scenario().expect("runs");
//! assert_eq!(result.exit_code, 7);
//! ```
//!
//! — and every intermediate artifact it computes ([`Pipeline::unit`],
//! [`Pipeline::analysis`], [`Pipeline::plan`], [`Pipeline::translation`],
//! [`Pipeline::program`]) is memoized in an [`ArtifactCache`] keyed by
//! *source hash × cores × policy × spec*. Cloning the session (or
//! sharing its cache handle across sessions) reuses those artifacts: the
//! baseline, off-chip and HSM runs of one benchmark parse and analyze the
//! source exactly once.
//!
//! The session never hardcodes the partition spec: unless
//! [`Pipeline::spec`] overrides it, the spec is [`MemorySpec::scc`] of
//! the configured core count, so the on-chip budget follows `.cores(n)`.
//!
//! [`Pipeline::scenario`] configures every execution axis — the mode
//! (baseline / RCCE / task-dataflow), the memory model and the opt level
//! — from one [`Scenario`] value. A run is then (program, scenario,
//! sink): [`Pipeline::run_traced`] is the single run path, and
//! [`Pipeline::run_scenario`], [`Pipeline::profile`] and
//! [`Pipeline::check_sharing`] are that call with nothing, a profile
//! collector or the sharing oracle attached. With
//! nothing attached a run is a pure function of its inputs, so
//! `run_scenario` (like `profile`) is memoized too: the cache's `run`
//! shelf answers a repeated query without simulating. The memory model
//! is deliberately *not* part of any compile-side artifact key: it
//! changes what a run observes, not what the translator produces, so a
//! multi-model sweep of one benchmark still parses, analyzes, translates
//! and compiles exactly once.

use crate::cache::{chip_fingerprint, source_hash, ArtifactCache, ArtifactKey};
use crate::metrics::{PipelineMetrics, Stage};
use crate::scenario::{Mode, Scenario};
use hsm_analysis::{ClassificationManifest, ProgramAnalysis};
use hsm_cir::TranslationUnit;
use hsm_exec::{
    ExecError, ExecModel, NullSink, Oracle, OracleMode, Profile, ProfileCollector, RunResult,
    RunSpec, TraceSink, Units,
};
use hsm_partition::{MemorySpec, PartitionPlan, Policy};
use hsm_translate::{TranslateError, TranslateOptions, Translation};
use hsm_vm::OptLevel;
use scc_sim::SccConfig;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Stack of every thread `hsmd` or the sweep engine starts to run
/// pipeline stages: connection threads, deadline workers and sweep
/// workers. The frontend and every stage after it recurse once per
/// nesting level of the program, up to the parser's limit of 128 levels.
/// In a debug build the deepest program passes every stage in every mode
/// on 4.5 MiB (125 nested `if`s translated for off-chip RCCE need more
/// than 4 MiB; about 36 KB a level), so this leaves more than 2× margin.
pub(crate) const STAGE_STACK_BYTES: usize = 12 << 20;

/// A pipeline failure at any stage.
///
/// The failing stage is available from [`PipelineError::stage`]; the
/// underlying stage error is the [`std::error::Error::source`].
#[derive(Debug)]
pub enum PipelineError {
    /// Frontend failure.
    Parse(hsm_cir::ParseError),
    /// Stage 4/5 failure.
    Translate(TranslateError),
    /// Bytecode compilation failure.
    Compile(hsm_vm::CompileError),
    /// Simulation failure.
    Exec(ExecError),
    /// The session is configured for no core, or for more than its chip
    /// has: refused before any stage runs.
    Cores {
        /// The core count the session was given.
        cores: usize,
        /// The cores of the configured chip.
        chip: usize,
    },
    /// The run was cancelled before it completed (a sweep shutting down,
    /// or a job server enforcing a deadline).
    Cancelled,
}

impl PipelineError {
    /// The name of the pipeline stage that failed (`"parse"`,
    /// `"translate"`, `"compile"` or `"exec"`), `"config"` for a session
    /// no stage could run for, or `"cancelled"`.
    pub fn stage(&self) -> &'static str {
        match self {
            PipelineError::Parse(_) => "parse",
            PipelineError::Translate(_) => "translate",
            PipelineError::Compile(_) => "compile",
            PipelineError::Exec(_) => "exec",
            PipelineError::Cores { .. } => "config",
            PipelineError::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "parse stage: {e}"),
            PipelineError::Translate(e) => write!(f, "translate stage: {e}"),
            PipelineError::Compile(e) => write!(f, "compile stage: {e}"),
            PipelineError::Exec(e) => write!(f, "exec stage: {e}"),
            PipelineError::Cores { cores, chip } => {
                write!(
                    f,
                    "core count {cores} outside 1..={chip}, the cores of the chip"
                )
            }
            PipelineError::Cancelled => write!(f, "run cancelled"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Parse(e) => Some(e),
            PipelineError::Translate(e) => Some(e),
            PipelineError::Compile(e) => Some(e),
            PipelineError::Exec(e) => Some(e),
            PipelineError::Cores { .. } | PipelineError::Cancelled => None,
        }
    }
}

impl From<hsm_cir::ParseError> for PipelineError {
    fn from(e: hsm_cir::ParseError) -> Self {
        PipelineError::Parse(e)
    }
}
impl From<TranslateError> for PipelineError {
    fn from(e: TranslateError) -> Self {
        PipelineError::Translate(e)
    }
}
impl From<hsm_vm::CompileError> for PipelineError {
    fn from(e: hsm_vm::CompileError) -> Self {
        PipelineError::Compile(e)
    }
}
impl From<ExecError> for PipelineError {
    fn from(e: ExecError) -> Self {
        PipelineError::Exec(e)
    }
}

/// The outcome of one oracle-checked run: the classification the static
/// analyses produced and what the dynamic sharing-soundness oracle saw.
#[derive(Debug)]
pub struct SharingCheck {
    /// The per-variable verdicts the run was checked against (empty for
    /// RCCE-mode pure race detection).
    pub manifest: hsm_analysis::ClassificationManifest,
    /// The oracle's violations and stream counts.
    pub report: hsm_exec::OracleReport,
    /// The program's ordinary run result (exit code, output, cycles).
    pub result: RunResult,
}

/// A configured pipeline session over one C source. See the
/// crate-level docs for the builder protocol and caching semantics.
#[derive(Debug, Clone)]
pub struct Pipeline {
    src: Arc<str>,
    src_hash: u64,
    cores: usize,
    mode: Mode,
    policy: Policy,
    spec: Option<MemorySpec>,
    config: SccConfig,
    exec_model: ExecModel,
    opt_level: OptLevel,
    /// The cache given with [`Pipeline::cache`], or the session's private
    /// one, built when the session (or a clone of it: the cell is shared)
    /// first looks something up. A job that attaches its server's cache on
    /// the next line never builds a cache of its own.
    cache: Arc<OnceLock<Arc<ArtifactCache>>>,
}

impl Pipeline {
    /// A session over `src` with the evaluation defaults: 32 cores,
    /// the default [`Scenario`] (HSM mode, coherent, `O0`,
    /// [`Policy::SizeAscending`]), a spec following the core count, the
    /// Table 6.1 chip, and a fresh private cache (built on first use).
    pub fn new(src: impl Into<Arc<str>>) -> Self {
        let src = src.into();
        let src_hash = source_hash(&src);
        Pipeline {
            src,
            src_hash,
            cores: 32,
            mode: Mode::RcceHsm,
            policy: Policy::SizeAscending,
            spec: None,
            config: SccConfig::table_6_1(),
            exec_model: ExecModel::Coherent,
            opt_level: OptLevel::O0,
            cache: Arc::default(),
        }
    }

    /// Configures every execution axis from one [`Scenario`]: mode,
    /// memory model, optimization level, and the placement policy the
    /// mode implies (a later [`Pipeline::policy`] call still overrides
    /// the policy). This is the only way to select axes — the old
    /// per-axis setters (`exec_model`, `opt_level`) are gone.
    #[must_use]
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.mode = scenario.mode;
        self.exec_model = scenario.exec_model;
        self.opt_level = scenario.opt_level;
        self.policy = scenario.mode.policy();
        self
    }

    /// Sets the participating core count (also sizes the default spec).
    #[must_use]
    pub fn cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Sets the Stage 4 placement policy.
    #[must_use]
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the partition spec (default: [`MemorySpec::scc`] of the
    /// configured core count).
    #[must_use]
    pub fn spec(mut self, spec: MemorySpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Sets the simulated chip configuration.
    #[must_use]
    pub fn config(mut self, config: SccConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a shared [`ArtifactCache`] so several sessions reuse each
    /// other's artifacts.
    #[must_use]
    pub fn cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.cache = Arc::new(OnceLock::from(cache));
        self
    }

    /// The cache every lookup of this session goes through.
    fn artifacts(&self) -> &Arc<ArtifactCache> {
        self.cache.get_or_init(ArtifactCache::shared)
    }

    /// The session's source text.
    pub fn source(&self) -> &str {
        &self.src
    }

    /// The chip configuration runs execute on.
    pub fn chip(&self) -> &SccConfig {
        &self.config
    }

    /// The session's axes as one [`Scenario`].
    pub(crate) fn configured_scenario(&self) -> Scenario {
        Scenario {
            mode: self.mode,
            exec_model: self.exec_model,
            opt_level: self.opt_level,
        }
    }

    /// The partition spec in effect: the explicit override, or the SCC
    /// spec sized to the configured core count.
    pub(crate) fn effective_spec(&self) -> MemorySpec {
        self.spec.unwrap_or_else(|| MemorySpec::scc(self.cores))
    }

    /// The session's cache handle (hand it to another session, or read
    /// its [`stats`](ArtifactCache::stats)).
    pub fn cache_handle(&self) -> Arc<ArtifactCache> {
        Arc::clone(self.artifacts())
    }

    fn translation_key(&self) -> ArtifactKey {
        ArtifactKey::Translation {
            src: self.src_hash,
            cores: self.cores,
            policy: self.policy,
            spec: self.effective_spec(),
        }
    }

    /// The key of this session's run under `stage`: [`Stage::Profile`]
    /// for the profiled run's artifact, the plain run's otherwise. One
    /// builder, so the two can never disagree on what selects a run.
    fn run_key(&self, stage: Stage) -> ArtifactKey {
        let (src, cores, policy) = (self.src_hash, self.cores, self.policy);
        let (spec, scenario) = (self.effective_spec(), self.configured_scenario());
        let chip = chip_fingerprint(&self.config);
        let model = hsm_exec::MODEL_VERSION;
        match stage {
            Stage::Profile => ArtifactKey::Profile {
                src,
                cores,
                policy,
                spec,
                scenario,
                chip,
                model,
            },
            _ => ArtifactKey::Run {
                src,
                cores,
                policy,
                spec,
                scenario,
                chip,
                model,
            },
        }
    }

    // ------------------------------------------------------ artifacts --
    //
    // Each public getter performs exactly one cache lookup per shelf: the
    // private `*_of` helpers take their dependencies as arguments instead
    // of re-resolving them, so the hit/miss counters read as "how many
    // operations reused this artifact", not as internal call chatter.

    /// The parsed translation unit (memoized per source). Every other
    /// stage starts here, so this is where a session on cores its chip
    /// does not have is refused, before anything is parsed or cached.
    ///
    /// # Errors
    ///
    /// Propagates parse failures; [`PipelineError::Cores`].
    pub fn unit(&self) -> Result<Arc<TranslationUnit>, PipelineError> {
        let (cores, chip) = (self.cores, self.config.cores);
        if cores == 0 || cores > chip {
            return Err(PipelineError::Cores { cores, chip });
        }
        self.artifacts()
            .unit_with(self.src_hash, &self.src, || Ok(hsm_cir::parse(&self.src)?))
    }

    /// Stage 1–3 over an already-parsed unit (one `analyze` lookup).
    fn analysis_of(&self, unit: &TranslationUnit) -> Result<Arc<ProgramAnalysis>, PipelineError> {
        self.artifacts()
            .analysis_with(self.src_hash, unit, || Ok(ProgramAnalysis::analyze(unit)))
    }

    /// Stage 4 over an already-computed analysis (one `partition` lookup).
    fn plan_of(&self, analysis: &ProgramAnalysis) -> Result<Arc<PartitionPlan>, PipelineError> {
        let spec = self.effective_spec();
        let key = ArtifactKey::Plan {
            src: self.src_hash,
            policy: self.policy,
            spec,
        };
        self.artifacts().plan_with(key, || {
            let shared = hsm_partition::shared_vars_from_analysis(analysis);
            Ok(hsm_partition::partition(&shared, &spec, self.policy))
        })
    }

    /// Stage 5 over already-computed inputs (one `translate` lookup).
    fn translation_of(
        &self,
        unit: &TranslationUnit,
        analysis: &ProgramAnalysis,
        plan: &PartitionPlan,
    ) -> Result<Arc<Translation>, PipelineError> {
        self.artifacts()
            .translation_with(self.translation_key(), analysis, plan, || {
                Ok(hsm_translate::translate_with_plan(
                    unit,
                    analysis,
                    plan,
                    TranslateOptions {
                        cores: self.cores,
                        policy: self.policy,
                    },
                )?)
            })
    }

    /// Bytecode of an already-computed translation (one `compile` lookup).
    fn program_of(&self, translation: &Translation) -> Result<Arc<hsm_vm::Program>, PipelineError> {
        let level = self.opt_level;
        let key = ArtifactKey::TranslatedProgram {
            src: self.src_hash,
            cores: self.cores,
            policy: self.policy,
            spec: self.effective_spec(),
            opt: level,
        };
        self.artifacts().program_with(key, || {
            let program = hsm_vm::compile(&translation.unit)?;
            Ok(match level {
                OptLevel::O0 => program,
                _ => hsm_vm::optimize(&program, level),
            })
        })
    }

    /// Baseline bytecode of an already-parsed unit (one `compile` lookup).
    fn baseline_program_of(
        &self,
        unit: &TranslationUnit,
    ) -> Result<Arc<hsm_vm::Program>, PipelineError> {
        let level = self.opt_level;
        let key = ArtifactKey::BaselineProgram {
            src: self.src_hash,
            opt: level,
        };
        self.artifacts().program_with(key, || {
            let program = hsm_vm::compile(unit)?;
            Ok(match level {
                OptLevel::O0 => program,
                _ => hsm_vm::optimize(&program, level),
            })
        })
    }

    /// The Stage 1–3 analysis (memoized per source).
    ///
    /// # Errors
    ///
    /// Propagates parse failures.
    pub fn analysis(&self) -> Result<Arc<ProgramAnalysis>, PipelineError> {
        let unit = self.unit()?;
        self.analysis_of(&unit)
    }

    /// The Stage 4 partition plan against the session's partition spec
    /// (memoized per source × policy × spec).
    ///
    /// # Errors
    ///
    /// Propagates parse failures.
    pub fn plan(&self) -> Result<Arc<PartitionPlan>, PipelineError> {
        let analysis = self.analysis()?;
        self.plan_of(&analysis)
    }

    /// The Stage 5 translation to RCCE C (memoized per source × cores ×
    /// policy × spec).
    ///
    /// # Errors
    ///
    /// Propagates parse and translation failures.
    pub fn translation(&self) -> Result<Arc<Translation>, PipelineError> {
        let unit = self.unit()?;
        let analysis = self.analysis_of(&unit)?;
        let plan = self.plan_of(&analysis)?;
        self.translation_of(&unit, &analysis, &plan)
    }

    /// The compiled bytecode of the translated RCCE program.
    ///
    /// # Errors
    ///
    /// Propagates parse, translation and compilation failures.
    pub fn program(&self) -> Result<Arc<hsm_vm::Program>, PipelineError> {
        let translation = self.translation()?;
        self.program_of(&translation)
    }

    /// The compiled bytecode of the unmodified pthread program.
    ///
    /// # Errors
    ///
    /// Propagates parse and compilation failures.
    pub fn baseline_program(&self) -> Result<Arc<hsm_vm::Program>, PipelineError> {
        let unit = self.unit()?;
        self.baseline_program_of(&unit)
    }

    // ----------------------------------------------------------- runs --
    //
    // A run is (program, scenario, sink). `simulate` is the one place
    // that hands a compiled program to an `hsm_exec` entry point;
    // `run_traced` is that call on the configured mode's program, and
    // everything else is `run_traced` with a different sink attached —
    // or, for `run_scenario`, the memoized result of it.

    /// The compiled program the configured mode executes: the baseline
    /// bytecode for the pthread and task modes (which run the source
    /// directly), the translated program for the RCCE modes.
    fn mode_program(&self) -> Result<Arc<hsm_vm::Program>, PipelineError> {
        match self.mode {
            Mode::PthreadBaseline | Mode::TaskDataflow => self.baseline_program(),
            Mode::RcceOffChip | Mode::RcceHsm => self.program(),
        }
    }

    /// Simulates `program` the way the configured [`Scenario`] selects.
    fn simulate<S: TraceSink>(
        &self,
        program: &hsm_vm::Program,
        sink: &mut S,
    ) -> Result<RunResult, PipelineError> {
        let cores = self.cores;
        let units = match self.mode {
            Mode::PthreadBaseline => Units::Pthread,
            Mode::RcceOffChip | Mode::RcceHsm => Units::Rcce { cores },
            Mode::TaskDataflow => Units::Task { cores },
        };
        let spec = RunSpec::new(self.config.clone(), units, self.exec_model);
        Ok(hsm_exec::run(program, &spec, sink)?)
    }

    /// Runs the program the way the configured [`Scenario`] selects — the
    /// pthread interpreter on one core, the translated RCCE program, or
    /// the task-dataflow runtime on the source compiled directly — with
    /// every memory access and sync event streamed to `sink`. Sinks
    /// observe; they never perturb the run. Always simulates: what a sink
    /// sees cannot be replayed from a stored result.
    ///
    /// # Errors
    ///
    /// Propagates failures from any stage.
    pub fn run_traced<S: TraceSink>(&self, sink: &mut S) -> Result<RunResult, PipelineError> {
        self.simulate(&*self.mode_program()?, sink)
    }

    /// [`Pipeline::run_traced`] with nothing watching — and therefore
    /// memoized: the result is a pure function of the run key (source ×
    /// cores × policy × spec × scenario × chip × simulator version), so
    /// the cache's `run` shelf answers a repeated query, in memory or
    /// from the persistent store, without simulating. The program is
    /// resolved through the compile-side shelves *first*, exactly as an
    /// unmemoized run would: their counters, and any compile-side error,
    /// are the same whether or not the run hits.
    ///
    /// # Errors
    ///
    /// Propagates failures from any stage; a failed run is never stored.
    pub fn run_scenario(&self) -> Result<RunResult, PipelineError> {
        let program = self.mode_program()?;
        self.artifacts().run_with(self.run_key(Stage::Run), || {
            self.simulate(&program, &mut NullSink)
        })
    }

    /// The run profile for the configured scenario (memoized per source
    /// × cores × policy × spec × scenario). A cache hit — in memory or
    /// through the persistent store — skips simulation entirely; a miss
    /// simulates once.
    ///
    /// # Errors
    ///
    /// Propagates failures from any stage.
    pub fn profile(&self) -> Result<Arc<Profile>, PipelineError> {
        self.artifacts()
            .profile_with(self.run_key(Stage::Profile), || {
                let mut collector = ProfileCollector::new(self.config.line_bytes);
                let result = self.run_traced(&mut collector)?;
                Ok(collector.into_profile(&result))
            })
    }

    /// [`Pipeline::run_traced`] with the sharing-soundness [`Oracle`]
    /// attached. The configured mode decides what the oracle audits:
    ///
    /// * baseline — the Stage 1–3 classification (plus the Stage 4
    ///   placement annotations from the session's policy and spec)
    ///   against the ground-truth thread semantics;
    /// * RCCE modes — pure happens-before race detection over the shared
    ///   regions of the translated program, i.e. the synchronization the
    ///   translator inserted (empty manifest);
    /// * task — pure race detection over the spawn/dependence/wait edges
    ///   the task runtime emits: a task program whose in/out annotations
    ///   cover its sharing is clean, undeclared sharing is a data race.
    ///
    /// The oracle reads the program's symbol tables before the run
    /// starts, so a check looks its program up once more than a plain
    /// run does (a cache hit).
    ///
    /// # Errors
    ///
    /// Propagates failures from any stage.
    pub fn check_sharing(&self) -> Result<SharingCheck, PipelineError> {
        let (oracle_mode, manifest, program) = match self.mode {
            Mode::PthreadBaseline => {
                let unit = self.unit()?;
                let analysis = self.analysis_of(&unit)?;
                let mut manifest = ClassificationManifest::from_analysis(&analysis);
                hsm_partition::annotate_manifest(&*self.plan_of(&analysis)?, &mut manifest);
                (
                    OracleMode::Pthread,
                    manifest,
                    self.baseline_program_of(&unit)?,
                )
            }
            Mode::RcceOffChip | Mode::RcceHsm => (
                OracleMode::Rcce,
                ClassificationManifest::empty(),
                self.program()?,
            ),
            Mode::TaskDataflow => (
                OracleMode::Pthread,
                ClassificationManifest::empty(),
                self.baseline_program()?,
            ),
        };
        let mut oracle = Oracle::new(
            &program,
            manifest.clone(),
            oracle_mode,
            self.config.line_bytes,
        );
        let result = self.run_traced(&mut oracle)?;
        Ok(SharingCheck {
            manifest,
            report: oracle.finish(),
            result,
        })
    }

    /// Walks the stages the configured mode's program goes through — all
    /// five for the RCCE modes, parse and compile for the baseline and
    /// task modes, which run the source directly — one at a time, so each
    /// gets its own [`StageMetric`](crate::StageMetric): host wall time
    /// plus a deterministic IR size. The walk goes through the session's
    /// cache like any other lookup: cached stages report the same sizes,
    /// only their wall times shrink.
    ///
    /// # Errors
    ///
    /// Propagates parse, translation and compilation failures.
    pub(crate) fn stage_metrics(&self) -> Result<PipelineMetrics, PipelineError> {
        let mut metrics = PipelineMetrics::default();
        let unit = metrics.measure(Stage::Parse, || {
            self.unit().map(|u| {
                let size = hsm_cir::print_unit(&u).len();
                (u, size)
            })
        })?;
        let translation = match self.mode {
            Mode::PthreadBaseline | Mode::TaskDataflow => None,
            Mode::RcceOffChip | Mode::RcceHsm => {
                let analysis = metrics.measure(Stage::Analyze, || {
                    self.analysis_of(&unit).map(|a| {
                        let vars = a.sharing.variables().count();
                        (a, vars)
                    })
                })?;
                let plan = metrics.measure(Stage::Partition, || {
                    self.plan_of(&analysis).map(|p| {
                        let placements = p.placements.len();
                        (p, placements)
                    })
                })?;
                Some(metrics.measure(Stage::Translate, || {
                    self.translation_of(&unit, &analysis, &plan).map(|t| {
                        let size = t.source().len();
                        (t, size)
                    })
                })?)
            }
        };
        metrics.measure(Stage::Compile, || {
            match &translation {
                Some(translation) => self.program_of(translation),
                None => self.baseline_program_of(&unit),
            }
            .map(|p| ((), p.code_len()))
        })?;
        Ok(metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
int sum[2];
void *tf(void *tid) { sum[(int)tid] = (int)tid + 1; return tid; }
int main() {
    pthread_t t[2];
    int i;
    for (i = 0; i < 2; i++) pthread_create(&t[i], NULL, tf, (void *)i);
    for (i = 0; i < 2; i++) pthread_join(t[i], NULL);
    return sum[0] + sum[1];
}
"#;

    /// `main` with `construct(n)` — `n` levels of one kind of nesting —
    /// in its body.
    fn nested_program(construct: &str, n: usize) -> String {
        let body = match construct {
            "if" => format!("{}x = 2;", "if (x) ".repeat(n)),
            "else if" => format!(
                "if (x == 0) x = 0;{} else x = 2;",
                " else if (x == 0) x = 0;".repeat(n)
            ),
            "block" => format!("{}x = 2;{}", "{ ".repeat(n), " }".repeat(n)),
            "loop" => {
                let level = |l: usize| ["for (i = 0; i < 1; i++) ", "while (x < 2) "][l % 2];
                format!("{}x = 2;", (0..n).map(level).collect::<String>())
            }
            "parentheses" => format!("x = {}x{};", "(".repeat(n), ")".repeat(n)),
            "unary" => format!("x = {}x;", "- ~ ".repeat(n / 2) + &"- ".repeat(n % 2)),
            "binary" => format!("x = x{};", " + x".repeat(n)),
            "ternary" => format!("x = {}x;", "x ? x : ".repeat(n)),
            "assignment" => format!("{}x;", "x = ".repeat(n)),
            "comma" => format!("x = (x{});", ", x".repeat(n)),
            "pointer" => format!("int {}p; x = 2;", "*".repeat(n)),
            other => unreachable!("{other}"),
        };
        format!("int main() {{ int x = 1; int i = 0; {body} return x; }}")
    }

    /// Every construct nested up to the parser's limit passes every stage
    /// in every mode on a thread of [`STAGE_STACK_BYTES`] — in the debug
    /// build, whose frames are the largest — and one level more is a
    /// parse error, not a stack overflow.
    #[test]
    fn nesting_at_the_parser_limit_runs_on_a_stage_thread() {
        let check = || {
            for construct in [
                "if",
                "else if",
                "block",
                "loop",
                "parentheses",
                "unary",
                "binary",
                "ternary",
                "assignment",
                "comma",
                "pointer",
            ] {
                let deepest = (1..)
                    .take_while(|&n| match hsm_cir::parse(&nested_program(construct, n)) {
                        Ok(_) => true,
                        Err(e) if e.message.contains("nested deeper than") => false,
                        Err(e) => panic!("{construct} at {n}: {e}"),
                    })
                    .last()
                    .expect("one level parses");
                assert!(deepest > 100, "{construct}: the limit is {deepest} levels");
                let src = nested_program(construct, deepest);
                for mode in Mode::ALL {
                    Pipeline::new(src.as_str())
                        .cores(2)
                        .scenario(mode.into())
                        .run_scenario()
                        .unwrap_or_else(|e| {
                            panic!("{construct} x{deepest}, {}: {e}", mode.label())
                        });
                }
                let deeper = Pipeline::new(nested_program(construct, deepest + 1)).run_scenario();
                assert!(
                    matches!(deeper, Err(PipelineError::Parse(_))),
                    "{construct} x{}: {deeper:?}",
                    deepest + 1
                );
            }
        };
        std::thread::Builder::new()
            .stack_size(STAGE_STACK_BYTES)
            .spawn(check)
            .expect("spawn")
            .join()
            .expect("every construct at the limit runs");
    }

    #[test]
    fn spec_follows_core_count_unless_overridden() {
        let p = Pipeline::new(SRC).cores(4);
        assert_eq!(p.effective_spec(), MemorySpec::scc(4));
        let q = Pipeline::new(SRC).cores(4).spec(MemorySpec::scc(48));
        assert_eq!(q.effective_spec(), MemorySpec::scc(48));
        assert_eq!(q.plan().expect("plan").spec, MemorySpec::scc(48));
    }

    #[test]
    fn cloned_sessions_share_artifacts() {
        let base = Pipeline::new(SRC).cores(2);
        let off = base.clone().policy(Policy::OffChipOnly);
        let _ = base
            .clone()
            .scenario(Mode::PthreadBaseline.into())
            .run_scenario()
            .expect("baseline");
        let _ = off.run_scenario().expect("off-chip");
        let stats = base.cache_handle().stats();
        assert_eq!(stats[Stage::Parse].misses, 1, "one parse for both sessions");
        assert!(stats[Stage::Parse].hits > 0, "the clone reused the parse");
    }

    /// What `hsmd` and `sweep` do for every job and point: `new`, then
    /// `.cache(..)` on the next line. Such a session builds no cache of its
    /// own, and one left to itself builds one when it first looks
    /// something up, which its clones share.
    #[test]
    fn a_session_given_a_cache_builds_no_other() {
        let given = ArtifactCache::shared();
        let fresh = Pipeline::new(SRC).cores(2);
        assert!(fresh.cache.get().is_none(), "`new` built a cache");
        let session = fresh.cache(Arc::clone(&given));
        let _ = session.clone().run_scenario().expect("runs");
        assert!(Arc::ptr_eq(session.cache.get().expect("given"), &given));
        assert_eq!(given.stats()[Stage::Run].misses, 1);

        let alone = Pipeline::new(SRC).cores(2);
        let twin = alone.clone();
        let _ = twin.run_scenario().expect("runs");
        let built = alone.cache.get().expect("the twin built it");
        assert!(Arc::ptr_eq(built, &twin.cache_handle()));
        assert_eq!(built.stats()[Stage::Run].misses, 1);
    }

    #[test]
    fn a_session_on_cores_its_chip_lacks_runs_no_stage() {
        let cache = ArtifactCache::shared();
        for cores in [0, 49, usize::MAX] {
            let session = Pipeline::new(SRC).cores(cores).cache(Arc::clone(&cache));
            for mode in Mode::ALL {
                let err = session.clone().scenario(mode.into()).run_scenario();
                let err = err.expect_err("the chip has 48 cores");
                assert_eq!(err.stage(), "config", "{err}");
                assert!(
                    matches!(err, PipelineError::Cores { chip: 48, .. }),
                    "{err}"
                );
            }
            let err = session
                .translation()
                .expect_err("nor is it translated for them");
            let expected = format!("core count {cores} outside 1..=48");
            assert!(err.to_string().contains(&expected), "{err}");
        }
        let stats = cache.stats();
        assert_eq!(
            (stats.total_hits(), stats.total_misses()),
            (0, 0),
            "looked up"
        );
        // The bound is the configured chip's.
        let quad = SccConfig {
            cores: 4,
            ..SccConfig::table_6_1()
        };
        let session = Pipeline::new(SRC).config(quad);
        assert!(session.clone().cores(4).unit().is_ok());
        let err = session.cores(5).unit().expect_err("a 4-core chip");
        assert!(
            matches!(err, PipelineError::Cores { cores: 5, chip: 4 }),
            "{err}"
        );
    }

    #[test]
    fn artifacts_are_computed_once_per_key() {
        let p = Pipeline::new(SRC).cores(2);
        let a = p.translation().expect("first");
        let b = p.translation().expect("second");
        assert!(Arc::ptr_eq(&a, &b), "same memoized artifact");
        assert_eq!(p.cache_handle().stats()[Stage::Translate].misses, 1);
    }

    #[test]
    fn baseline_and_translated_agree() {
        let p = Pipeline::new(SRC).cores(2);
        let base = p
            .clone()
            .scenario(Mode::PthreadBaseline.into())
            .run_scenario()
            .expect("baseline");
        let hsm = p.run_scenario().expect("hsm");
        assert_eq!(base.exit_code, 3);
        assert_eq!(hsm.exit_code, 3);
    }

    #[test]
    fn exec_models_share_every_artifact() {
        let p = Pipeline::new(SRC).cores(2);
        let coherent = p.run_scenario().expect("coherent");
        let stale = p
            .clone()
            .scenario(Scenario::default().exec_model(ExecModel::NonCoherentWriteBack))
            .run_scenario()
            .expect("non-coherent");
        // The translated program is staleness-immune by construction.
        assert_eq!(coherent.exit_code, stale.exit_code);
        let stats = p.cache_handle().stats();
        assert_eq!(
            stats[Stage::Translate].misses,
            1,
            "model is not an artifact key"
        );
        assert_eq!(stats[Stage::Compile].misses, 1);
        assert!(
            stats[Stage::Compile].hits > 0,
            "second model reused the bytecode"
        );
    }

    /// Ported from the deprecated-setter migration check (the per-axis
    /// setters are gone): `Pipeline::scenario` must configure every axis
    /// the setters used to reach, and the round trip through
    /// `configured_scenario` must be lossless.
    #[test]
    fn scenario_configures_every_axis() {
        let scenario = Scenario::default()
            .exec_model(ExecModel::SeqCstReference)
            .opt_level(hsm_vm::OptLevel::O2);
        let p = Pipeline::new(SRC).scenario(scenario);
        assert_eq!(p.configured_scenario(), scenario);
    }

    #[test]
    fn profiles_are_cached_and_match_the_plain_run() {
        let p = Pipeline::new(SRC).cores(2);
        let plain = p.run_scenario().expect("plain run");
        let profile = p.profile().expect("profile");
        assert_eq!(profile.total_cycles, plain.total_cycles);
        assert_eq!(profile.exit_code, plain.exit_code);
        // The first call deposited the artifact: the second is a hit.
        let cached = p.profile().expect("cached profile");
        assert_eq!(cached.total_cycles, profile.total_cycles);
        let stats = p.cache_handle().stats();
        assert_eq!(stats[Stage::Profile].misses, 1, "one profile computed");
        assert!(stats[Stage::Profile].hits > 0, "the lookup reused it");
    }

    #[test]
    fn profile_keys_distinguish_scenarios() {
        let p = Pipeline::new(SRC).cores(2);
        let hsm = p.profile().expect("hsm profile");
        let base = p
            .clone()
            .scenario(Scenario::default().mode(Mode::PthreadBaseline))
            .profile()
            .expect("baseline profile");
        assert_eq!(hsm.exit_code, base.exit_code);
        assert!(base.active_cores() <= hsm.active_cores());
        assert_eq!(p.cache_handle().stats()[Stage::Profile].misses, 2);
    }
}
