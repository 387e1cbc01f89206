//! The serializable sweep specification.
//!
//! A [`SweepSpec`] names everything a sweep varies — corpus programs ×
//! [`Scenario`]s (mode × exec model × opt level as one typed value) —
//! plus the execution knobs (worker threads, persistent cache directory)
//! that used to be plumbed through ad-hoc CLI flags. One spec value flows
//! unchanged through all three consumers: the `figures` CLI parses its
//! flags into one ([`SweepSpec::take_cli_flags`]), the `hsmd` job server
//! receives one as JSON inside a sweep job ([`SweepSpec::from_json`]),
//! and library callers build the [`SweepMatrix`] it describes with
//! [`SweepSpec::to_matrix`].
//!
//! Programs are corpus names by default (resolved against the
//! repository's `corpus/` directory); a program may instead carry its
//! source inline, which is how remote `hsmd` clients ship programs the
//! server has no file for.

use crate::experiment::{Mode, SweepMatrix, SweepTask};
use crate::json::{Json, JsonError};
use crate::scenario::Scenario;
use crate::{ArtifactCache, ExecModel, OptLevel, PipelineError};
use scc_sim::SccConfig;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

/// The most points (programs × scenarios) one [`SweepSpec`] may expand
/// to. `figures`' largest sweep is a few hundred; the cap keeps a spec
/// that arrives over the wire from sizing an allocation.
pub const MAX_POINTS: usize = 65_536;

/// One program of a [`SweepSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecProgram {
    /// The program's name (a corpus file stem, and the prefix of its
    /// sweep point names).
    pub name: String,
    /// Participating core count.
    pub cores: usize,
    /// Inline C source. `None` resolves `name` against the corpus
    /// directory when the matrix is built.
    pub source: Option<String>,
}

impl SpecProgram {
    /// A corpus program reference (source resolved at matrix build).
    pub fn corpus(name: impl Into<String>, cores: usize) -> Self {
        SpecProgram {
            name: name.into(),
            cores,
            source: None,
        }
    }

    /// A program with inline source (what remote clients send).
    pub fn inline(name: impl Into<String>, cores: usize, source: impl Into<String>) -> Self {
        SpecProgram {
            name: name.into(),
            cores,
            source: Some(source.into()),
        }
    }
}

/// A serializable description of one sweep: which programs, run under
/// which [`Scenario`]s, with which execution knobs. See the module docs
/// for the consumers.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// The programs to sweep.
    pub programs: Vec<SpecProgram>,
    /// The scenarios each program runs under (point names are
    /// `"{program}/{scenario label}"`, in this order).
    pub scenarios: Vec<Scenario>,
    /// Sweep worker threads (0 = one per available host core).
    pub workers: usize,
    /// Persistent artifact-store directory ([`SweepSpec::open_cache`]
    /// attaches it); `None` = in-memory cache only.
    pub cache_dir: Option<String>,
    /// Retired in ISSUE 17 (the predictor lost its trial to a two-point
    /// fit); must be `false` — [`SweepSpec::to_matrix`] rejects `true`.
    /// Kept only because `benchmark/` spells it in a struct literal; drop
    /// with the next benchmark PR.
    pub predict_first: bool,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            programs: Vec::new(),
            scenarios: vec![
                Scenario::new(Mode::PthreadBaseline),
                Scenario::new(Mode::RcceHsm),
            ],
            workers: 0,
            cache_dir: None,
            predict_first: false,
        }
    }
}

/// A [`SweepSpec`] validation, parse or resolution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// What went wrong.
    pub message: String,
}

impl SpecError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        SpecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sweep spec: {}", self.message)
    }
}

impl std::error::Error for SpecError {}

impl From<JsonError> for SpecError {
    fn from(e: JsonError) -> Self {
        SpecError::new(e.to_string())
    }
}

/// The repository's corpus directory (compile-time anchored, like the
/// bench crate's corpus loader).
pub fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus")
}

impl SweepSpec {
    /// The spec as a JSON document (the wire form `hsmd` sweep jobs
    /// carry, and the inverse of [`SweepSpec::from_json`]).
    pub fn to_json(&self) -> Json {
        let programs = self
            .programs
            .iter()
            .map(|p| {
                let mut pairs = vec![
                    ("name", Json::Str(p.name.clone())),
                    ("cores", Json::UInt(p.cores as u64)),
                ];
                if let Some(src) = &p.source {
                    pairs.push(("source", Json::Str(src.clone())));
                }
                Json::obj(pairs)
            })
            .collect();
        let scenarios = self.scenarios.iter().map(|s| s.to_json()).collect();
        let mut pairs = vec![
            ("programs", Json::Arr(programs)),
            ("scenarios", Json::Arr(scenarios)),
            ("workers", Json::UInt(self.workers as u64)),
        ];
        if let Some(dir) = &self.cache_dir {
            pairs.push(("cache_dir", Json::Str(dir.clone())));
        }
        Json::obj(pairs)
    }

    /// Parses a spec from its JSON document. Missing fields take the
    /// [`Default`] values, so `{"programs": [...]}` is a valid spec.
    ///
    /// # Errors
    ///
    /// Rejects unknown mode/model/level labels and malformed programs.
    pub fn from_json(doc: &Json) -> Result<Self, SpecError> {
        let mut spec = SweepSpec::default();
        if let Some(programs) = doc.get("programs") {
            let Json::Arr(items) = programs else {
                return Err(SpecError::new("`programs` must be an array"));
            };
            spec.programs = items
                .iter()
                .map(|item| {
                    let name = match item.get("name") {
                        Some(Json::Str(s)) => s.clone(),
                        _ => return Err(SpecError::new("program without a `name` string")),
                    };
                    let cores = match item.get("cores") {
                        Some(Json::UInt(n)) if *n > 0 => *n as usize,
                        _ => {
                            return Err(SpecError::new(format!(
                                "program `{name}` needs a positive `cores` count"
                            )))
                        }
                    };
                    let source = match item.get("source") {
                        None => None,
                        Some(Json::Str(s)) => Some(s.clone()),
                        Some(_) => {
                            return Err(SpecError::new(format!(
                                "program `{name}`: `source` must be a string"
                            )))
                        }
                    };
                    Ok(SpecProgram {
                        name,
                        cores,
                        source,
                    })
                })
                .collect::<Result<_, _>>()?;
        }
        if let Some(scenarios) = doc.get("scenarios") {
            let Json::Arr(items) = scenarios else {
                return Err(SpecError::new("`scenarios` must be an array"));
            };
            spec.scenarios = items
                .iter()
                .map(Scenario::from_json)
                .collect::<Result<_, _>>()?;
        }
        // Axes travel in `scenarios` only; a flat pre-`Scenario` axis
        // field is an error, never a silent default.
        for flat in ["modes", "exec_model", "opt_level"] {
            if doc.get(flat).is_some() {
                return Err(SpecError::new(format!(
                    "`{flat}` is not a spec field: list the axes in `scenarios`"
                )));
            }
        }
        if let Some(workers) = doc.get("workers") {
            spec.workers = match workers {
                Json::UInt(n) => *n as usize,
                _ => return Err(SpecError::new("`workers` must be a non-negative integer")),
            };
        }
        if let Some(dir) = doc.get("cache_dir") {
            spec.cache_dir = match dir {
                Json::Str(s) => Some(s.clone()),
                _ => return Err(SpecError::new("`cache_dir` must be a string")),
            };
        }
        if let Some(flag) = doc.get("predict_first") {
            spec.predict_first = match flag {
                Json::Bool(b) => *b,
                _ => return Err(SpecError::new("`predict_first` must be a boolean")),
            };
        }
        Ok(spec)
    }

    /// Resolves one program's source: inline if present, the corpus file
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Reports an unreadable corpus file.
    pub fn resolve_source(program: &SpecProgram) -> Result<Arc<str>, SpecError> {
        if let Some(src) = &program.source {
            return Ok(Arc::from(src.as_str()));
        }
        let path = corpus_dir().join(format!("{}.c", program.name));
        std::fs::read_to_string(&path).map(Arc::from).map_err(|e| {
            SpecError::new(format!(
                "program `{}`: reading {} failed: {e}",
                program.name,
                path.display()
            ))
        })
    }

    /// Builds the [`SweepMatrix`] the spec describes: every program ×
    /// scenario as a point named `"{program}/{scenario label}"`, the
    /// point's [`SweepTask::Run`] carrying the full scenario. The caller
    /// attaches the cache (typically from [`SweepSpec::open_cache`]) and
    /// the chip config stays a separate argument — it describes the
    /// simulated machine, not the sweep.
    ///
    /// # Errors
    ///
    /// Rejects an empty program or scenario list, a matrix of more than
    /// [`MAX_POINTS`] points (before any of them is built), a program on
    /// more cores than `config` has (before any source is read),
    /// unresolvable sources, and the retired `predict_first`.
    pub fn to_matrix(&self, config: &SccConfig) -> Result<SweepMatrix, SpecError> {
        if self.predict_first {
            return Err(SpecError::new(
                "`predict_first` was retired in ISSUE 17: every point is simulated, drop the key",
            ));
        }
        if self.programs.is_empty() {
            return Err(SpecError::new("no programs to sweep"));
        }
        if self.scenarios.is_empty() {
            return Err(SpecError::new("no scenarios to sweep"));
        }
        let (programs, scenarios) = (self.programs.len(), self.scenarios.len());
        if programs.saturating_mul(scenarios) > MAX_POINTS {
            return Err(SpecError::new(format!(
                "{programs} programs x {scenarios} scenarios is over the {MAX_POINTS}-point limit"
            )));
        }
        if let Some(program) = self.programs.iter().find(|p| p.cores > config.cores) {
            let refusal = PipelineError::Cores {
                cores: program.cores,
                chip: config.cores,
            };
            return Err(SpecError::new(format!(
                "program `{}`: {refusal}",
                program.name
            )));
        }
        let mut matrix = SweepMatrix::new(config.clone()).workers(self.workers);
        for program in &self.programs {
            let src = Self::resolve_source(program)?;
            for &scenario in &self.scenarios {
                let task = SweepTask::Run(scenario);
                matrix = matrix.point(
                    format!("{}/{}", program.name, task.label()),
                    Arc::clone(&src),
                    task,
                    program.cores,
                );
            }
        }
        Ok(matrix)
    }

    /// Opens the artifact cache the spec asks for: persistent over
    /// `cache_dir` when set, a fresh in-memory cache otherwise.
    ///
    /// # Errors
    ///
    /// Reports store-directory creation failures.
    pub fn open_cache(&self) -> Result<Arc<ArtifactCache>, SpecError> {
        match &self.cache_dir {
            Some(dir) => ArtifactCache::persistent(dir)
                .map_err(|e| SpecError::new(format!("opening cache dir `{dir}` failed: {e}"))),
            None => Ok(ArtifactCache::shared()),
        }
    }

    /// Extracts the spec-owned CLI flags out of `args` (removing each
    /// flag and its value): `--workers N`, `--modes A,B,..`,
    /// `--exec-model NAME`, `--opt-level LEVEL`, `--cache-dir PATH`, and
    /// repeatable `--program NAME:CORES`. Unrelated arguments are left in
    /// place. This replaces the per-flag parsing the `figures` binary used
    /// to duplicate.
    ///
    /// `--modes` rebuilds the scenario list (one scenario per listed mode
    /// label, inheriting the first current scenario's model and level);
    /// `--exec-model`/`--opt-level` then apply to *every* scenario — so
    /// the flags compose in any order and nothing is silently dropped on
    /// the way to the wire.
    ///
    /// # Errors
    ///
    /// Reports missing or unparsable flag values, naming the valid
    /// labels.
    pub fn take_cli_flags(&mut self, args: &mut Vec<String>) -> Result<(), SpecError> {
        if let Some(value) = take_flag(args, "--workers")? {
            self.workers = value
                .parse()
                .map_err(|_| SpecError::new("--workers needs a number"))?;
        }
        if let Some(value) = take_flag(args, "--modes")? {
            let template = self.scenarios.first().copied().unwrap_or_default();
            self.scenarios = value
                .split(',')
                .map(str::trim)
                .filter(|label| !label.is_empty())
                .map(|label| {
                    Mode::parse(label)
                        .map(|mode| template.mode(mode))
                        .ok_or_else(|| {
                            let labels: Vec<&str> = Mode::ALL.iter().map(|m| m.label()).collect();
                            SpecError::new(format!(
                                "--modes needs labels from: {}",
                                labels.join(", ")
                            ))
                        })
                })
                .collect::<Result<_, _>>()?;
            if self.scenarios.is_empty() {
                return Err(SpecError::new("--modes needs at least one mode label"));
            }
        }
        if let Some(value) = take_flag(args, "--exec-model")? {
            let model = ExecModel::parse(&value).ok_or_else(|| {
                let labels: Vec<&str> = ExecModel::ALL.iter().map(|m| m.label()).collect();
                SpecError::new(format!("--exec-model needs one of: {}", labels.join(", ")))
            })?;
            self.scenarios = self.scenarios.iter().map(|s| s.exec_model(model)).collect();
        }
        if let Some(value) = take_flag(args, "--opt-level")? {
            let level = OptLevel::parse(&value).ok_or_else(|| {
                let labels: Vec<&str> = OptLevel::ALL.iter().map(|l| l.label()).collect();
                SpecError::new(format!("--opt-level needs one of: {}", labels.join(", ")))
            })?;
            self.scenarios = self.scenarios.iter().map(|s| s.opt_level(level)).collect();
        }
        if let Some(value) = take_flag(args, "--cache-dir")? {
            self.cache_dir = Some(value);
        }
        while let Some(value) = take_flag(args, "--program")? {
            let (name, cores) = value.split_once(':').ok_or_else(|| {
                SpecError::new("--program needs NAME:CORES (e.g. matrix_vector:4)")
            })?;
            let cores: usize = cores
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| SpecError::new("--program needs a positive core count"))?;
            self.programs.push(SpecProgram::corpus(name, cores));
        }
        Ok(())
    }
}

/// Removes a valueless `flag` from `args`, reporting whether it was
/// present.
pub fn take_bool_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

/// Removes `flag` and its value from `args`, returning the value.
///
/// # Errors
///
/// Reports a flag that is the last argument.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, SpecError> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(SpecError::new(format!("{flag} needs a value")));
    }
    let value = args[i + 1].clone();
    args.drain(i..=i + 1);
    Ok(Some(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SweepSpec {
        SweepSpec {
            programs: vec![
                SpecProgram::corpus("example_4_1", 3),
                SpecProgram::inline("inline_ret", 2, "int main() { return 5; }"),
            ],
            scenarios: vec![
                Scenario::new(Mode::PthreadBaseline).opt_level(OptLevel::O2),
                Scenario::new(Mode::RcceHsm).opt_level(OptLevel::O2),
            ],
            workers: 2,
            cache_dir: Some("/tmp/hsm-store".to_string()),
            predict_first: false,
        }
    }

    #[test]
    fn json_round_trips() {
        let spec = sample();
        let doc = spec.to_json();
        let back = SweepSpec::from_json(&doc).expect("parses");
        assert_eq!(spec, back);
        // And through the textual wire form.
        let wire = doc.render_compact();
        let reparsed = Json::parse(&wire).expect("wire parses");
        assert_eq!(SweepSpec::from_json(&reparsed).expect("spec"), spec);
        // The flat pre-`Scenario` form is rejected, not defaulted.
        for flat in [r#"{"modes": ["hsm"]}"#, r#"{"opt_level": "O2"}"#] {
            let err = SweepSpec::from_json(&Json::parse(flat).expect("parses")).unwrap_err();
            assert!(err.to_string().contains("`scenarios`"), "{flat}: {err}");
        }
    }

    /// Satellite coverage: every Scenario value survives the JSON wire
    /// form unchanged when carried inside a spec document.
    #[test]
    fn every_scenario_round_trips_through_the_wire_form() {
        for mode in Mode::ALL {
            for model in ExecModel::ALL {
                for level in OptLevel::ALL {
                    let spec = SweepSpec {
                        scenarios: vec![Scenario::new(mode).exec_model(model).opt_level(level)],
                        ..SweepSpec::default()
                    };
                    let wire = spec.to_json().render_compact();
                    let back =
                        SweepSpec::from_json(&Json::parse(&wire).expect("wire")).expect("spec");
                    assert_eq!(back.scenarios, spec.scenarios, "{wire}");
                }
            }
        }
    }

    /// The retired field: `false` and an absent key are the same spec
    /// and the key is never emitted; `true` still parses (an old client)
    /// and is refused where the matrix is built.
    #[test]
    fn retired_predict_first_parses_and_is_rejected_when_true() {
        let spec = sample();
        let wire = spec.to_json().render_compact();
        assert!(!wire.contains("predict_first"), "{wire}");
        let explicit = wire.replacen('{', r#"{"predict_first": false, "#, 1);
        for text in [&wire, &explicit] {
            let back = SweepSpec::from_json(&Json::parse(text).expect("wire")).expect("spec");
            assert_eq!(back, spec, "{text}");
        }
        let old = wire.replacen('{', r#"{"predict_first": true, "#, 1);
        let mut old = SweepSpec::from_json(&Json::parse(&old).expect("wire")).expect("spec");
        old.cache_dir = None;
        let err = old.to_matrix(&SccConfig::table_6_1()).unwrap_err();
        assert!(err.to_string().contains("retired in ISSUE 17"), "{err}");
    }

    #[test]
    fn minimal_document_takes_defaults() {
        let doc =
            Json::parse(r#"{"programs": [{"name": "example_4_1", "cores": 3}]}"#).expect("parses");
        let spec = SweepSpec::from_json(&doc).expect("spec");
        assert_eq!(
            spec.scenarios,
            vec![
                Scenario::new(Mode::PthreadBaseline),
                Scenario::new(Mode::RcceHsm),
            ]
        );
        assert_eq!(spec.workers, 0);
        assert_eq!(spec.cache_dir, None);
    }

    #[test]
    fn bad_labels_are_rejected_with_context() {
        let doc = Json::parse(r#"{"scenarios": [{"mode": "warp"}]}"#).expect("parses");
        let err = SweepSpec::from_json(&doc).unwrap_err();
        assert!(err.to_string().contains("unknown mode `warp`"), "{err}");
        let doc =
            Json::parse(r#"{"scenarios": [{"mode": "hsm", "opt_level": "O9"}]}"#).expect("parses");
        let err = SweepSpec::from_json(&doc).unwrap_err();
        assert!(err.to_string().contains("unknown opt level"), "{err}");
    }

    #[test]
    fn matrix_covers_programs_times_modes() {
        let mut spec = sample();
        spec.cache_dir = None;
        let matrix = spec.to_matrix(&SccConfig::table_6_1()).expect("matrix");
        let names: Vec<&str> = matrix.points.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "example_4_1/baseline",
                "example_4_1/hsm",
                "inline_ret/baseline",
                "inline_ret/hsm",
            ]
        );
        assert!(matrix.points.iter().all(|p| {
            let s = p.task.scenario();
            s.opt_level == OptLevel::O2 && s.exec_model == ExecModel::Coherent
        }));
        assert_eq!(matrix.workers, 2);
        // The inline program's source came from the spec, not a file.
        assert!(matrix.points[2].src.contains("return 5"));
    }

    #[test]
    fn empty_spec_is_rejected() {
        let spec = SweepSpec::default();
        let err = spec.to_matrix(&SccConfig::table_6_1()).unwrap_err();
        assert!(err.to_string().contains("no programs"), "{err}");
    }

    #[test]
    fn a_program_on_cores_the_chip_lacks_is_refused_before_its_source_is_read() {
        let config = SccConfig::table_6_1();
        let on = |cores| SweepSpec {
            // No corpus holds it: a spec that got as far as reading sources
            // would say so instead.
            programs: vec![SpecProgram::corpus("no_such_program", cores)],
            scenarios: vec![Scenario::default()],
            ..SweepSpec::default()
        };
        for cores in [49, 1000, usize::MAX] {
            let err = on(cores).to_matrix(&config).unwrap_err().to_string();
            let expected = format!("core count {cores} outside 1..=48");
            assert!(err.contains(&expected), "{err}");
        }
        let err = on(48).to_matrix(&config).unwrap_err().to_string();
        assert!(err.contains("reading"), "the chip has 48: {err}");
        // The bound is the configured chip's, not the SCC's.
        let quad = SccConfig { cores: 4, ..config };
        let err = on(5).to_matrix(&quad).unwrap_err().to_string();
        assert!(err.contains("core count 5 outside 1..=4"), "{err}");
    }

    #[test]
    fn a_matrix_is_capped_before_its_points_are_built() {
        let config = SccConfig::table_6_1();
        let inline = SpecProgram::inline("p", 1, "int main() { return 0; }");
        let at_the_cap = SweepSpec {
            programs: vec![inline; 256],
            scenarios: vec![Scenario::default(); MAX_POINTS / 256],
            ..SweepSpec::default()
        };
        let matrix = at_the_cap.to_matrix(&config).expect("MAX_POINTS fits");
        assert_eq!(matrix.points.len(), MAX_POINTS);
        // One point more, of programs no corpus holds: the size is what is
        // reported, so no program was resolved, let alone a point built.
        let one_over = SweepSpec {
            programs: vec![SpecProgram::corpus("no_such_program", 1); MAX_POINTS + 1],
            scenarios: vec![Scenario::default()],
            ..SweepSpec::default()
        };
        let err = one_over.to_matrix(&config).unwrap_err().to_string();
        assert!(err.contains("over the 65536-point limit"), "{err}");
    }

    #[test]
    fn cli_flags_are_extracted_in_place() {
        let mut spec = SweepSpec::default();
        let mut args: Vec<String> = [
            "fig6.1",
            "--workers",
            "3",
            "--opt-level",
            "O2",
            "--cache-dir",
            "/tmp/store",
            "--json",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        spec.take_cli_flags(&mut args).expect("flags");
        assert_eq!(spec.workers, 3);
        assert!(spec.scenarios.iter().all(|s| s.opt_level == OptLevel::O2));
        assert_eq!(spec.cache_dir.as_deref(), Some("/tmp/store"));
        assert_eq!(args, vec!["fig6.1", "--json"]);
    }

    #[test]
    fn mode_and_axis_flags_compose_over_every_scenario() {
        let mut spec = SweepSpec::default();
        let mut args: Vec<String> = [
            "--modes",
            "hsm,task",
            "--exec-model",
            "non_coherent_wb",
            "--program",
            "matrix_vector:4",
            "--program",
            "task_matrix_vector:4",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        spec.take_cli_flags(&mut args).expect("flags");
        assert!(args.is_empty());
        assert_eq!(
            spec.scenarios,
            vec![
                Scenario::new(Mode::RcceHsm).exec_model(ExecModel::NonCoherentWriteBack),
                Scenario::new(Mode::TaskDataflow).exec_model(ExecModel::NonCoherentWriteBack),
            ]
        );
        assert_eq!(
            spec.programs,
            vec![
                SpecProgram::corpus("matrix_vector", 4),
                SpecProgram::corpus("task_matrix_vector", 4),
            ]
        );
        let mut bad: Vec<String> = ["--modes", "warp"].iter().map(|s| s.to_string()).collect();
        let err = spec.take_cli_flags(&mut bad).unwrap_err();
        assert!(err.to_string().contains("task"), "{err}");
        let mut bad: Vec<String> = ["--program", "nocolon"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = spec.take_cli_flags(&mut bad).unwrap_err();
        assert!(err.to_string().contains("NAME:CORES"), "{err}");
    }

    #[test]
    fn bad_cli_values_name_the_valid_labels() {
        let mut spec = SweepSpec::default();
        let mut args: Vec<String> = ["--exec-model", "quantum"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = spec.take_cli_flags(&mut args).unwrap_err();
        assert!(err.to_string().contains("coherent"), "{err}");
        let mut args: Vec<String> = vec!["--workers".to_string()];
        let err = spec.take_cli_flags(&mut args).unwrap_err();
        assert!(err.to_string().contains("needs a value"), "{err}");
    }
}
