//! The `hsmd` wire protocol: line-delimited JSON jobs and responses.
//!
//! One connection carries a sequence of jobs. The client writes one
//! [`Job`] per line ([`encode_job`]); the server answers with one or more
//! [`JobResponse`] lines ([`encode_response`]), each tagged with the
//! job's id so responses interleave safely when a client pipelines jobs.
//! A sweep job streams one [`JobResponse::Row`] per sweep point — in
//! matrix order, as points complete — and closes with
//! [`JobResponse::SweepDone`]; every other job produces exactly one
//! response line.
//!
//! The payloads reuse the crate's own JSON type ([`crate::json::Json`]),
//! so the protocol needs no external dependency and both directions are
//! parsed by the same code the manifests are written with.

use crate::json::{Json, JsonError};
use crate::pipeline::PipelineError;
use crate::scenario::Scenario;
use crate::spec::SweepSpec;
use crate::store::fnv1a_bytes;
use crate::sweep::SweepOutcome;
use hsm_exec::RunResult;
use scc_sim::SccConfig;
use std::fmt;

/// The longest line, in bytes, either end of a connection reads before
/// giving up on it. The largest lines the protocol carries are a `sweep`
/// job with its programs inline and a `translated`/`profile` answer —
/// kilobytes each — so 8 MiB is generous; the cap exists so a peer that
/// never sends a newline costs a typed error, not the process's memory.
pub const MAX_LINE_BYTES: usize = 8 << 20;

/// The largest inline program, in bytes, a job may carry (its own
/// `source`, or one of a sweep spec's). The corpus and the paper
/// workloads are a few kilobytes each; the cap bounds what one job can
/// make every stage of the pipeline chew on.
pub const MAX_PROGRAM_BYTES: usize = 1 << 20;

/// A malformed protocol line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// What was wrong with the line.
    pub message: String,
}

impl ProtocolError {
    fn new(message: impl Into<String>) -> Self {
        ProtocolError {
            message: message.into(),
        }
    }

    /// A line that ran past [`MAX_LINE_BYTES`] without a newline.
    pub(crate) fn line_too_long() -> Self {
        ProtocolError::new(format!("line exceeds {MAX_LINE_BYTES} bytes"))
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol: {}", self.message)
    }
}

impl std::error::Error for ProtocolError {}

impl From<JsonError> for ProtocolError {
    fn from(e: JsonError) -> Self {
        ProtocolError::new(e.to_string())
    }
}

/// One job as submitted by a client.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Client-chosen id echoed on every response to this job.
    pub id: u64,
    /// Per-job deadline in milliseconds; `None` uses the server default.
    pub timeout_ms: Option<u64>,
    /// What to do.
    pub request: JobRequest,
}

/// The operations the job server accepts.
#[derive(Debug, Clone, PartialEq)]
pub enum JobRequest {
    /// Liveness probe; answered with [`JobResponse::Pong`].
    Ping,
    /// Translate one program to RCCE C and return the emitted source.
    Translate {
        /// Program name (labels responses).
        name: String,
        /// The C source.
        source: String,
        /// Participating core count.
        cores: usize,
    },
    /// Run one program under one scenario and return its row.
    Simulate {
        /// Program name (labels the row).
        name: String,
        /// The C source.
        source: String,
        /// Participating core count.
        cores: usize,
        /// The full scenario (mode × memory model × opt level) — the
        /// single serialized currency for axes on the wire.
        scenario: Scenario,
    },
    /// Run a whole sweep, streaming one row per point.
    Sweep {
        /// The sweep description.
        spec: SweepSpec,
    },
    /// Run one program profiled and return its
    /// [`Profile`](hsm_exec::Profile) rendered as `hsmprofile` text. The
    /// profile also lands in the server's artifact cache, so a repeated
    /// `profile` job is a lookup.
    Profile {
        /// Program name (labels the response).
        name: String,
        /// The C source.
        source: String,
        /// Participating core count.
        cores: usize,
        /// The full scenario to profile under.
        scenario: Scenario,
    },
    /// Ask the server to stop accepting connections and exit.
    Shutdown,
}

impl JobRequest {
    /// Refuses a job that asks for more cores than the chip the server
    /// simulates has: asked here, a `"cores": 1000` costs one comparison
    /// instead of a parse, an analysis, a partition, a translation and a
    /// compilation before the simulator says the same.
    ///
    /// # Errors
    ///
    /// Names the job, the count asked for and the chip's.
    pub(crate) fn check_cores(&self, config: &SccConfig) -> Result<(), ProtocolError> {
        let most = match self {
            JobRequest::Translate { cores, .. }
            | JobRequest::Simulate { cores, .. }
            | JobRequest::Profile { cores, .. } => *cores,
            JobRequest::Sweep { spec } => spec.programs.iter().map(|p| p.cores).max().unwrap_or(0),
            JobRequest::Ping | JobRequest::Shutdown => 0,
        };
        if most > config.cores {
            let refusal = PipelineError::Cores {
                cores: most,
                chip: config.cores,
            };
            return Err(ProtocolError::new(format!(
                "`{}` job: {refusal}",
                self.op()
            )));
        }
        Ok(())
    }

    /// The operation's wire name.
    pub fn op(&self) -> &'static str {
        match self {
            JobRequest::Ping => "ping",
            JobRequest::Translate { .. } => "translate",
            JobRequest::Simulate { .. } => "simulate",
            JobRequest::Sweep { .. } => "sweep",
            JobRequest::Profile { .. } => "profile",
            JobRequest::Shutdown => "shutdown",
        }
    }
}

/// One executed sweep point as streamed to a client: the deterministic
/// fields of the run (or its error), never host timings — two clients
/// sweeping the same spec receive byte-identical rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepRow {
    /// The point's name (`"{program}/{mode label}"`).
    pub name: String,
    /// The task label (`"baseline"`, `"offchip"`, `"hsm"`, …).
    pub task: String,
    /// Core count the point ran at.
    pub cores: u64,
    /// Memory model label.
    pub exec_model: String,
    /// Optimization level label.
    pub opt_level: String,
    /// The run's exit code (absent on error).
    pub exit_code: Option<i64>,
    /// Simulated cycles between `timer_start`/`timer_stop` (absent on
    /// error).
    pub timed_cycles: Option<u64>,
    /// Total simulated cycles (absent on error).
    pub total_cycles: Option<u64>,
    /// Dynamically retired instructions (absent on error).
    pub instructions: Option<u64>,
    /// FNV-1a hash of the sorted program output (absent on error).
    pub output_fnv: Option<u64>,
    /// The pipeline error, when the point failed.
    pub error: Option<String>,
}

impl SweepRow {
    /// The deterministic output fingerprint rows carry.
    pub fn output_hash(result: &RunResult) -> u64 {
        fnv1a_bytes(result.output_sorted().join("\n").as_bytes())
    }

    /// Builds the row of one completed sweep point. The axis labels come
    /// from the scenario the point's task carries — nothing is
    /// re-supplied (or silently defaulted) at the call site.
    pub fn from_outcome(outcome: &SweepOutcome) -> Self {
        let scenario = outcome.task.scenario();
        let mut row = SweepRow {
            name: outcome.name.clone(),
            task: outcome.task.label().to_string(),
            cores: outcome.cores as u64,
            exec_model: scenario.exec_model.label().to_string(),
            opt_level: scenario.opt_level.label().to_string(),
            exit_code: None,
            timed_cycles: None,
            total_cycles: None,
            instructions: None,
            output_fnv: None,
            error: None,
        };
        match &outcome.result {
            Ok(payload) => {
                if let Some(r) = payload.run_result() {
                    row.exit_code = Some(r.exit_code);
                    row.timed_cycles = Some(r.timed_cycles);
                    row.total_cycles = Some(r.total_cycles);
                    row.instructions = Some(r.instructions);
                    row.output_fnv = Some(Self::output_hash(r));
                }
            }
            Err(e) => row.error = Some(e.to_string()),
        }
        row
    }

    /// The row as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name", Json::Str(self.name.clone())),
            ("task", Json::Str(self.task.clone())),
            ("cores", Json::UInt(self.cores)),
            ("exec_model", Json::Str(self.exec_model.clone())),
            ("opt_level", Json::Str(self.opt_level.clone())),
        ];
        if let Some(v) = self.exit_code {
            pairs.push(("exit_code", Json::Int(v)));
        }
        if let Some(v) = self.timed_cycles {
            pairs.push(("timed_cycles", Json::UInt(v)));
        }
        if let Some(v) = self.total_cycles {
            pairs.push(("total_cycles", Json::UInt(v)));
        }
        if let Some(v) = self.instructions {
            pairs.push(("instructions", Json::UInt(v)));
        }
        if let Some(v) = self.output_fnv {
            pairs.push(("output_fnv", Json::UInt(v)));
        }
        if let Some(e) = &self.error {
            pairs.push(("error", Json::Str(e.clone())));
        }
        Json::obj(pairs)
    }

    /// Parses a row object.
    ///
    /// # Errors
    ///
    /// Rejects objects missing the required identity fields, and rows
    /// from a pre-ISSUE-17 server that still carry a `predicted` block (a
    /// predicted-only row has neither numbers nor an error to show).
    pub(crate) fn from_json(doc: &Json) -> Result<Self, ProtocolError> {
        if doc.get("predicted").is_some() {
            return Err(ProtocolError::new(
                "row carries `predicted`: predict-first was retired in ISSUE 17, upgrade the server",
            ));
        }
        let field_str = |key: &str| match doc.get(key) {
            Some(Json::Str(s)) => Ok(s.clone()),
            _ => Err(ProtocolError::new(format!("row missing `{key}`"))),
        };
        Ok(SweepRow {
            name: field_str("name")?,
            task: field_str("task")?,
            cores: doc
                .get("cores")
                .and_then(Json::as_u64)
                .ok_or_else(|| ProtocolError::new("row missing `cores`"))?,
            exec_model: field_str("exec_model")?,
            opt_level: field_str("opt_level")?,
            exit_code: doc.get("exit_code").and_then(Json::as_i64),
            timed_cycles: doc.get("timed_cycles").and_then(Json::as_u64),
            total_cycles: doc.get("total_cycles").and_then(Json::as_u64),
            instructions: doc.get("instructions").and_then(Json::as_u64),
            output_fnv: doc.get("output_fnv").and_then(Json::as_u64),
            error: match doc.get("error") {
                Some(Json::Str(s)) => Some(s.clone()),
                _ => None,
            },
        })
    }
}

/// One server response line.
#[derive(Debug, Clone, PartialEq)]
pub enum JobResponse {
    /// Answer to [`JobRequest::Ping`].
    Pong,
    /// Answer to [`JobRequest::Translate`]: the emitted RCCE source.
    Translated {
        /// The program's name.
        name: String,
        /// The translated source.
        source: String,
    },
    /// One streamed sweep point (also the single answer to
    /// [`JobRequest::Simulate`]).
    Row(SweepRow),
    /// A sweep finished; `rows` rows were streamed before this.
    SweepDone {
        /// Number of rows streamed.
        rows: u64,
    },
    /// Answer to [`JobRequest::Profile`]: the run's serialized profile.
    Profile {
        /// The program's name.
        name: String,
        /// The profile rendered by [`hsm_exec::Profile::to_text`]: the
        /// deterministic `hsmprofile` text, for reading, not parsing.
        profile: String,
    },
    /// The job failed (malformed request, pipeline failure, timeout).
    Error {
        /// Human-readable cause.
        message: String,
    },
    /// Answer to [`JobRequest::Shutdown`], sent before the server exits.
    ShuttingDown,
}

impl JobResponse {
    /// The response's wire kind.
    pub fn kind(&self) -> &'static str {
        match self {
            JobResponse::Pong => "pong",
            JobResponse::Translated { .. } => "translated",
            JobResponse::Row(_) => "row",
            JobResponse::SweepDone { .. } => "sweep_done",
            JobResponse::Profile { .. } => "profile",
            JobResponse::Error { .. } => "error",
            JobResponse::ShuttingDown => "shutting_down",
        }
    }
}

/// Encodes a job as one protocol line (no trailing newline).
pub fn encode_job(job: &Job) -> String {
    let mut pairs = vec![("id", Json::UInt(job.id))];
    if let Some(t) = job.timeout_ms {
        pairs.push(("timeout_ms", Json::UInt(t)));
    }
    pairs.push(("op", Json::str(job.request.op())));
    match &job.request {
        JobRequest::Ping | JobRequest::Shutdown => {}
        JobRequest::Translate {
            name,
            source,
            cores,
        } => {
            pairs.push(("name", Json::Str(name.clone())));
            pairs.push(("source", Json::Str(source.clone())));
            pairs.push(("cores", Json::UInt(*cores as u64)));
        }
        JobRequest::Simulate {
            name,
            source,
            cores,
            scenario,
        } => {
            pairs.push(("name", Json::Str(name.clone())));
            pairs.push(("source", Json::Str(source.clone())));
            pairs.push(("cores", Json::UInt(*cores as u64)));
            pairs.push(("scenario", scenario.to_json()));
        }
        JobRequest::Sweep { spec } => {
            pairs.push(("spec", spec.to_json()));
        }
        JobRequest::Profile {
            name,
            source,
            cores,
            scenario,
        } => {
            pairs.push(("name", Json::Str(name.clone())));
            pairs.push(("source", Json::Str(source.clone())));
            pairs.push(("cores", Json::UInt(*cores as u64)));
            pairs.push(("scenario", scenario.to_json()));
        }
    }
    Json::obj(pairs).render_compact()
}

/// Parses one job line.
///
/// # Errors
///
/// Rejects malformed JSON, unknown ops and missing fields.
pub(crate) fn parse_job(line: &str) -> Result<Job, ProtocolError> {
    let doc = Json::parse(line)?;
    let id = doc
        .get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| ProtocolError::new("job missing `id`"))?;
    let timeout_ms = doc.get("timeout_ms").and_then(Json::as_u64);
    let op = match doc.get("op") {
        Some(Json::Str(s)) => s.as_str(),
        _ => return Err(ProtocolError::new("job missing `op`")),
    };
    let field_str = |key: &str| match doc.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        _ => Err(ProtocolError::new(format!("`{op}` job missing `{key}`"))),
    };
    let program_fits = |what: &str, source: &str| {
        if source.len() > MAX_PROGRAM_BYTES {
            return Err(ProtocolError::new(format!(
                "`{op}` job: {what} is {} bytes, over the {MAX_PROGRAM_BYTES}-byte limit",
                source.len()
            )));
        }
        Ok(())
    };
    let field_source = || {
        let source = field_str("source")?;
        program_fits("`source`", &source)?;
        Ok::<_, ProtocolError>(source)
    };
    let field_cores = || {
        doc.get("cores")
            .and_then(Json::as_u64)
            .filter(|&n| n > 0)
            .map(|n| n as usize)
            .ok_or_else(|| ProtocolError::new(format!("`{op}` job needs a positive `cores`")))
    };
    // Axes travel in the nested `scenario` object only; a flat
    // pre-`Scenario` axis field is an error, never a silent default.
    let field_scenario = || {
        for flat in ["mode", "exec_model", "opt_level"] {
            if doc.get(flat).is_some() {
                return Err(ProtocolError::new(format!(
                    "`{op}` job: `{flat}` belongs inside the `scenario` object"
                )));
            }
        }
        doc.get("scenario")
            .map(|nested| {
                Scenario::from_json(nested).map_err(|e| ProtocolError::new(e.to_string()))
            })
            .transpose()
    };
    let request = match op {
        "ping" => JobRequest::Ping,
        "shutdown" => JobRequest::Shutdown,
        "translate" => JobRequest::Translate {
            name: field_str("name")?,
            source: field_source()?,
            cores: field_cores()?,
        },
        "simulate" => {
            let scenario = field_scenario()?
                .ok_or_else(|| ProtocolError::new("`simulate` job missing `scenario`"))?;
            JobRequest::Simulate {
                name: field_str("name")?,
                source: field_source()?,
                cores: field_cores()?,
                scenario,
            }
        }
        "sweep" => {
            let spec = doc
                .get("spec")
                .ok_or_else(|| ProtocolError::new("`sweep` job missing `spec`"))?;
            let spec = SweepSpec::from_json(spec).map_err(|e| ProtocolError::new(e.to_string()))?;
            for program in &spec.programs {
                if let Some(source) = &program.source {
                    program_fits(&format!("program `{}`", program.name), source)?;
                }
            }
            JobRequest::Sweep { spec }
        }
        "profile" => {
            let scenario = field_scenario()?.unwrap_or_default();
            JobRequest::Profile {
                name: field_str("name")?,
                source: field_source()?,
                cores: field_cores()?,
                scenario,
            }
        }
        other => return Err(ProtocolError::new(format!("unknown op `{other}`"))),
    };
    Ok(Job {
        id,
        timeout_ms,
        request,
    })
}

/// Encodes a response to job `id` as one protocol line (no trailing
/// newline).
pub(crate) fn encode_response(id: u64, response: &JobResponse) -> String {
    let mut pairs = vec![("id", Json::UInt(id)), ("kind", Json::str(response.kind()))];
    match response {
        JobResponse::Pong | JobResponse::ShuttingDown => {}
        JobResponse::Translated { name, source } => {
            pairs.push(("name", Json::Str(name.clone())));
            pairs.push(("source", Json::Str(source.clone())));
        }
        JobResponse::Row(row) => pairs.push(("row", row.to_json())),
        JobResponse::SweepDone { rows } => pairs.push(("rows", Json::UInt(*rows))),
        JobResponse::Profile { name, profile } => {
            pairs.push(("name", Json::Str(name.clone())));
            pairs.push(("profile", Json::Str(profile.clone())));
        }
        JobResponse::Error { message } => pairs.push(("message", Json::Str(message.clone()))),
    }
    Json::obj(pairs).render_compact()
}

/// Parses one response line into the job id it answers and the response.
///
/// # Errors
///
/// Rejects malformed JSON, unknown kinds and missing fields.
pub fn parse_response(line: &str) -> Result<(u64, JobResponse), ProtocolError> {
    let doc = Json::parse(line)?;
    let id = doc
        .get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| ProtocolError::new("response missing `id`"))?;
    let kind = match doc.get("kind") {
        Some(Json::Str(s)) => s.as_str(),
        _ => return Err(ProtocolError::new("response missing `kind`")),
    };
    let field_str = |key: &str| match doc.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        _ => Err(ProtocolError::new(format!(
            "`{kind}` response missing `{key}`"
        ))),
    };
    let response = match kind {
        "pong" => JobResponse::Pong,
        "shutting_down" => JobResponse::ShuttingDown,
        "translated" => JobResponse::Translated {
            name: field_str("name")?,
            source: field_str("source")?,
        },
        "row" => {
            let row = doc
                .get("row")
                .ok_or_else(|| ProtocolError::new("`row` response missing `row`"))?;
            JobResponse::Row(SweepRow::from_json(row)?)
        }
        "sweep_done" => JobResponse::SweepDone {
            rows: doc
                .get("rows")
                .and_then(Json::as_u64)
                .ok_or_else(|| ProtocolError::new("`sweep_done` response missing `rows`"))?,
        },
        "profile" => JobResponse::Profile {
            name: field_str("name")?,
            profile: field_str("profile")?,
        },
        "error" => JobResponse::Error {
            message: field_str("message")?,
        },
        other => return Err(ProtocolError::new(format!("unknown kind `{other}`"))),
    };
    Ok((id, response))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Mode;
    use crate::spec::SpecProgram;
    use hsm_exec::ExecModel;
    use hsm_vm::OptLevel;

    #[test]
    fn a_job_on_cores_the_chip_lacks_is_refused_by_name() {
        let chip = SccConfig::table_6_1();
        let translate = |cores: u64| {
            let line = format!(
                r#"{{"id": 4, "op": "translate", "name": "p", "source": "int main() {{ return 0; }}", "cores": {cores}}}"#
            );
            parse_job(&line).expect("parses").request
        };
        assert_eq!(translate(48).check_cores(&chip), Ok(()));
        let err = translate(1000).check_cores(&chip).unwrap_err().to_string();
        assert_eq!(
            err,
            "protocol: `translate` job: core count 1000 outside 1..=48, the cores of the chip"
        );
        // The widest program of a sweep decides, and the chip is the
        // server's, not the SCC.
        let sweep = JobRequest::Sweep {
            spec: SweepSpec {
                programs: vec![
                    SpecProgram::corpus("example_4_1", 3),
                    SpecProgram::corpus("dot_product", 49),
                ],
                ..SweepSpec::default()
            },
        };
        let err = sweep.check_cores(&chip).unwrap_err().to_string();
        assert!(
            err.contains("`sweep` job: core count 49 outside 1..=48"),
            "{err}"
        );
        let quad = SccConfig { cores: 2, ..chip };
        assert!(sweep
            .check_cores(&quad)
            .unwrap_err()
            .message
            .contains("1..=2"));
        assert_eq!(JobRequest::Ping.check_cores(&quad), Ok(()));
    }

    #[test]
    fn jobs_round_trip_through_the_wire_form() {
        let jobs = vec![
            Job {
                id: 1,
                timeout_ms: None,
                request: JobRequest::Ping,
            },
            Job {
                id: 2,
                timeout_ms: Some(5_000),
                request: JobRequest::Translate {
                    name: "tiny".to_string(),
                    source: "int main() { return 0; }".to_string(),
                    cores: 4,
                },
            },
            Job {
                id: 3,
                timeout_ms: Some(60_000),
                request: JobRequest::Sweep {
                    spec: SweepSpec {
                        programs: vec![SpecProgram::corpus("example_4_1", 3)],
                        ..SweepSpec::default()
                    },
                },
            },
            Job {
                id: 4,
                timeout_ms: None,
                request: JobRequest::Simulate {
                    name: "tiny".to_string(),
                    source: "int main() { return 1; }".to_string(),
                    cores: 2,
                    scenario: Scenario::new(Mode::RcceHsm).opt_level(OptLevel::O1),
                },
            },
            Job {
                id: 6,
                timeout_ms: None,
                request: JobRequest::Simulate {
                    name: "task".to_string(),
                    source: "int main() { task_wait_all(); return 0; }".to_string(),
                    cores: 4,
                    scenario: Scenario::new(Mode::TaskDataflow)
                        .exec_model(ExecModel::NonCoherentWriteBack),
                },
            },
            Job {
                id: 7,
                timeout_ms: Some(10_000),
                request: JobRequest::Profile {
                    name: "dot".to_string(),
                    source: "int main() { return 0; }".to_string(),
                    cores: 2,
                    scenario: Scenario::new(Mode::RcceHsm),
                },
            },
            Job {
                id: 5,
                timeout_ms: None,
                request: JobRequest::Shutdown,
            },
        ];
        for job in jobs {
            let line = encode_job(&job);
            assert!(!line.contains('\n'), "one line per job: {line}");
            let back = parse_job(&line).expect("parses");
            assert_eq!(job, back);
        }
    }

    #[test]
    fn responses_round_trip_through_the_wire_form() {
        let row = SweepRow {
            name: "example_4_1/hsm".to_string(),
            task: "hsm".to_string(),
            cores: 3,
            exec_model: "coherent".to_string(),
            opt_level: "O0".to_string(),
            exit_code: Some(24),
            timed_cycles: Some(123_456),
            total_cycles: Some(234_567),
            instructions: Some(99_000),
            output_fnv: Some(0xdead_beef),
            error: None,
        };
        let responses = vec![
            JobResponse::Pong,
            JobResponse::Translated {
                name: "tiny".to_string(),
                source: "RCCE_APP(int argc, char **argv) { return 0; }".to_string(),
            },
            JobResponse::Row(row),
            JobResponse::SweepDone { rows: 4 },
            JobResponse::Profile {
                name: "dot".to_string(),
                profile: "hsmprofile 1\nrun 1 10 10 5 0\n".to_string(),
            },
            JobResponse::Error {
                message: "parse stage: unexpected token".to_string(),
            },
            JobResponse::ShuttingDown,
        ];
        for response in responses {
            let line = encode_response(9, &response);
            assert!(!line.contains('\n'), "one line per response: {line}");
            let (id, back) = parse_response(&line).expect("parses");
            assert_eq!(id, 9);
            assert_eq!(response, back);
        }
    }

    #[test]
    fn failed_row_carries_the_error_instead_of_numbers() {
        let row = SweepRow {
            name: "bad/hsm".to_string(),
            task: "hsm".to_string(),
            cores: 2,
            exec_model: "coherent".to_string(),
            opt_level: "O0".to_string(),
            exit_code: None,
            timed_cycles: None,
            total_cycles: None,
            instructions: None,
            output_fnv: None,
            error: Some("parse stage: unexpected `{`".to_string()),
        };
        let line = encode_response(1, &JobResponse::Row(row.clone()));
        let (_, back) = parse_response(&line).expect("parses");
        assert_eq!(back, JobResponse::Row(row));
    }

    /// A row from a pre-ISSUE-17 server: rejected, never shown as a row
    /// with no numbers.
    #[test]
    fn a_row_with_a_predicted_block_is_rejected() {
        let old = r#"{"id": 3, "kind": "row", "row": {"name": "dot@8/hsm", "task": "hsm",
            "cores": 8, "exec_model": "coherent", "opt_level": "O0",
            "predicted": {"predicted_cycles": 654321, "seed_cores": 2}}}"#;
        let err = parse_response(old).unwrap_err();
        assert!(err.to_string().contains("retired in ISSUE 17"), "{err}");
    }

    #[test]
    fn malformed_lines_are_rejected_with_context() {
        assert!(parse_job("not json").is_err());
        let err = parse_job(r#"{"id": 1, "op": "warp"}"#).unwrap_err();
        assert!(err.to_string().contains("unknown op `warp`"), "{err}");
        let err = parse_job(r#"{"op": "ping"}"#).unwrap_err();
        assert!(err.to_string().contains("missing `id`"), "{err}");
        let err = parse_response(r#"{"id": 1, "kind": "???"}"#).unwrap_err();
        assert!(err.to_string().contains("unknown kind"), "{err}");
        // The flat pre-`Scenario` job form is rejected, not defaulted.
        let flat = r#"{"id": 7, "op": "simulate", "name": "tiny",
            "source": "int main() { return 1; }", "cores": 2, "mode": "hsm"}"#;
        let err = parse_job(flat).unwrap_err();
        assert!(err.to_string().contains("`scenario`"), "{err}");
    }
}
