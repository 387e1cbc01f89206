//! The unified `Scenario` axis type.
//!
//! A [`Scenario`] names everything that selects *how* one program runs —
//! the execution [`Mode`] (pthread baseline, barrier-synchronized RCCE
//! off-chip or HSM, or the task-dataflow runtime), the memory model
//! ([`ExecModel`]) and the bytecode optimization level ([`OptLevel`]) —
//! as one typed value. Every consumer of those axes constructs and
//! consumes a `Scenario`: [`Pipeline::scenario`](crate::Pipeline::scenario)
//! configures a session from one, [`SweepTask::Run`](crate::sweep::SweepTask)
//! carries one per sweep point, [`SweepSpec`](crate::spec::SweepSpec)
//! serializes a list of them, and the `hsmd` protocol ships one inside
//! every `simulate` job. The old per-axis setters (one `#[deprecated]`
//! delegating wrapper per axis during the PR 9 migration) are gone;
//! DESIGN.md §13 keeps the migration table.

use crate::json::Json;
use crate::spec::SpecError;
use hsm_exec::ExecModel;
use hsm_partition::Policy;
use hsm_vm::OptLevel;

/// The evaluated configurations: the paper's three (baseline, off-chip
/// RCCE, HSM RCCE) plus the task-dataflow runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// 32 threads on one core (the Figure 6.1 denominator).
    PthreadBaseline,
    /// Converted program, shared data forced off-chip (Figure 6.1).
    RcceOffChip,
    /// Converted program with Algorithm 3 MPB placement (Figure 6.2).
    RcceHsm,
    /// Task-annotated program under the dependence-tracking task
    /// scheduler (`task_spawn`/`task_wait_all`; BDDT-SCC style). Runs the
    /// source directly — no pthread→RCCE translation stage.
    TaskDataflow,
}

impl Mode {
    /// All modes, in the canonical baseline/offchip/hsm/task order.
    pub const ALL: [Mode; 4] = [
        Mode::PthreadBaseline,
        Mode::RcceOffChip,
        Mode::RcceHsm,
        Mode::TaskDataflow,
    ];

    /// The placement policy the mode implies (the baseline and the task
    /// runtime never partition; they report the HSM default).
    pub fn policy(self) -> Policy {
        match self {
            Mode::RcceOffChip => Policy::OffChipOnly,
            Mode::PthreadBaseline | Mode::RcceHsm | Mode::TaskDataflow => Policy::SizeAscending,
        }
    }

    /// The stable wire/CLI spelling (`"baseline"`, `"offchip"`, `"hsm"`,
    /// `"task"`) used by sweep specs and the `hsmd` protocol.
    pub fn label(self) -> &'static str {
        match self {
            Mode::PthreadBaseline => "baseline",
            Mode::RcceOffChip => "offchip",
            Mode::RcceHsm => "hsm",
            Mode::TaskDataflow => "task",
        }
    }

    /// Inverse of [`Mode::label`].
    pub fn parse(label: &str) -> Option<Mode> {
        Mode::ALL.into_iter().find(|m| m.label() == label)
    }
}

/// One point of the axis space: program-independent selection of *how* a
/// run executes. `Copy`, totally ordered by construction of its parts,
/// and the single serialized currency for axes on the `hsmd` wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scenario {
    /// The execution mode (which runtime the program goes through).
    pub mode: Mode,
    /// The memory model the run executes under.
    pub exec_model: ExecModel,
    /// The bytecode optimization level the program compiles at.
    pub opt_level: OptLevel,
}

impl Default for Scenario {
    /// The evaluation default: the HSM configuration under the coherent
    /// ground-truth model at `O0` — what a freshly built
    /// [`Pipeline`](crate::api::Pipeline) runs.
    fn default() -> Self {
        Scenario::new(Mode::RcceHsm)
    }
}

impl From<Mode> for Scenario {
    fn from(mode: Mode) -> Self {
        Scenario::new(mode)
    }
}

impl Scenario {
    /// A scenario in `mode` with the default axes (coherent, `O0`).
    pub fn new(mode: Mode) -> Self {
        Scenario {
            mode,
            exec_model: ExecModel::Coherent,
            opt_level: OptLevel::O0,
        }
    }

    /// Replaces the execution mode.
    #[must_use]
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Replaces the memory model.
    #[must_use]
    pub fn exec_model(mut self, model: ExecModel) -> Self {
        self.exec_model = model;
        self
    }

    /// Replaces the optimization level.
    #[must_use]
    pub fn opt_level(mut self, level: OptLevel) -> Self {
        self.opt_level = level;
        self
    }

    /// The stable point/row label (the mode's label — scenarios differing
    /// only in model or level share it, like the manifests always have).
    pub fn label(self) -> &'static str {
        self.mode.label()
    }

    /// The scenario as a JSON object — the wire form embedded in sweep
    /// specs and `simulate` jobs.
    pub fn to_json(self) -> Json {
        Json::obj(vec![
            ("mode", Json::str(self.mode.label())),
            ("exec_model", Json::str(self.exec_model.label())),
            ("opt_level", Json::str(self.opt_level.label())),
        ])
    }

    /// Parses the wire form. Missing `exec_model`/`opt_level` fields take
    /// their defaults; `mode` is required.
    ///
    /// # Errors
    ///
    /// Rejects unknown labels and a missing `mode`.
    pub(crate) fn from_json(doc: &Json) -> Result<Self, SpecError> {
        let mode = match doc.get("mode") {
            Some(Json::Str(label)) => Mode::parse(label)
                .ok_or_else(|| SpecError::new(format!("unknown mode `{label}`")))?,
            _ => return Err(SpecError::new("scenario missing a `mode` string")),
        };
        let mut scenario = Scenario::new(mode);
        if let Some(model) = doc.get("exec_model") {
            scenario.exec_model = match model {
                Json::Str(label) => ExecModel::parse(label)
                    .ok_or_else(|| SpecError::new(format!("unknown exec model `{label}`")))?,
                _ => return Err(SpecError::new("scenario `exec_model` must be a string")),
            };
        }
        if let Some(level) = doc.get("opt_level") {
            scenario.opt_level = match level {
                Json::Str(label) => OptLevel::parse(label)
                    .ok_or_else(|| SpecError::new(format!("unknown opt level `{label}`")))?,
                _ => return Err(SpecError::new("scenario `opt_level` must be a string")),
            };
        }
        Ok(scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_for_all_modes() {
        for mode in Mode::ALL {
            assert_eq!(Mode::parse(mode.label()), Some(mode));
        }
        assert_eq!(Mode::parse("warp"), None);
        assert_eq!(Mode::TaskDataflow.label(), "task");
    }

    #[test]
    fn scenario_json_round_trips() {
        let s = Scenario::new(Mode::TaskDataflow)
            .exec_model(ExecModel::NonCoherentWriteBack)
            .opt_level(OptLevel::O2);
        let back = Scenario::from_json(&s.to_json()).expect("parses");
        assert_eq!(s, back);
    }

    #[test]
    fn missing_axes_take_defaults() {
        let doc = Json::parse(r#"{"mode": "hsm"}"#).expect("parses");
        let s = Scenario::from_json(&doc).expect("scenario");
        assert_eq!(s, Scenario::default());
        let err = Scenario::from_json(&Json::parse("{}").expect("parses")).unwrap_err();
        assert!(err.to_string().contains("mode"), "{err}");
    }
}
