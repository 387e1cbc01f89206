//! `hsm_exec::MODEL_VERSION` and the numbers it versions, pinned
//! together.
//!
//! Run results and profiles are stored on disk keyed by the simulator's
//! version, so a change that moves a simulated cycle count without a
//! bump would let an old store answer for the new simulator. This test
//! is the tripwire: it digests the cycle counts of the whole corpus under
//! every mode and memory model and pins the digest *next to* the version.
//!
//! When it fails because you changed the simulator on purpose: bump
//! `MODEL_VERSION` in `crates/exec/src/lib.rs`, then copy the digest the
//! failure prints into `PINNED`. Never update the digest alone.

use hsm_core::api::{fnv1a_bytes, ExecModel, Mode, Pipeline, Scenario};
use hsm_exec::NullSink;
use std::path::PathBuf;

/// `(MODEL_VERSION, digest)`.
const PINNED: (u32, u64) = (1, 0xd600_faf9_fffc_62fe);

const BARRIER: [Mode; 3] = [Mode::PthreadBaseline, Mode::RcceOffChip, Mode::RcceHsm];

const CORPUS: [(&str, usize, &[Mode]); 11] = [
    ("example_4_1", 3, &BARRIER),
    ("matrix_vector", 4, &BARRIER),
    ("mutex_histogram", 4, &BARRIER),
    ("switch_classifier", 2, &BARRIER),
    ("escaping_local", 4, &BARRIER),
    ("dot_product", 8, &BARRIER),
    ("adversarial/escaping_arg", 2, &[Mode::PthreadBaseline]),
    ("adversarial/unlocked_counter", 2, &[Mode::PthreadBaseline]),
    ("task_matrix_vector", 4, &[Mode::TaskDataflow]),
    ("task_histogram", 4, &[Mode::TaskDataflow]),
    ("task_dot_product", 8, &[Mode::TaskDataflow]),
];

#[test]
fn a_moved_cycle_count_needs_a_version_bump() {
    let mut cycles = Vec::new();
    for (name, cores, modes) in CORPUS {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("corpus")
            .join(format!("{name}.c"));
        let session = Pipeline::new(std::fs::read_to_string(path).expect("corpus")).cores(cores);
        for &mode in modes {
            for model in ExecModel::ALL {
                let run = session
                    .clone()
                    .scenario(Scenario::new(mode).exec_model(model))
                    .run_traced(&mut NullSink)
                    .unwrap_or_else(|e| panic!("{name}/{}: {e}", mode.label()));
                cycles.extend(run.total_cycles.to_le_bytes());
                cycles.extend(run.timed_cycles.to_le_bytes());
                for unit in &run.per_unit_cycles {
                    cycles.extend(unit.to_le_bytes());
                }
            }
        }
    }
    let measured = (hsm_exec::MODEL_VERSION, fnv1a_bytes(&cycles));
    assert_eq!(
        measured, PINNED,
        "\nsimulated cycles and MODEL_VERSION must move together: \
         measured ({}, {:#018x}), pinned ({}, {:#018x}) — see the header of this file",
        measured.0, measured.1, PINNED.0, PINNED.1
    );
}
