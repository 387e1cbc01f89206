//! The sharing referee for translations: the dynamic sharing oracle
//! (`Pipeline::check_sharing`) must find nothing in a program's HSM
//! translation that it does not find in the program itself. A translation
//! whose serial code runs on every core, say, races where its source ran
//! that code once.

use hsm_core::api::{Mode, Pipeline};
use std::collections::BTreeSet;

/// Runs the oracle on `src` as pthreads and on its HSM translation at 4
/// cores. `Err` lists each violation of the translation whose class and
/// variable the source's run does not show, with the core that made it.
///
/// # Panics
///
/// When either run fails: a program handed to the referee translates and
/// completes.
pub fn sharing_referee(src: &str) -> Result<(), String> {
    let session = Pipeline::new(src).cores(4);
    let report = |mode: Mode| {
        session
            .clone()
            .scenario(mode.into())
            .check_sharing()
            .unwrap_or_else(|e| panic!("check_sharing under {mode:?}: {e}"))
            .report
    };
    let source: BTreeSet<_> = report(Mode::PthreadBaseline)
        .violations
        .into_iter()
        .map(|v| (v.class, v.variable))
        .collect();
    let added: Vec<String> = report(Mode::RcceHsm)
        .violations
        .into_iter()
        .filter(|v| !source.contains(&(v.class, v.variable.clone())))
        .map(|v| {
            let at = v
                .variable
                .map_or_else(|| format!("{:#x}", v.addr), |name| format!("`{name}`"));
            format!("{} on {at} by core {}", v.class.label(), v.unit)
        })
        .collect();
    if added.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "the translation adds sharing violations: {}",
            added.join(", ")
        ))
    }
}
