//! How Stage 5 runs its passes. The paper builds them on CETUS's
//! `TransformPass` / `Driver` classes (§5.3); none of them keeps state, so
//! here a pass is a plain function ([`Pass`]) and the pipeline an ordered
//! list of them.
//!
//! [`run`] executes the passes in series and checks the result once: the
//! IR the last pass leaves must print to text that re-parses (the
//! self-consistency guarantee the paper attributes to the CETUS base
//! classes, which check after every pass). Only when that check fails does
//! it replay the pipeline with the check after every pass, to name the
//! first pass that broke the IR.

use crate::error::TranslateError;
use hsm_analysis::ProgramAnalysis;
use hsm_cir::{parse, print_unit, TranslationUnit};
use hsm_partition::PartitionPlan;

/// What every pass is handed: the unit it rewrites and the inputs it reads.
#[derive(Debug)]
pub(crate) struct PassContext<'a> {
    /// The unit being rewritten (mutated in place by passes).
    pub unit: TranslationUnit,
    /// Stages 1–3 results for the *original* program.
    pub analysis: &'a ProgramAnalysis,
    /// Stage 4 placement decisions.
    pub plan: &'a PartitionPlan,
    /// Options controlling the translation.
    pub options: crate::TranslateOptions,
}

/// One Stage 5 pass: a transformation over the IR in [`PassContext`].
///
/// A pass must be re-runnable: when the pipeline's output fails its
/// consistency check, [`run`] runs every pass a second time over a fresh
/// [`PassContext`], so a pass may depend only on the context it is handed.
///
/// A pass returns a [`TranslateError`] when the input program uses
/// constructs it cannot translate.
pub(crate) type Pass = fn(&mut PassContext<'_>) -> Result<(), TranslateError>;

/// Runs `passes` in order, then prints the unit once and re-parses that
/// text once; the checked text is returned, so no caller has to print the
/// unit again. `original` is the unit `ctx` held on entry.
///
/// A final IR that fails to re-parse means a pass corrupted it. The
/// passes are then replayed over a context rebuilt from a copy of
/// `original`, with the check after every pass, and the
/// pipeline aborts with an internal error naming the first pass whose
/// output does not re-parse. An intermediate IR that a later pass repairs
/// is not an error.
///
/// # Errors
///
/// Propagates pass errors and reports IR corruption.
pub(crate) fn run(
    passes: &[(&'static str, Pass)],
    ctx: &mut PassContext<'_>,
    original: &TranslationUnit,
) -> Result<String, TranslateError> {
    for (_, pass) in passes {
        pass(ctx)?;
    }
    let printed = print_unit(&ctx.unit);
    let Err(final_error) = parse(&printed) else {
        return Ok(printed);
    };
    let mut replay = PassContext {
        unit: original.clone(),
        options: ctx.options.clone(),
        ..*ctx
    };
    for (name, pass) in passes {
        pass(&mut replay)?;
        if let Err(e) = parse(&print_unit(&replay.unit)) {
            return Err(TranslateError::internal(format!(
                "pass `{name}` produced an inconsistent IR: {e}"
            )));
        }
    }
    // Only a pass that is not re-runnable gets here.
    Err(TranslateError::internal(format!(
        "the pass pipeline produced an inconsistent IR: {final_error}"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsm_partition::{MemorySpec, Policy};

    /// Renames function `from` to `to`.
    fn rename(ctx: &mut PassContext<'_>, from: &str, to: &str) -> Result<(), TranslateError> {
        if let Some(f) = ctx.unit.function_mut(from) {
            f.name = to.to_string();
        }
        Ok(())
    }

    const RENAMER: (&str, Pass) = ("renamer", |ctx| rename(ctx, "main", "entry"));

    // An identifier with a space cannot re-lex: corruption.
    const CORRUPTOR: (&str, Pass) = ("corruptor", |ctx| rename(ctx, "entry", "bad name"));

    fn ctx_fixture(src: &str) -> (ProgramAnalysis, PartitionPlan, TranslationUnit) {
        let tu = parse(src).unwrap();
        let analysis = ProgramAnalysis::analyze(&tu);
        let vars = hsm_partition::shared_vars_from_analysis(&analysis);
        let plan = hsm_partition::partition(&vars, &MemorySpec::scc(32), Policy::SizeAscending);
        (analysis, plan, tu)
    }

    /// The context `translate` would start from.
    fn context<'a>(
        tu: &TranslationUnit,
        analysis: &'a ProgramAnalysis,
        plan: &'a PartitionPlan,
    ) -> PassContext<'a> {
        PassContext {
            unit: tu.clone(),
            analysis,
            plan,
            options: Default::default(),
        }
    }

    #[test]
    fn driver_runs_passes_in_order() {
        let (analysis, plan, tu) = ctx_fixture("int main() { return 0; }");
        let mut ctx = context(&tu, &analysis, &plan);
        run(&[RENAMER], &mut ctx, &tu).expect("pipeline");
        assert!(ctx.unit.function("entry").is_some());
    }

    #[test]
    fn driver_detects_ir_corruption() {
        let (analysis, plan, tu) = ctx_fixture("int main() { return 0; }");
        let mut ctx = context(&tu, &analysis, &plan);
        let err = run(&[RENAMER, CORRUPTOR], &mut ctx, &tu).unwrap_err();
        assert!(err.to_string().contains("corruptor"), "{err}");
        assert!(err.to_string().contains("inconsistent IR"), "{err}");
    }

    #[test]
    fn the_first_of_two_corrupting_passes_is_named() {
        let (analysis, plan, tu) = ctx_fixture("int main() { return 0; }");
        let mut ctx = context(&tu, &analysis, &plan);
        let second: (&str, Pass) = ("second offender", |ctx| {
            rename(ctx, "bad name", "worse name")
        });
        let err = run(&[RENAMER, CORRUPTOR, second], &mut ctx, &tu)
            .unwrap_err()
            .to_string();
        assert!(err.contains("pass `corruptor`"), "{err}");
        assert!(!err.contains("second offender"), "{err}");
    }

    /// DESIGN.md §17: "an intermediate IR that fails to re-parse but is
    /// repaired by a later pass is not an error" — the check is on
    /// what the pipeline hands on, and that is what is returned.
    #[test]
    fn a_repaired_intermediate_ir_is_not_an_error() {
        let (analysis, plan, tu) = ctx_fixture("int main() { return 0; }");
        let mut ctx = context(&tu, &analysis, &plan);
        let repairer: (&str, Pass) = ("repairer", |ctx| rename(ctx, "bad name", "entry"));
        let printed = run(&[RENAMER, CORRUPTOR, repairer], &mut ctx, &tu)
            .expect("the final IR is consistent");
        assert_eq!(printed, print_unit(&ctx.unit));
        assert!(parse(&printed).unwrap().function("entry").is_some());
    }
}
