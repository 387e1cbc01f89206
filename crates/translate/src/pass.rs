//! The pass framework: the Rust analogue of CETUS's `AnalysisPass` /
//! `TransformPass` / `Driver` classes (§5.3 of the paper).
//!
//! Each framework component is a [`TransformPass`]; the [`Driver`] brings
//! the passes together, executes them in series and checks the result
//! once: the IR the last pass leaves must print to text that re-parses
//! (the self-consistency guarantee the paper attributes to the CETUS base
//! classes, which check after every pass). Only when that check fails
//! does the driver replay the pipeline with the check after every pass,
//! to name the first pass that broke the IR.

use crate::error::TranslateError;
use hsm_analysis::ProgramAnalysis;
use hsm_cir::{parse, print_unit, TranslationUnit};
use hsm_partition::PartitionPlan;
use std::collections::BTreeMap;

/// Shared state threaded through the pass pipeline.
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
    /// The paper's "hash table" of thread-specific functions: worker name →
    /// assigned core id, for launches that must be isolated to one core.
    pub core_bound_calls: BTreeMap<String, usize>,
    /// Mutex variable name → assigned RCCE test-and-set lock id.
    pub mutex_ids: BTreeMap<String, usize>,
    /// Name of the inserted core-id variable (`myID` in Example Code 4.2).
    pub core_id_var: String,
    /// When the source launches more threads than the target has cores,
    /// the total thread count being folded onto the cores (§7.2's
    /// many-to-one mapping); `None` for the 1:1 case.
    pub fold_total: Option<usize>,
    /// When the source launches *fewer* threads than the target has cores,
    /// the thread count guarding the worker region (`if (myID < total)`),
    /// so idle cores skip worker calls and hoisted per-thread statements;
    /// `None` when every core has work.
    pub guard_total: Option<usize>,
}

impl<'a> PassContext<'a> {
    /// Creates the context for one translation run.
    pub(crate) fn new(
        unit: TranslationUnit,
        analysis: &'a ProgramAnalysis,
        plan: &'a PartitionPlan,
        options: crate::TranslateOptions,
    ) -> Self {
        PassContext {
            unit,
            analysis,
            plan,
            options,
            core_bound_calls: BTreeMap::new(),
            mutex_ids: BTreeMap::new(),
            core_id_var: "myID".to_string(),
            fold_total: None,
            guard_total: None,
        }
    }
}

/// A single transformation over the IR.
///
/// A pass must be re-runnable: when the pipeline's output fails its
/// consistency check, [`Driver::run`] runs every pass a second time over
/// a fresh [`PassContext`], so `run` must depend on the context it is
/// handed and not on what an earlier call left in `self`.
pub(crate) trait TransformPass {
    /// Human-readable pass name (for errors and tracing).
    fn name(&self) -> &'static str;

    /// Applies the transformation.
    ///
    /// # Errors
    ///
    /// Returns a [`TranslateError`] when the input program uses constructs
    /// the pass cannot translate.
    fn run(&mut self, ctx: &mut PassContext<'_>) -> Result<(), TranslateError>;
}

/// Executes passes in series and checks the IR they leave behind.
#[derive(Default)]
pub struct Driver {
    passes: Vec<Box<dyn TransformPass>>,
    /// Pass names executed so far (for tracing/tests).
    pub(crate) trace: Vec<&'static str>,
}

impl Driver {
    /// Creates an empty driver.
    pub(crate) fn new() -> Self {
        Driver::default()
    }

    /// Appends a pass to the pipeline.
    #[allow(clippy::should_implement_trait)] // builder-style, not ops::Add
    pub(crate) fn add(mut self, pass: impl TransformPass + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// The names of the configured passes, in execution order (what
    /// `Driver::run` will record as the trace). The persistent artifact
    /// store uses this to rebuild a [`crate::Translation`]'s pass trace
    /// from its on-disk entry without re-running the passes.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs every pass in order, then prints the unit once and re-parses
    /// that text once; the checked text is returned, so no caller has to
    /// print the unit again.
    ///
    /// A final IR that fails to re-parse means a pass corrupted it. The
    /// passes are then replayed over a context rebuilt
    /// ([`PassContext::new`]) from the unit `ctx` held on entry, with the
    /// check after every pass, and the pipeline aborts with an internal
    /// error naming the first pass whose output does not re-parse. An
    /// intermediate IR that a later pass repairs is not an error.
    ///
    /// # Errors
    ///
    /// Propagates pass errors and reports IR corruption.
    pub(crate) fn run(&mut self, ctx: &mut PassContext<'_>) -> Result<String, TranslateError> {
        let pristine = ctx.unit.clone();
        for pass in &mut self.passes {
            pass.run(ctx)?;
            self.trace.push(pass.name());
        }
        let printed = print_unit(&ctx.unit);
        let Err(final_error) = parse(&printed) else {
            return Ok(printed);
        };
        let mut replay = PassContext::new(pristine, ctx.analysis, ctx.plan, ctx.options.clone());
        for pass in &mut self.passes {
            pass.run(&mut replay)?;
            if let Err(e) = parse(&print_unit(&replay.unit)) {
                return Err(TranslateError::internal(format!(
                    "pass `{}` produced an inconsistent IR: {e}",
                    pass.name()
                )));
            }
        }
        // Only a pass that is not re-runnable gets here.
        Err(TranslateError::internal(format!(
            "the pass pipeline produced an inconsistent IR: {final_error}"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsm_partition::{MemorySpec, Policy};

    struct Renamer;
    impl TransformPass for Renamer {
        fn name(&self) -> &'static str {
            "renamer"
        }
        fn run(&mut self, ctx: &mut PassContext<'_>) -> Result<(), TranslateError> {
            if let Some(f) = ctx.unit.function_mut("main") {
                f.name = "entry".to_string();
            }
            Ok(())
        }
    }

    struct Corruptor;
    impl TransformPass for Corruptor {
        fn name(&self) -> &'static str {
            "corruptor"
        }
        fn run(&mut self, ctx: &mut PassContext<'_>) -> Result<(), TranslateError> {
            if let Some(f) = ctx.unit.function_mut("entry") {
                // An identifier with a space cannot re-lex: corruption.
                f.name = "bad name".to_string();
            }
            Ok(())
        }
    }

    /// Renames function `from` to `to`, under pass name `pass`.
    struct Rename {
        pass: &'static str,
        from: &'static str,
        to: &'static str,
    }
    impl TransformPass for Rename {
        fn name(&self) -> &'static str {
            self.pass
        }
        fn run(&mut self, ctx: &mut PassContext<'_>) -> Result<(), TranslateError> {
            if let Some(f) = ctx.unit.function_mut(self.from) {
                f.name = self.to.to_string();
            }
            Ok(())
        }
    }

    fn ctx_fixture(src: &str) -> (ProgramAnalysis, PartitionPlan, TranslationUnit) {
        let tu = parse(src).unwrap();
        let analysis = ProgramAnalysis::analyze(&tu);
        let vars = hsm_partition::shared_vars_from_analysis(&analysis);
        let plan = hsm_partition::partition(&vars, &MemorySpec::scc(32), Policy::SizeAscending);
        (analysis, plan, tu)
    }

    #[test]
    fn driver_runs_passes_in_order() {
        let (analysis, plan, tu) = ctx_fixture("int main() { return 0; }");
        let mut ctx = PassContext::new(tu, &analysis, &plan, Default::default());
        let mut driver = Driver::new().add(Renamer);
        driver.run(&mut ctx).expect("pipeline");
        assert_eq!(driver.trace, vec!["renamer"]);
        assert!(ctx.unit.function("entry").is_some());
    }

    #[test]
    fn driver_detects_ir_corruption() {
        let (analysis, plan, tu) = ctx_fixture("int main() { return 0; }");
        let mut ctx = PassContext::new(tu, &analysis, &plan, Default::default());
        let mut driver = Driver::new().add(Renamer).add(Corruptor);
        let err = driver.run(&mut ctx).unwrap_err();
        assert!(err.to_string().contains("corruptor"), "{err}");
        assert!(err.to_string().contains("inconsistent IR"), "{err}");
    }

    #[test]
    fn the_first_of_two_corrupting_passes_is_named() {
        let (analysis, plan, tu) = ctx_fixture("int main() { return 0; }");
        let mut ctx = PassContext::new(tu, &analysis, &plan, Default::default());
        let mut driver = Driver::new().add(Renamer).add(Corruptor).add(Rename {
            pass: "second offender",
            from: "bad name",
            to: "worse name",
        });
        let err = driver.run(&mut ctx).unwrap_err().to_string();
        assert!(err.contains("pass `corruptor`"), "{err}");
        assert!(!err.contains("second offender"), "{err}");
    }

    /// DESIGN.md §17: "an intermediate IR that fails to re-parse but is
    /// repaired by a later pass is no longer an error" — the check is on
    /// what the pipeline hands on, and that is what is returned.
    #[test]
    fn a_repaired_intermediate_ir_is_not_an_error() {
        let (analysis, plan, tu) = ctx_fixture("int main() { return 0; }");
        let mut ctx = PassContext::new(tu, &analysis, &plan, Default::default());
        let mut driver = Driver::new().add(Renamer).add(Corruptor).add(Rename {
            pass: "repairer",
            from: "bad name",
            to: "entry",
        });
        let printed = driver.run(&mut ctx).expect("the final IR is consistent");
        assert_eq!(driver.trace, vec!["renamer", "corruptor", "repairer"]);
        assert_eq!(printed, print_unit(&ctx.unit));
        assert!(parse(&printed).unwrap().function("entry").is_some());
    }
}
