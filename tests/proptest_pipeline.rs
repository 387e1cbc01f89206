//! Cross-crate property tests (testkit-driven):
//!
//! * randomly generated integer-expression programs compute the same value
//!   in the VM as a Rust reference evaluator (compiler/VM correctness);
//! * the partitioner never overflows its budget and never leaves a
//!   fitting variable off-chip when capacity remains (Algorithm 3's
//!   invariants);
//! * randomly generated pthread programs translate to parseable RCCE
//!   source with no pthread vestiges.
//!
//! Regressions found by the old proptest suite are pinned as named test
//! cases at the bottom instead of a `.proptest-regressions` seed file.

use hsm_exec::{ExecModel, NullSink, RunSpec, Units};
use hsm_partition::{partition, MemorySpec, Placement, Policy, SharedVar};
use testkit::{check, SplitMix64};

/// `program` as a pthread process on the Table 6.1 chip.
fn run_pthread(program: &hsm_vm::Program) -> hsm_exec::RunResult {
    let config = scc_sim::SccConfig::table_6_1();
    let spec = RunSpec::new(config, Units::Pthread, ExecModel::Coherent);
    hsm_exec::run(program, &spec, &mut NullSink).expect("run")
}

// ------------------------------------------------- expression semantics --

/// An expression tree we can render to C and evaluate in Rust with
/// identical semantics (division guarded against zero).
#[derive(Debug, Clone)]
enum E {
    Lit(i32),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    Div(Box<E>, Box<E>),
    Rem(Box<E>, Box<E>),
    Neg(Box<E>),
    Ternary(Box<E>, Box<E>, Box<E>),
}

impl E {
    fn render(&self) -> String {
        match self {
            E::Lit(v) => format!("{v}"),
            E::Add(a, b) => format!("({} + {})", a.render(), b.render()),
            E::Sub(a, b) => format!("({} - {})", a.render(), b.render()),
            E::Mul(a, b) => format!("({} * {})", a.render(), b.render()),
            E::Div(a, b) => format!(
                "({} / (({}) == 0 ? 1 : ({})))",
                a.render(),
                b.render(),
                b.render()
            ),
            E::Rem(a, b) => format!(
                "({} % (({}) == 0 ? 1 : ({})))",
                a.render(),
                b.render(),
                b.render()
            ),
            // The space prevents `-` + `-5` lexing as `--`.
            E::Neg(a) => format!("(- {})", a.render()),
            E::Ternary(c, t, f) => {
                format!("(({}) ? ({}) : ({}))", c.render(), t.render(), f.render())
            }
        }
    }

    fn eval(&self) -> i64 {
        match self {
            E::Lit(v) => i64::from(*v),
            E::Add(a, b) => a.eval().wrapping_add(b.eval()),
            E::Sub(a, b) => a.eval().wrapping_sub(b.eval()),
            E::Mul(a, b) => a.eval().wrapping_mul(b.eval()),
            E::Div(a, b) => {
                let d = b.eval();
                a.eval().wrapping_div(if d == 0 { 1 } else { d })
            }
            E::Rem(a, b) => {
                let d = b.eval();
                a.eval().wrapping_rem(if d == 0 { 1 } else { d })
            }
            E::Neg(a) => a.eval().wrapping_neg(),
            E::Ternary(c, t, f) => {
                if c.eval() != 0 {
                    t.eval()
                } else {
                    f.eval()
                }
            }
        }
    }
}

/// Random expression tree, depth-bounded like the old
/// `prop_recursive(4, ..)` strategy; biased towards leaves as depth grows.
fn gen_expr(rng: &mut SplitMix64, depth: usize) -> E {
    if depth == 0 || rng.gen_range_usize(0, 4) == 0 {
        return E::Lit(rng.gen_range_i32(-50, 50));
    }
    let d = depth - 1;
    match rng.gen_range_usize(0, 7) {
        0 => E::Add(Box::new(gen_expr(rng, d)), Box::new(gen_expr(rng, d))),
        1 => E::Sub(Box::new(gen_expr(rng, d)), Box::new(gen_expr(rng, d))),
        2 => E::Mul(Box::new(gen_expr(rng, d)), Box::new(gen_expr(rng, d))),
        3 => E::Div(Box::new(gen_expr(rng, d)), Box::new(gen_expr(rng, d))),
        4 => E::Rem(Box::new(gen_expr(rng, d)), Box::new(gen_expr(rng, d))),
        5 => E::Neg(Box::new(gen_expr(rng, d))),
        _ => E::Ternary(
            Box::new(gen_expr(rng, d)),
            Box::new(gen_expr(rng, d)),
            Box::new(gen_expr(rng, d)),
        ),
    }
}

/// Runs an integer expression through parse → compile → VM and checks the
/// printed result against the Rust reference evaluator.
fn assert_vm_matches(expr: &E) {
    let expected = expr.eval();
    // Exit codes are i64 in the VM; compute via a long to avoid C int
    // truncation differences.
    let src = format!(
        "int main() {{ long result = {}; printf(\"%ld\\n\", result); return 0; }}",
        expr.render()
    );
    let program = hsm_vm::compile(&hsm_cir::parse(&src).expect("parse")).expect("compile");
    let run = run_pthread(&program);
    let printed: i64 = run.output_text().trim().parse().expect("numeric output");
    assert_eq!(printed, expected, "source: {src}");
}

// -------------------------------------------------- float semantics --

/// Float expression trees with Rust-identical evaluation order.
#[derive(Debug, Clone)]
enum F {
    Lit(f64),
    Add(Box<F>, Box<F>),
    Sub(Box<F>, Box<F>),
    Mul(Box<F>, Box<F>),
    Div(Box<F>, Box<F>),
    FromInt(i32),
}

impl F {
    fn render(&self) -> String {
        match self {
            F::Lit(v) => format!("{v:?}"),
            F::Add(a, b) => format!("({} + {})", a.render(), b.render()),
            F::Sub(a, b) => format!("({} - {})", a.render(), b.render()),
            F::Mul(a, b) => format!("({} * {})", a.render(), b.render()),
            // Guard against division by exact zero (IEEE inf is fine but
            // printf formatting of inf differs).
            F::Div(a, b) => format!("({} / ({} + 1.5))", a.render(), b.render()),
            F::FromInt(v) => format!("(1.0 * {v})"),
        }
    }

    fn eval(&self) -> f64 {
        match self {
            F::Lit(v) => *v,
            F::Add(a, b) => a.eval() + b.eval(),
            F::Sub(a, b) => a.eval() - b.eval(),
            F::Mul(a, b) => a.eval() * b.eval(),
            F::Div(a, b) => a.eval() / (b.eval() + 1.5),
            F::FromInt(v) => 1.0 * f64::from(*v),
        }
    }
}

fn gen_fexpr(rng: &mut SplitMix64, depth: usize) -> F {
    if depth == 0 || rng.gen_range_usize(0, 3) == 0 {
        return if rng.gen_bool() {
            // Quarter-steps render exactly and stay finite under the
            // bounded arithmetic below.
            F::Lit((rng.gen_range_f64(-8.0, 8.0) * 4.0).round() / 4.0)
        } else {
            F::FromInt(rng.gen_range_i32(-20, 20))
        };
    }
    let d = depth - 1;
    match rng.gen_range_usize(0, 4) {
        0 => F::Add(Box::new(gen_fexpr(rng, d)), Box::new(gen_fexpr(rng, d))),
        1 => F::Sub(Box::new(gen_fexpr(rng, d)), Box::new(gen_fexpr(rng, d))),
        2 => F::Mul(Box::new(gen_fexpr(rng, d)), Box::new(gen_fexpr(rng, d))),
        _ => F::Div(Box::new(gen_fexpr(rng, d)), Box::new(gen_fexpr(rng, d))),
    }
}

// ------------------------------------------------------- properties --

/// The VM evaluates arbitrary integer expressions exactly like Rust (the
/// benchmarks' correctness rests on this).
#[test]
fn vm_matches_reference_arithmetic() {
    check("vm_matches_reference_arithmetic", 128, |rng| {
        let expr = gen_expr(rng, 4);
        assert_vm_matches(&expr);
    });
}

/// Algorithm 3 never overspends the on-chip budget, and when it reports
/// free space no off-chip variable would have fit.
#[test]
fn partitioner_invariants() {
    check("partitioner_invariants", 256, |rng| {
        let n = rng.gen_range_usize(1, 24);
        let sizes: Vec<usize> = (0..n).map(|_| rng.gen_range_usize(1, 5_000)).collect();
        let cap = rng.gen_range_usize(0, 16_384);
        let vars: Vec<SharedVar> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| SharedVar::new(format!("v{i}"), s, 1))
            .collect();
        let spec = MemorySpec::with_on_chip(cap);
        for policy in [
            Policy::SizeAscending,
            Policy::SizeDescending,
            Policy::FrequencyDensity,
        ] {
            let plan = partition(&vars, &spec, policy);
            assert!(plan.on_chip_used <= cap, "{policy:?} overspent");
            let used: usize = plan
                .placements
                .iter()
                .filter(|p| p.placement == Placement::OnChip)
                .map(|p| p.var.mem_size)
                .sum();
            assert_eq!(used, plan.on_chip_used, "{policy:?} accounting");
            // No off-chip variable fits in the remaining space *if the
            // policy is greedy ascending* (the smallest spilled variable
            // must not fit).
            if policy == Policy::SizeAscending {
                let smallest_spilled = plan
                    .placements
                    .iter()
                    .filter(|p| p.placement == Placement::OffChip)
                    .map(|p| p.var.mem_size)
                    .min();
                if let Some(s) = smallest_spilled {
                    assert!(
                        s > plan.on_chip_free(),
                        "variable of {s} B left off-chip with {} B free",
                        plan.on_chip_free()
                    );
                }
            }
        }
    });
}

/// Translating a partition-shaped pthread program always yields parseable
/// RCCE C with no pthread identifiers, for arbitrary thread counts and
/// array lengths.
#[test]
fn translation_total_on_generated_programs() {
    check("translation_total_on_generated_programs", 48, |rng| {
        let threads = rng.gen_range_usize(1, 16);
        let len = rng.gen_range_usize(1, 64);
        let src = format!(
            r#"
#include <pthread.h>
int data[{len}];
void *tf(void *tid) {{
    int id = (int)tid;
    if (id < {len}) data[id] = id;
    return tid;
}}
int main() {{
    pthread_t t[{threads}];
    int i;
    for (i = 0; i < {threads}; i++) pthread_create(&t[i], NULL, tf, (void *)i);
    for (i = 0; i < {threads}; i++) pthread_join(t[i], NULL);
    return data[0];
}}
"#
        );
        let out = hsm_translate::translate_source(&src).expect("translate");
        assert!(!out.contains("pthread"), "{out}");
        hsm_cir::parse(&out).expect("reparse");
    });
}

/// The VM's double arithmetic is bitwise-identical to Rust's (both are
/// IEEE 754, same evaluation order) — the foundation of the benchmarks'
/// exit-code equivalence checks.
#[test]
fn vm_matches_reference_float_arithmetic() {
    check("vm_matches_reference_float_arithmetic", 128, |rng| {
        let expr = gen_fexpr(rng, 3);
        let expected = expr.eval();
        if !expected.is_finite() {
            return;
        }
        let src = format!(
            "int main() {{ double r = {}; printf(\"%.17e\\n\", r); return 0; }}",
            expr.render()
        );
        let program = hsm_vm::compile(&hsm_cir::parse(&src).expect("parse")).expect("compile");
        let run = run_pthread(&program);
        let printed: f64 = run.output_text().trim().parse().expect("float output");
        assert!(
            printed == expected || (printed - expected).abs() < 1e-12 * expected.abs().max(1.0),
            "vm {printed:?} vs rust {expected:?} for {src}"
        );
    });
}

/// End-to-end translation equivalence fuzzing: random worker bodies
/// (assembled from data-parallel statement templates over each thread's
/// own slice) must produce the same exit code as a pthread baseline and as
/// a translated RCCE program. This is the pipeline's strongest property:
/// parser, analysis, partitioner, translator, bytecode compiler and both
/// execution modes all agree.
#[test]
fn translated_programs_compute_identically() {
    let templates = [
        "data[j] = data[j] + id;",
        "data[j] = data[j] * 2;",
        "data[j] = data[j] + aux[j];",
        "aux[j] = data[j] - 1;",
        "if (data[j] % 2 == 0) data[j] = data[j] + 3;",
        "data[j] = data[j] + j % 5;",
    ];
    check("translated_programs_compute_identically", 32, |rng| {
        let ops: Vec<usize> = (0..rng.gen_range_usize(1, 8))
            .map(|_| rng.gen_range_usize(0, templates.len()))
            .collect();
        let threads = rng.gen_range_usize(2, 6);
        let body: String = ops
            .iter()
            .map(|&i| templates[i])
            .collect::<Vec<_>>()
            .join("\n        ");
        let n = threads * 8;
        let src = format!(
            r#"
#include <pthread.h>
int data[{n}];
int aux[{n}];
void *tf(void *tid) {{
    int id = (int)tid;
    int j;
    for (j = id * 8; j < id * 8 + 8; j++) {{
        {body}
    }}
    pthread_exit(NULL);
}}
int main() {{
    pthread_t t[{threads}];
    int i;
    for (i = 0; i < {n}; i++) {{
        data[i] = i % 7;
        aux[i] = (i + 2) % 3;
    }}
    for (i = 0; i < {threads}; i++) pthread_create(&t[i], NULL, tf, (void *)i);
    for (i = 0; i < {threads}; i++) pthread_join(t[i], NULL);
    int check = 0;
    for (i = 0; i < {n}; i++) check = check * 31 % 100003 + data[i] + aux[i];
    return check % 100000;
}}
"#
        );
        let session = hsm_core::api::Pipeline::new(src.as_str()).cores(threads);
        let base = session
            .clone()
            .scenario(hsm_core::api::Mode::PthreadBaseline.into())
            .run_scenario()
            .unwrap_or_else(|e| panic!("baseline: {e}\n{src}"));
        let off = session
            .clone()
            .scenario(hsm_core::api::Mode::RcceOffChip.into())
            .run_scenario()
            .unwrap_or_else(|e| panic!("off-chip: {e}\n{src}"));
        let hsm = session
            .run_scenario()
            .unwrap_or_else(|e| panic!("hsm: {e}\n{src}"));
        assert_eq!(
            base.exit_code, off.exit_code,
            "off-chip diverged for\n{src}"
        );
        assert_eq!(base.exit_code, hsm.exit_code, "hsm diverged for\n{src}");
    });
}

// ------------------------------------------------- pinned regressions --

/// Pinned from the retired `.proptest-regressions` file: proptest once
/// shrank a failing arithmetic case to `(0 - (- -1)) % 0` — a remainder
/// whose divisor is literal zero, exercising the `== 0 ? 1 : ...` guard in
/// both the rendered C and the reference evaluator.
#[test]
fn regression_rem_by_literal_zero() {
    let expr = E::Rem(
        Box::new(E::Sub(
            Box::new(E::Lit(0)),
            Box::new(E::Neg(Box::new(E::Lit(-1)))),
        )),
        Box::new(E::Lit(0)),
    );
    assert_vm_matches(&expr);
}
