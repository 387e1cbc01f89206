//! The Stage 5 passes (Algorithms 4–10 of the paper), each a plain
//! function over the [`PassContext`].
//!
//! Pipeline order (see `PASSES` in `lib.rs`):
//!
//! 1. [`includes`] — `<pthread.h>` → `"RCCE.h"`.
//! 2. [`main_conversion`] — `main` → `RCCE_APP`, insert `RCCE_init` /
//!    `RCCE_finalize` (Algorithms 9 and 10).
//! 3. [`shared_data`] — shared globals become pointers allocated with
//!    `RCCE_shmalloc` (off-chip) or `RCCE_malloc` (on-chip MPB) per the
//!    Stage 4 plan, their non-zero initial values stored after the
//!    allocations.
//! 4. [`core_id`] — insert `int myID; myID = RCCE_ue();`.
//! 5. [`parallel_region`] — Algorithms 4 and 5: `pthread_create` launches
//!    become direct worker calls keyed by core id, joins become
//!    `RCCE_barrier`, and `main`'s shared writes and mutex operations before
//!    the first launch and after the last join run on core 0 alone.
//! 6. [`remove_pthread_types`] — Algorithm 7: drop pthread-typed
//!    declarations.
//! 7. [`pthread_calls`] — Algorithms 6 and 8 and the synchronization
//!    calls: every other pthread call is converted through one table,
//!    [`PTHREAD_CALLS`], or refused.
//! 8. [`remove_unused_locals`] — drop locals orphaned by the conversion.
//! 9. [`drop_private_globals`] — drop private, entirely-unused globals.

use crate::error::TranslateError;
use crate::pass::PassContext;
use crate::rewrite::*;
use hsm_analysis::trip_count;
use hsm_cir::CType;
use hsm_cir::{
    AssignOp, BinaryOp, Expr, ExprKind, ForInit, Item, Param, Stmt, StmtKind, TranslationUnit,
    UnaryOp, VarDecl,
};
use hsm_partition::Placement;
use std::collections::{BTreeMap, BTreeSet};

// ------------------------------------------------------------------ 1 ----

/// Rewrites the include list: pthread headers out, `RCCE.h` in.
pub(crate) fn includes(ctx: &mut PassContext<'_>) -> Result<(), TranslateError> {
    let mut saw_rcce = false;
    ctx.unit.preproc.retain(|line| {
        if line.contains("pthread.h") {
            false
        } else {
            saw_rcce |= line.contains("RCCE.h");
            true
        }
    });
    if !saw_rcce {
        ctx.unit.preproc.push("include \"RCCE.h\"".to_string());
    }
    Ok(())
}

// ------------------------------------------------------------------ 2 ----

/// Algorithm 9 + 10 + the `RCCE_APP` renaming: `main` becomes
/// `int RCCE_APP(int *argc, char *argv[])`, `RCCE_init(&argc, &argv)` is
/// inserted as the first statement and `RCCE_finalize()` just before the
/// final return.
pub(crate) fn main_conversion(ctx: &mut PassContext<'_>) -> Result<(), TranslateError> {
    let Some(_) = ctx.unit.function("main") else {
        return Err(TranslateError::unsupported("program has no main function"));
    };
    let mut b = Builder::new(&mut ctx.unit);
    let argc = b.ident("argc");
    let argc_addr = b.addr_of(argc);
    let argv = b.ident("argv");
    let argv_addr = b.addr_of(argv);
    let init = b.call("RCCE_init", vec![argc_addr, argv_addr]);
    let init_stmt = b.expr_stmt(init);
    let fin = b.call("RCCE_finalize", vec![]);
    let fin_stmt = b.expr_stmt(fin);

    let main = ctx.unit.function_mut("main").expect("checked above");
    main.name = "RCCE_APP".to_string();
    main.params = vec![
        Param {
            name: "argc".to_string(),
            ty: CType::Int.ptr_to(),
        },
        Param {
            name: "argv".to_string(),
            ty: CType::Char.ptr_to().ptr_to(),
        },
    ];
    main.body.insert(0, init_stmt);
    // Insert finalize before the trailing return (or at the end).
    let pos = main
        .body
        .iter()
        .rposition(|s| matches!(s.kind, StmtKind::Return(_)))
        .unwrap_or(main.body.len());
    main.body.insert(pos, fin_stmt);
    Ok(())
}

// ------------------------------------------------------------------ 3 ----

/// Rewrites shared globals per the Stage 4 plan: array and scalar globals
/// become pointers allocated from shared memory in `RCCE_APP`
/// (Algorithm 3's "Create on-chip/off-chip malloc call … Insert C in main").
///
/// The allocation replaces the global's static initializer, and fresh
/// shared memory reads as zero. A non-zero initial value is therefore
/// stored after the allocations, in one block that
/// [`parallel_region`] later confines to core 0 before the launch
/// barrier; an all-zero initializer is dropped. An initializer that is not
/// a constant the pass can store element by element (the address of a
/// global, say) is an unsupported construct.
pub(crate) fn shared_data(ctx: &mut PassContext<'_>) -> Result<(), TranslateError> {
    // Work over globals in the plan, in plan order so the shmalloc
    // statements appear deterministically.
    let planned: Vec<(String, Placement)> = ctx
        .plan
        .placements
        .iter()
        .map(|p| (p.var.name.clone(), p.placement))
        .collect();

    let mut alloc_stmts: Vec<Stmt> = Vec::new();
    let mut init_stmts: Vec<Stmt> = Vec::new();
    for (name, placement) in planned {
        // Only globals get declarations rewritten; shared locals (like
        // `tmp` in Example 4.1) keep their storage — their sharing is
        // realized through the pointer that exposes them.
        let Some(info) = ctx
            .analysis
            .scope
            .variable(&hsm_analysis::VarKey::global(name.clone()))
        else {
            continue;
        };
        let (elem_ty, count) = match &info.ty {
            CType::Array(inner, len) => ((**inner).clone(), len.unwrap_or(1)),
            CType::Pointer(inner) => ((**inner).clone(), 1),
            scalar => (scalar.clone(), 1),
        };
        let was_scalar = !info.ty.is_array() && !info.ty.is_pointer();

        // 1. Rewrite the declaration to `T *name;` (drop initializer —
        //    the previous "malloc call"/static init is removed, per
        //    Algorithm 3 lines 8–10; step 4 stores what it held).
        let mut init = None;
        for item in &mut ctx.unit.items {
            if let Item::Decl(d) = item {
                for v in &mut d.vars {
                    if v.name == name {
                        v.ty = elem_ty.clone().ptr_to();
                        init = v.init.take().or(init);
                    }
                }
            }
        }

        // 2. Scalars: rewrite every use `name` → `(*name)`.
        if was_scalar {
            deref_rewrite(&mut ctx.unit, &name);
        }

        // 3. Build `name = (T *)ALLOC(sizeof(T) * count);`
        let mut b = Builder::new(&mut ctx.unit);
        let sizeof = b.sizeof(elem_ty.clone());
        let n = b.int(count as i64);
        let bytes = b.binary(BinaryOp::Mul, sizeof, n);
        let alloc = match placement {
            Placement::OnChip => "RCCE_malloc",
            Placement::OffChip => "RCCE_shmalloc",
        };
        let call = b.call(alloc, vec![bytes]);
        let cast = b.cast(elem_ty.ptr_to(), call);
        let lhs = b.ident(&name);
        let assign = b.assign(lhs, cast);
        alloc_stmts.push(b.expr_stmt(assign));

        // 4. `*name = v;` or `name[i] = v;` per non-zero initial value.
        let Some(init) = init.filter(|init| !is_zero_init(init)) else {
            continue;
        };
        if info.ty.is_pointer() {
            return Err(TranslateError::unsupported(format!(
                "the initializer of shared pointer `{name}` cannot be kept: \
                 its global becomes the pointer to its shared copy"
            )));
        }
        let target = if was_scalar {
            let ident = b.ident(&name);
            b.deref(ident)
        } else {
            b.ident(&name)
        };
        initial_stores(&mut b, target, &info.ty, init, &mut init_stmts).map_err(|()| {
            TranslateError::unsupported(format!(
                "the initializer of shared global `{name}` is not a constant \
                 that can be stored element by element"
            ))
        })?;
    }
    if !init_stmts.is_empty() {
        let mut b = Builder::new(&mut ctx.unit);
        alloc_stmts.push(b.block(init_stmts));
    }

    // Insert the allocation statements right after RCCE_init.
    if let Some(main) = ctx.unit.function_mut("RCCE_APP") {
        let pos = main
            .body
            .iter()
            .position(|s| stmt_contains_call(s, "RCCE_init"))
            .map(|i| i + 1)
            .unwrap_or(0);
        for (i, s) in alloc_stmts.into_iter().enumerate() {
            main.body.insert(pos + i, s);
        }
    }
    Ok(())
}

/// Whether an initializer leaves its object all zero: zero literals
/// (through casts), `NULL`, and braces holding only those.
fn is_zero_init(init: &Expr) -> bool {
    match &init.peel_casts().kind {
        ExprKind::IntLit(0) | ExprKind::CharLit('\0') => true,
        ExprKind::FloatLit(v) => *v == 0.0 && v.is_sign_positive(),
        ExprKind::Ident(name) => name == "NULL",
        ExprKind::InitList(items) => items.iter().all(is_zero_init),
        _ => false,
    }
}

/// Whether an expression is a constant that evaluates the same on every
/// core: literals combined by arithmetic, casts and `sizeof(type)`.
fn is_constant(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::IntLit(_)
        | ExprKind::FloatLit(_)
        | ExprKind::CharLit(_)
        | ExprKind::SizeofType(_) => true,
        ExprKind::Unary(UnaryOp::Neg | UnaryOp::Plus | UnaryOp::Not | UnaryOp::BitNot, inner)
        | ExprKind::Cast(_, inner) => is_constant(inner),
        ExprKind::Binary(_, l, r) => is_constant(l) && is_constant(r),
        _ => false,
    }
}

/// Appends `target = v;` for every non-zero constant `v` that `init`
/// gives the object of type `ty` that `target` names, element by element
/// through nested braces. `Err` when `init` is not such a constant.
fn initial_stores(
    b: &mut Builder<'_>,
    target: Expr,
    ty: &CType,
    init: Expr,
    out: &mut Vec<Stmt>,
) -> Result<(), ()> {
    if is_zero_init(&init) {
        return Ok(());
    }
    match (ty, init.kind) {
        (CType::Array(elem, len), ExprKind::InitList(items)) => {
            if len.is_some_and(|n| items.len() > n) {
                return Err(());
            }
            for (i, item) in items.into_iter().enumerate() {
                let element = b.index(target.clone(), i as i64);
                initial_stores(b, element, elem, item, out)?;
            }
            Ok(())
        }
        (CType::Array(..), _) => Err(()),
        // `int x = {5};`
        (_, ExprKind::InitList(mut items)) if items.len() == 1 => {
            initial_stores(b, target, ty, items.remove(0), out)
        }
        (_, kind) => {
            let value = Expr { kind, ..init };
            if !is_constant(&value) {
                return Err(());
            }
            let store = b.assign(target, value);
            out.push(b.expr_stmt(store));
            Ok(())
        }
    }
}

/// Rewrites every reference to scalar global `name` as `(*name)` in all
/// function bodies; `&name` becomes just `name`, since the pointer already
/// holds the address.
fn deref_rewrite(unit: &mut TranslationUnit, name: &str) {
    walk_unit_mut(unit, &mut |e| {
        match &e.kind {
            ExprKind::Unary(UnaryOp::Addr, inner) if inner.as_ident() == Some(name) => {
                e.kind = ExprKind::Ident(name.to_string());
            }
            ExprKind::Ident(n) if n == name => {
                let inner = Box::new(Expr {
                    kind: e.kind.clone(),
                    ..*e
                });
                e.kind = ExprKind::Unary(UnaryOp::Deref, inner);
            }
            _ => return true,
        }
        // Not into what was just built: its `name` is already rewritten.
        false
    });
}

// ------------------------------------------------------------------ 4 ----

/// Inserts `int myID; myID = RCCE_ue();` after the allocation block.
pub(crate) fn core_id(ctx: &mut PassContext<'_>) -> Result<(), TranslateError> {
    let mut b = Builder::new(&mut ctx.unit);
    let decl = b.decl_stmt(CORE_ID, CType::Int);
    let lhs = b.ident(CORE_ID);
    let call = b.call("RCCE_ue", vec![]);
    let assign = b.assign(lhs, call);
    let assign_stmt = b.expr_stmt(assign);

    let Some(main) = ctx.unit.function_mut("RCCE_APP") else {
        return Err(TranslateError::internal("RCCE_APP missing (pass order)"));
    };
    // After the last allocation call, else after RCCE_init, else at top.
    let pos = main
        .body
        .iter()
        .rposition(|s| {
            stmt_contains_call(s, "RCCE_shmalloc") || stmt_contains_call(s, "RCCE_malloc")
        })
        .or_else(|| {
            main.body
                .iter()
                .position(|s| stmt_contains_call(s, "RCCE_init"))
        })
        .map(|i| i + 1)
        .unwrap_or(0);
    main.body.insert(pos, decl);
    main.body.insert(pos + 1, assign_stmt);
    Ok(())
}

// ------------------------------------------------------------------ 5 ----

/// The core-id variable [`core_id`] inserts (`myID` in Example Code 4.2).
const CORE_ID: &str = "myID";

/// Algorithms 4 and 5, and `main`'s serial code around them. Every core
/// runs all of `main`: its launches become worker calls after a barrier,
/// its joins become barriers, and what `main` runs once before the first
/// launch and after the last join, core 0 runs alone. One walk over each
/// function's statements does all three.
///
/// *Launches* (Algorithm 4). Every `pthread_create` becomes a direct call
/// of the worker:
///
/// * launched in a loop with a thread-id argument → one unguarded call with
///   the argument rewritten to the core id (every core runs the worker);
/// * launched once outside a loop → a call guarded by `if (myID == k)`,
///   with `k` assigned in order of appearance (the paper's hash table of
///   thread-specific tasks).
///
/// Statements that shared the launch loop are hoisted out with the loop
/// induction variable rewritten to the core id ([`convert_loop`]).
///
/// *Joins* (Algorithm 5, [`join`]). A join loop is removed, its joins
/// replaced with one `RCCE_barrier(&RCCE_COMM_WORLD)`, and the rest of its
/// body hoisted like a launch loop's (that is how `printf(..., sum[local])`
/// becomes `printf(..., sum[myID])` in Example Code 4.2). A join outside a
/// loop becomes a barrier.
///
/// A launch or join is a statement of its own, `f(..);` or `rc = f(..);`,
/// directly in a function body or in a `for` loop's body, and only `main`
/// launches. A launch or join anywhere else (under an `if`, in a `switch`
/// or `while`, in a nested block or a condition) is refused as an
/// unsupported construct, and so is a loop statement whose hoisted copy
/// would not be exact.
///
/// *Serial code* ([`on_core_zero`]). A statement of `main` before its first
/// launch or after its last join that writes shared memory or calls a mutex
/// operation runs under `if (myID == 0)`. Before the launches the launch
/// barrier publishes what core 0 wrote; after the joins one barrier follows
/// each run of such statements.
pub(crate) fn parallel_region(ctx: &mut PassContext<'_>) -> Result<(), TranslateError> {
    let (analysis, plan) = (ctx.analysis, ctx.plan);
    let cores = ctx.options.cores;
    // The paper's hash table of thread-specific tasks: worker name →
    // the core that runs its launch outside a loop.
    let mut core_bound = BTreeMap::new();
    let single = analysis.threads.launches.iter().filter(|l| !l.in_loop);
    for (k, l) in single.enumerate() {
        core_bound.insert(l.entry.as_str(), k);
    }
    let shared: BTreeSet<&str> = plan
        .placements
        .iter()
        .map(|p| p.var.name.as_str())
        .collect();

    let mut unit = std::mem::take(&mut ctx.unit);
    // Join loops hoist under the last launch loop's fold or guard, in
    // whichever function they stand.
    let mut totals = (None, None);
    for s in unit.function("RCCE_APP").map_or(&[][..], |f| &f.body) {
        if count_calls(s, Conversion::Launch) > 0 {
            let (fold, guard) = launch_totals(s, cores);
            totals = (fold.or(totals.0), guard.or(totals.1));
        }
    }
    let names: Vec<String> = unit.functions().map(|f| f.name.clone()).collect();
    for fname in names {
        let body = std::mem::take(&mut unit.function_mut(&fname).unwrap().body);
        let in_main = fname == "RCCE_APP";
        let first_launch = body
            .iter()
            .position(|s| count_calls(s, Conversion::Launch) > 0);
        let last_join = body
            .iter()
            .rposition(|s| count_calls(s, Conversion::Join) > 0);
        let mut new_body = Vec::with_capacity(body.len());
        // Whether core 0 ran statements after the joins that no barrier
        // has published yet.
        let mut unpublished = false;
        for (i, stmt) in body.into_iter().enumerate() {
            let launches = count_calls(&stmt, Conversion::Launch);
            let after_joins = last_join.is_some_and(|at| i > at);
            let serial = after_joins || first_launch.is_some_and(|at| i < at);
            let alone = in_main
                && serial
                && launches + count_calls(&stmt, Conversion::Join) == 0
                && on_core_zero(&stmt, &shared)?;
            if unpublished && !alone {
                new_body.push(barrier_stmt(&mut unit));
                unpublished = false;
            }
            if alone {
                unpublished = after_joins;
                let mut b = Builder::new(&mut unit);
                new_body.push(b.guard(CORE_ID, BinaryOp::Eq, 0, vec![stmt]));
                continue;
            }
            if launches == 0 {
                join(ctx, &mut unit, &fname, stmt, totals, &mut new_body)?;
                continue;
            }
            if !in_main {
                // The core id that keys a worker call exists only there.
                return Err(TranslateError::unsupported(format!(
                    "a `{}` in `{fname}` is not a launch the translator converts: only \
                     `main` launches threads",
                    api_name(Conversion::Launch)
                )));
            }
            let single = launch_call(&stmt);
            let (fold, guard) = launch_totals(&stmt, cores);
            let converted = match stmt.kind {
                StmtKind::For(init, _, _, loop_body) => {
                    let launch_loop = convert_loop(
                        ctx,
                        &mut unit,
                        (&fname, Conversion::Launch),
                        (&init, *loop_body),
                        (fold, guard),
                        |unit, s, id_var, ivar| {
                            let call = launch_call(s)?;
                            let worker = worker_call(unit, &call, id_var, ivar);
                            Some(vec![Builder::new(unit).expr_stmt(worker)])
                        },
                    )?;
                    // In the pthread original, main finished everything
                    // before this loop (data initialization included) before
                    // any thread ran. Each core re-executes that prologue and
                    // may write *shared* data, so a barrier must separate
                    // initialization from work. It goes before any
                    // immediately-preceding `wtime()` timestamps so the
                    // measured region still covers only the parallel section
                    // (§5.2's protocol).
                    if !launch_loop.calls.is_empty() {
                        let barrier = barrier_stmt(&mut unit);
                        let mut at = new_body.len();
                        while at > 0 && is_wtime_stmt(&new_body[at - 1]) {
                            at -= 1;
                        }
                        new_body.insert(at, barrier);
                    }
                    new_body.extend(launch_loop.calls);
                    // A loop that launches and joins each thread hoists its
                    // joins.
                    for s in launch_loop.hoisted {
                        join(ctx, &mut unit, &fname, s, totals, &mut new_body)?;
                    }
                    launch_loop.converted
                }
                // Single launch statement outside a loop.
                _ => match single {
                    Some(call) => {
                        new_body.push(barrier_stmt(&mut unit));
                        let worker = worker_call(&mut unit, &call, CORE_ID, None);
                        let mut b = Builder::new(&mut unit);
                        let worker = b.expr_stmt(worker);
                        // Guard thread-specific single launches.
                        new_body.push(match core_bound.get(call.entry.as_str()) {
                            Some(&k) => b.guard(CORE_ID, BinaryOp::Eq, k as i64, vec![worker]),
                            None => worker,
                        });
                        1
                    }
                    None => 0,
                },
            };
            if converted != launches {
                return Err(not_converted(Conversion::Launch, &fname));
            }
        }
        if unpublished {
            new_body.push(barrier_stmt(&mut unit));
        }
        unit.function_mut(&fname).unwrap().body = new_body;
    }
    ctx.unit = unit;
    Ok(())
}

/// The thread counts a launch loop wraps its worker region in: the total
/// folded onto the cores when it launches more threads than there are
/// cores (§7.2's many-to-one mapping), and the total guarding the region
/// (`if (myID < total)`) when it launches fewer, so that the surplus cores
/// neither compute out-of-range thread ids nor trample shared data.
fn launch_totals(s: &Stmt, cores: usize) -> (Option<usize>, Option<usize>) {
    let StmtKind::For(init, cond, step, _) = &s.kind else {
        return (None, None);
    };
    let trips = trip_count(init.as_ref(), cond.as_ref(), step.as_ref()).map(|t| t as usize);
    (trips.filter(|&t| t > cores), trips.filter(|&t| t < cores))
}

/// Whether a statement of `main`'s serial code, before its first launch or
/// after its last join, runs on core 0 alone: it writes shared memory or
/// calls a mutex operation. The pthread original ran it once, and every
/// core runs `main`: a read-modify-write of shared data (`total = total +
/// part[i]`) would be applied once per core, and a lock `main` holds when
/// it returns would stall the other cores. Writes to per-core variables,
/// the shared-pointer cells among them, still run everywhere.
///
/// Core 0 must be able to run the statement while the other cores go on to
/// the next barrier, so one that declares a variable (the name would leave
/// scope), returns or waits at a barrier is refused.
fn on_core_zero(s: &Stmt, shared: &BTreeSet<&str>) -> Result<bool, TranslateError> {
    let (mut acts, mut barrier, mut returns) = (false, false, false);
    hsm_cir::walk_exprs_in_stmt(s, &mut |e| {
        acts |=
            writes_shared_memory(e, shared) || matches!(conversion(e), Some(Conversion::Lock(_)));
        barrier |= conversion(e) == Some(Conversion::Barrier);
    });
    if !acts {
        return Ok(false);
    }
    for_each_stmt(std::slice::from_ref(s), &mut |s| {
        returns |= matches!(s.kind, StmtKind::Return(_))
    });
    let why = match s.kind {
        StmtKind::Decl(_) => "declares a variable",
        _ if returns => "returns",
        _ if barrier => "waits at a barrier",
        _ => return Ok(true),
    };
    Err(TranslateError::unsupported(format!(
        "a statement of `main` before its first launch or after its last join writes \
         shared memory or calls a mutex operation, so core 0 runs it alone, but it {why}"
    )))
}

/// What an assignment or increment writes: its destination operand.
fn write_target(e: &Expr) -> Option<&Expr> {
    match &e.kind {
        ExprKind::Assign(_, lhs, _) => Some(lhs),
        ExprKind::PostIncDec(inner, _) => Some(inner),
        ExprKind::Unary(UnaryOp::PreInc | UnaryOp::PreDec, inner) => Some(inner),
        _ => None,
    }
}

/// Whether an expression stores through a shared pointer or array: an
/// `Index` or `Deref` destination whose base variable is shared.
fn writes_shared_memory(e: &Expr, shared: &BTreeSet<&str>) -> bool {
    write_target(e).is_some_and(|dest| {
        matches!(
            dest.peel_casts().kind,
            ExprKind::Index(..) | ExprKind::Unary(UnaryOp::Deref, _)
        ) && dest
            .base_variable()
            .is_some_and(|base| shared.contains(base))
    })
}

/// Algorithm 5 for one statement of `function`: a join loop becomes a
/// barrier and the rest of its body, hoisted under the launch loops' fold
/// or guard (`totals`); a join statement becomes a barrier; a statement
/// without joins is kept. The statement goes to `out`.
fn join(
    ctx: &PassContext<'_>,
    unit: &mut TranslationUnit,
    function: &str,
    stmt: Stmt,
    totals: (Option<usize>, Option<usize>),
    out: &mut Vec<Stmt>,
) -> Result<(), TranslateError> {
    let joins = count_calls(&stmt, Conversion::Join);
    if joins == 0 {
        out.push(stmt);
        return Ok(());
    }
    let single = is_call_statement(&stmt, Conversion::Join);
    let converted = match stmt.kind {
        StmtKind::For(init, _, _, loop_body) => {
            out.push(barrier_stmt(unit));
            let join_loop = convert_loop(
                ctx,
                unit,
                (function, Conversion::Join),
                (&init, *loop_body),
                totals,
                |_, s, _, _| is_call_statement(s, Conversion::Join).then(Vec::new),
            )?;
            // Idle cores beyond the thread count skip the hoisted
            // statements too (a printf indexed by myID would read out of
            // bounds).
            out.extend(join_loop.hoisted);
            join_loop.converted
        }
        _ if single => {
            out.push(barrier_stmt(unit));
            1
        }
        _ => 0,
    };
    if converted != joins {
        return Err(not_converted(Conversion::Join, function));
    }
    Ok(())
}

/// A decomposed `pthread_create` call.
struct CreateCall {
    entry: String,
    arg: Expr,
}

/// The function's name in the source: `main` was renamed `RCCE_APP`.
fn source_name(function: &str) -> &str {
    if function == "RCCE_APP" {
        "main"
    } else {
        function
    }
}

fn for_induction_var(init: &Option<ForInit>) -> Option<String> {
    match init {
        Some(ForInit::Expr(e)) => match &e.kind {
            ExprKind::Assign(AssignOp::Assign, lhs, _) => lhs.as_ident().map(str::to_string),
            _ => None,
        },
        Some(ForInit::Decl(d)) => d.vars.first().map(|v| v.name.clone()),
        None => None,
    }
}

/// The call a statement makes when it is exactly `f(..);` or `x = f(..);`:
/// the one shape in which Stage 5 converts a launch, a join or a dropped
/// call.
fn call_statement(stmt: &Stmt) -> Option<&Expr> {
    let StmtKind::Expr(Some(e)) = &stmt.kind else {
        return None;
    };
    let call = match &e.kind {
        ExprKind::Assign(AssignOp::Assign, _, rhs) => rhs,
        _ => e,
    };
    matches!(call.kind, ExprKind::Call(..)).then_some(call)
}

/// Whether a statement is a call statement ([`call_statement`]) of `kind`.
fn is_call_statement(stmt: &Stmt, kind: Conversion) -> bool {
    call_statement(stmt).and_then(conversion) == Some(kind)
}

/// The launch a statement makes when it is exactly `pthread_create(..);`
/// or `rc = pthread_create(..);` and names its worker directly.
fn launch_call(stmt: &Stmt) -> Option<CreateCall> {
    let call = call_statement(stmt)?;
    let ExprKind::Call(_, args) = &call.kind else {
        return None;
    };
    if conversion(call) != Some(Conversion::Launch) || args.len() < 4 {
        return None;
    }
    Some(CreateCall {
        entry: args[2].peel_casts().as_ident()?.to_string(),
        arg: args[3].clone(),
    })
}

/// The variable that counts the thread ids a core runs when launches are
/// folded onto fewer cores.
const FOLD_VAR: &str = "foldID";

/// Builds `for (foldID = myID; foldID < total; foldID = foldID + cores)
/// { body }` — the §7.2 many-to-one worker loop.
fn fold_loop(unit: &mut TranslationUnit, total: usize, cores: usize, body: Vec<Stmt>) -> Stmt {
    let mut b = Builder::new(unit);
    let (fold, core) = (b.ident(FOLD_VAR), b.ident(CORE_ID));
    let init = b.assign(fold, core);
    let cond = b.var_op(FOLD_VAR, BinaryOp::Lt, total as i64);
    let (fold, next) = (
        b.ident(FOLD_VAR),
        b.var_op(FOLD_VAR, BinaryOp::Add, cores as i64),
    );
    let step = b.assign(fold, next);
    let block = b.block(body);
    let decl = b.decl_stmt(FOLD_VAR, CType::Int);
    let for_stmt = b.stmt(StmtKind::For(
        Some(ForInit::Expr(init)),
        Some(cond),
        Some(step),
        Box::new(block),
    ));
    b.block(vec![decl, for_stmt])
}

/// Builds `entry(arg')` where the thread-id variable (the loop induction
/// variable) inside `arg` is replaced by the core id variable.
fn worker_call(
    unit: &mut TranslationUnit,
    call: &CreateCall,
    core_var: &str,
    ivar: Option<&str>,
) -> Expr {
    let mut arg = call.arg.clone();
    if let Some(iv) = ivar {
        subst_ident_expr(&mut arg, iv, core_var);
    }
    // Node ids need not be unique for printing, and analyses re-run after
    // printing, so the cloned expression keeps its ids.
    Builder::new(unit).call(&call.entry, vec![arg])
}

/// A launch or join loop as [`convert_loop`] leaves it.
struct ConvertedLoop {
    /// What the call statements became, wrapped like `hoisted`.
    calls: Vec<Stmt>,
    /// The other statements of the body, run once per thread id.
    hoisted: Vec<Stmt>,
    /// How many call statements were converted.
    converted: usize,
}

/// Converts a `for` loop that launches or joins threads (`kind`, in
/// `function`) — Algorithms 4 and 5 share it.
///
/// Each statement of the body that `convert` accepts becomes what it
/// returns; `convert` is handed the variable standing for the thread id
/// and the loop's induction variable. A statement that makes a `kind` call
/// in any other shape is left out, so the caller's count refuses it. Every
/// other statement is hoisted out of the loop with the induction variable
/// rewritten to the thread id. Both lists run inside the §7.2 many-to-one
/// loop when `fold` is set, or under `if (myID < total)` when `guard` is.
///
/// A hoisted statement runs once per thread id, on the core that runs that
/// id, not once per iteration in one thread. That is exact only for a
/// write each thread id owns: a variable declared in the loop body, or an
/// element of a shared array indexed by the induction variable. Any other
/// write (`sum = sum + part[i]`, say) is refused.
fn convert_loop(
    ctx: &PassContext<'_>,
    unit: &mut TranslationUnit,
    (function, kind): (&str, Conversion),
    (init, body): (&Option<ForInit>, Stmt),
    (fold, guard): (Option<usize>, Option<usize>),
    convert: impl Fn(&mut TranslationUnit, &Stmt, &str, Option<&str>) -> Option<Vec<Stmt>>,
) -> Result<ConvertedLoop, TranslateError> {
    let ivar = for_induction_var(init);
    let id_var = if fold.is_some() { FOLD_VAR } else { CORE_ID };
    let inner = match body.kind {
        StmtKind::Block(stmts) => stmts,
        other => vec![Stmt {
            kind: other,
            ..body
        }],
    };
    let mut locals = Vec::new();
    for_each_stmt(&inner, &mut |s| {
        if let StmtKind::Decl(d) = &s.kind {
            locals.extend(d.vars.iter().map(|v| &v.name))
        }
    });
    let owned = |dest: &Expr| match &dest.kind {
        ExprKind::Ident(name) => locals.contains(&name),
        ExprKind::Index(base, index) => {
            index.as_ident().is_some_and(|i| Some(i) == ivar.as_deref())
                && base
                    .as_ident()
                    .is_some_and(|array| ctx.plan.placements.iter().any(|p| p.var.name == array))
        }
        _ => false,
    };
    for stmt in inner.iter().filter(|s| count_calls(s, kind) == 0) {
        let mut foreign = None;
        hsm_cir::walk_exprs_in_stmt(stmt, &mut |e| {
            if foreign.is_none() {
                foreign = write_target(e).filter(|d| !owned(d)).map(|d| {
                    d.base_variable()
                        .map_or_else(|| hsm_cir::print_expr(d), str::to_string)
                });
            }
        });
        if let Some(dest) = foreign {
            return Err(TranslateError::unsupported(format!(
                "the `{}` loop in `{}` cannot hoist the write to `{dest}`: a statement \
                 hoisted out of a launch or join loop may write only variables declared \
                 in the loop body and elements of shared arrays indexed by the \
                 induction variable",
                api_name(kind),
                source_name(function),
            )));
        }
    }
    let mut hoisted = Vec::new();
    let mut calls = Vec::new();
    let mut converted = 0;
    for stmt in inner {
        if let Some(made) = convert(unit, &stmt, id_var, ivar.as_deref()) {
            calls.extend(made);
            converted += 1;
        } else if count_calls(&stmt, kind) == 0 {
            hoisted.push(stmt);
        }
    }
    if let Some(iv) = &ivar {
        for stmt in &mut hoisted {
            subst_ident_stmt(stmt, iv, id_var);
        }
    }
    let mut wrap = |stmts: Vec<Stmt>| match (fold, guard) {
        _ if stmts.is_empty() => stmts,
        (Some(total), _) => vec![fold_loop(unit, total, ctx.options.cores, stmts)],
        (None, Some(total)) => {
            vec![Builder::new(unit).guard(CORE_ID, BinaryOp::Lt, total as i64, stmts)]
        }
        (None, None) => stmts,
    };
    Ok(ConvertedLoop {
        calls: wrap(calls),
        hoisted: wrap(hoisted),
        converted,
    })
}

/// The refusal of a `kind` call (a launch or a join) in `function` that is
/// not a call statement where Stage 5 converts one.
fn not_converted(kind: Conversion, function: &str) -> TranslateError {
    let call = api_name(kind);
    let noun = if kind == Conversion::Launch {
        "launch"
    } else {
        "join"
    };
    TranslateError::unsupported(format!(
        "a `{call}` in `{}` is not a {noun} the translator converts: a {noun} is a \
         statement of its own (`{call}(..);` or `rc = {call}(..);`) in the function body \
         or directly in a `for` loop's body",
        source_name(function)
    ))
}

/// Whether a statement only takes a timestamp (`double t0 = wtime();` or
/// `t0 = RCCE_wtime();`).
fn is_wtime_stmt(s: &Stmt) -> bool {
    let is_wtime = |e: &Expr| matches!(e.call_target(), Some("wtime" | "RCCE_wtime"));
    match &s.kind {
        StmtKind::Decl(d) => {
            !d.vars.is_empty() && d.vars.iter().all(|v| v.init.as_ref().is_some_and(is_wtime))
        }
        StmtKind::Expr(Some(e)) => {
            matches!(&e.kind, ExprKind::Assign(AssignOp::Assign, _, rhs) if is_wtime(rhs))
        }
        _ => false,
    }
}

fn barrier_stmt(unit: &mut TranslationUnit) -> Stmt {
    let mut b = Builder::new(unit);
    let comm = b.ident("RCCE_COMM_WORLD");
    let addr = b.addr_of(comm);
    let call = b.call("RCCE_barrier", vec![addr]);
    b.expr_stmt(call)
}

// ------------------------------------------------------------------ 6 ----

/// Algorithm 7 — removes declarations whose specifier is a pthread data
/// type (`pthread_t threads[3];`, `pthread_mutex_t m;`, …), globally and
/// locally.
pub(crate) fn remove_pthread_types(ctx: &mut PassContext<'_>) -> Result<(), TranslateError> {
    ctx.unit.items.retain(|item| match item {
        Item::Decl(d) => !d.vars.iter().all(|v| v.ty.is_pthread_type()),
        Item::Func(_) => true,
    });
    for f in ctx.unit.functions_mut() {
        retain_stmts(
            &mut f.body,
            &mut |s| !matches!(&s.kind, StmtKind::Decl(d) if d.vars.iter().all(|v| v.ty.is_pthread_type())),
        );
    }
    Ok(())
}

// ------------------------------------------------------------------ 7 ----

/// What Stage 5 makes of a call into the pthread API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Conversion {
    /// A launch: [`parallel_region`] converts or refuses every one.
    Launch,
    /// A join: [`parallel_region`] converts or refuses every one.
    Join,
    /// Algorithm 6: the callee is renamed, in any position.
    Rename(&'static str),
    /// A mutex operation: the callee is renamed and its argument replaced
    /// by the mutex's lock id.
    Lock(&'static str),
    /// `RCCE_barrier(&RCCE_COMM_WORLD)`, the only barrier the target offers:
    /// it spans all UEs.
    Barrier,
    /// Algorithm 8: a call statement of its own is removed.
    Drop,
    /// Removed only as the last statement of a function a launch names as
    /// its entry, where returning does what the exit did.
    Exit,
}

/// The paper's hash table of the API's names: every call `hsm_vm` runs as
/// a pthread intrinsic, plus the benchmark timing call `wtime`, with what
/// Stage 5 makes of it. Any other `pthread_` call has no RCCE counterpart.
const PTHREAD_CALLS: [(&str, Conversion); 12] = [
    ("pthread_create", Conversion::Launch),
    ("pthread_join", Conversion::Join),
    ("pthread_exit", Conversion::Exit),
    ("pthread_self", Conversion::Rename("RCCE_ue")),
    ("pthread_mutex_init", Conversion::Drop),
    ("pthread_mutex_lock", Conversion::Lock("RCCE_acquire_lock")),
    (
        "pthread_mutex_unlock",
        Conversion::Lock("RCCE_release_lock"),
    ),
    ("pthread_mutex_destroy", Conversion::Drop),
    ("pthread_barrier_init", Conversion::Drop),
    ("pthread_barrier_wait", Conversion::Barrier),
    ("pthread_barrier_destroy", Conversion::Drop),
    ("wtime", Conversion::Rename("RCCE_wtime")),
];

/// What the table makes of a call expression, if it calls into the table.
fn conversion(e: &Expr) -> Option<Conversion> {
    let target = e.call_target()?;
    let (_, kind) = PTHREAD_CALLS.iter().find(|(name, _)| *name == target)?;
    Some(*kind)
}

/// The name of the (first) call the table converts as `kind`.
fn api_name(kind: Conversion) -> &'static str {
    PTHREAD_CALLS
        .iter()
        .find(|(_, k)| *k == kind)
        .map_or("", |(name, _)| name)
}

/// How many `kind` calls a statement (tree) makes.
fn count_calls(s: &Stmt, kind: Conversion) -> usize {
    let mut n = 0;
    hsm_cir::walk_exprs_in_stmt(s, &mut |e| n += usize::from(conversion(e) == Some(kind)));
    n
}

/// Algorithms 6 and 8 and the synchronization calls: converts every
/// pthread call left after launches and joins through [`PTHREAD_CALLS`].
///
/// A `Drop` call statement is removed wherever it stands, and a thread's
/// final `pthread_exit` with it; then one walk over each body renames,
/// numbers the locks (each `pthread_mutex_t` variable gets an id, in
/// symbol order) and converts the barriers. A dropped call anywhere else,
/// a lock whose argument names no numbered mutex, and any `pthread_` call
/// outside the table would change what the program computes if deleted,
/// so each is refused. A launch or join left over is an internal error:
/// the passes before this one converted or refused every one.
pub(crate) fn pthread_calls(ctx: &mut PassContext<'_>) -> Result<(), TranslateError> {
    let lock_ids: BTreeMap<&str, usize> = ctx
        .analysis
        .scope
        .variables
        .iter()
        .filter(|v| matches!(&v.ty, CType::Named(n) if n == "pthread_mutex_t"))
        .enumerate()
        .map(|(i, v)| (v.key.name.as_str(), i))
        .collect();
    let entries: BTreeSet<&str> = ctx
        .analysis
        .threads
        .launches
        .iter()
        .map(|l| l.entry.as_str())
        .collect();
    for f in ctx.unit.functions_mut() {
        if entries.contains(f.name.as_str())
            && f.body
                .last()
                .is_some_and(|s| is_call_statement(s, Conversion::Exit))
        {
            f.body.pop();
        }
        retain_stmts(&mut f.body, &mut |s| {
            !is_call_statement(s, Conversion::Drop)
        });
        let function = source_name(&f.name).to_string();
        let mut refusal = None;
        for s in &mut f.body {
            walk_stmt_mut(s, &mut |e| {
                if refusal.is_some() {
                    return false;
                }
                match conversion(e) {
                    Some(kind) => refusal = convert_call(e, kind, &lock_ids, &function).err(),
                    None => {
                        if let Some(call) = e.call_target().filter(|t| t.starts_with("pthread_")) {
                            refusal = Some(TranslateError::unsupported(format!(
                                "`{call}` in `{function}` has no RCCE counterpart"
                            )));
                        }
                    }
                }
                true
            });
        }
        if let Some(err) = refusal {
            return Err(err);
        }
    }
    Ok(())
}

/// Converts, in place, one call `e` in `function` that the table makes
/// `kind` of, or refuses it where converting it would not be exact.
fn convert_call(
    e: &mut Expr,
    kind: Conversion,
    lock_ids: &BTreeMap<&str, usize>,
    function: &str,
) -> Result<(), TranslateError> {
    let call = e.call_target().unwrap_or_default();
    let refuse = |rule: &str| {
        Err(TranslateError::unsupported(format!(
            "`{call}` in `{function}` {rule}"
        )))
    };
    let first = match &e.kind {
        ExprKind::Call(_, args) => args.first(),
        _ => None,
    };
    let like = |kind: ExprKind| Expr {
        kind,
        ..*first.unwrap_or(e)
    };
    let (to, arg) = match kind {
        Conversion::Rename(to) => (to, None),
        Conversion::Lock(to) => {
            let mutex = first.map(Expr::peel_casts).and_then(|a| match &a.kind {
                // `&m` — the common form.
                ExprKind::Unary(UnaryOp::Addr, inner) => inner.base_variable(),
                _ => a.base_variable(),
            });
            let Some(&id) = mutex.and_then(|m| lock_ids.get(m)) else {
                return refuse(
                    "does not lock a mutex the translator numbers: its argument must be \
                     `&m` for a `pthread_mutex_t m`",
                );
            };
            (to, Some(like(ExprKind::IntLit(id as i64))))
        }
        Conversion::Barrier => {
            let comm = like(ExprKind::Ident("RCCE_COMM_WORLD".to_string()));
            let arg = like(ExprKind::Unary(UnaryOp::Addr, Box::new(comm)));
            ("RCCE_barrier", Some(arg))
        }
        Conversion::Drop => {
            return refuse(&format!(
                "is removed only as a statement of its own (`{call}(..);` or \
                 `rc = {call}(..);`)"
            ))
        }
        Conversion::Exit => {
            return refuse("is removed only as the last statement of a thread's entry function")
        }
        Conversion::Launch | Conversion::Join => {
            return Err(TranslateError::internal(format!(
                "a `{call}` in `{function}` was neither converted nor refused"
            )))
        }
    };
    let ExprKind::Call(callee, args) = &mut e.kind else {
        return Ok(());
    };
    callee.kind = ExprKind::Ident(to.to_string());
    if let Some(arg) = arg {
        *args = vec![arg];
    }
    Ok(())
}

// ------------------------------------------------------------------ 8 ----

/// Removes local declarations orphaned by the conversion: zero remaining
/// references and a side-effect-free initializer.
pub(crate) fn remove_unused_locals(ctx: &mut PassContext<'_>) -> Result<(), TranslateError> {
    for f in ctx.unit.functions_mut() {
        // A local is dead when nothing references it and its
        // initializer is a literal. Removing such a declaration
        // removes no reference, so one sweep finds every dead local.
        let mut dead: Vec<String> = Vec::new();
        for_each_stmt(&f.body, &mut |s| {
            let StmtKind::Decl(d) = &s.kind else { return };
            for v in &d.vars {
                if pure_init(v) && count_refs(&f.body, &v.name) == 0 {
                    dead.push(v.name.clone());
                }
            }
        });
        retain_stmts(&mut f.body, &mut |s| match &s.kind {
            StmtKind::Decl(d) => {
                d.vars.is_empty()
                    || !d
                        .vars
                        .iter()
                        .all(|v| pure_init(v) && dead.contains(&v.name))
            }
            _ => true,
        });
    }
    Ok(())
}

/// Whether a declared variable's initializer, if any, is a literal.
fn pure_init(v: &VarDecl) -> bool {
    match &v.init {
        None => true,
        Some(e) => matches!(
            e.kind,
            ExprKind::IntLit(_)
                | ExprKind::FloatLit(_)
                | ExprKind::CharLit(_)
                | ExprKind::StrLit(_)
        ),
    }
}

// ------------------------------------------------------------------ 9 ----

/// Drops private, entirely-unused globals (the post-Stage-3 cleanup that
/// removes `global` from Example Code 4.2).
pub(crate) fn drop_private_globals(ctx: &mut PassContext<'_>) -> Result<(), TranslateError> {
    let analysis = ctx.analysis;
    ctx.unit.items.retain(|item| match item {
        Item::Decl(d) => !d.vars.iter().all(|v| {
            let key = hsm_analysis::VarKey::global(v.name.clone());
            matches!(analysis.scope.variable(&key), Some(info)
                if info.counts.total() == 0
                    && !analysis.final_status(&v.name).is_shared()
                    && !matches!(v.ty, CType::Function { .. }))
        }),
        Item::Func(_) => true,
    });
    Ok(())
}
