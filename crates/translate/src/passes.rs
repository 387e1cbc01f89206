//! The Stage 5 transformation passes (Algorithms 4–10 of the paper).
//!
//! Pipeline order (see [`crate::standard_driver`]):
//!
//! 1. [`IncludesPass`] — `<pthread.h>` → `"RCCE.h"`.
//! 2. [`MutexPass`] — pthread mutexes → RCCE test-and-set locks.
//! 3. [`MainConvPass`] — `main` → `RCCE_APP`, insert `RCCE_init` /
//!    `RCCE_finalize` (Algorithms 9 and 10).
//! 4. [`SharedDataPass`] — shared globals become pointers allocated with
//!    `RCCE_shmalloc` (off-chip) or `RCCE_malloc` (on-chip MPB) per the
//!    Stage 4 plan, their non-zero initial values stored after the
//!    allocations.
//! 5. [`CoreIdPass`] — insert `int myID; myID = RCCE_ue();`.
//! 6. [`ThreadsToProcsPass`] — Algorithm 4: `pthread_create` launches become
//!    direct worker calls keyed by core id.
//! 7. [`JoinsPass`] — Algorithm 5: join loops become `RCCE_barrier`.
//! 8. [`SelfPass`] — Algorithm 6: `pthread_self()` → `RCCE_ue()` (plus
//!    `wtime()` → `RCCE_wtime()` for the benchmark timing protocol).
//! 9. [`RemoveTypesPass`] — Algorithm 7: drop pthread-typed declarations.
//! 10. [`RemoveApiPass`] — Algorithm 8: drop remaining `pthread_*` calls.
//! 11. [`UnusedLocalsPass`] — drop locals orphaned by the conversion.
//! 12. [`DropPrivateGlobalsPass`] — drop private, entirely-unused globals.

use crate::error::TranslateError;
use crate::pass::{PassContext, TransformPass};
use crate::rewrite::*;
use hsm_analysis::trip_count;
use hsm_cir::CType;
use hsm_cir::{
    AssignOp, BinaryOp, Expr, ExprKind, ForInit, Item, NodeId, Param, Stmt, StmtKind,
    TranslationUnit, UnaryOp, VarDecl,
};
use hsm_partition::Placement;
use std::collections::BTreeMap;

// ------------------------------------------------------------------ 1 ----

/// Rewrites the include list: pthread headers out, `RCCE.h` in.
pub(crate) struct IncludesPass;

impl TransformPass for IncludesPass {
    fn name(&self) -> &'static str {
        "includes"
    }

    fn run(&mut self, ctx: &mut PassContext<'_>) -> Result<(), TranslateError> {
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
}

// ------------------------------------------------------------------ 2 ----

/// Converts pthread mutexes to RCCE test-and-set locks: each mutex variable
/// is assigned a lock id; `pthread_mutex_lock(&m)` becomes
/// `RCCE_acquire_lock(id)` and unlock becomes `RCCE_release_lock(id)`.
pub(crate) struct MutexPass;

impl TransformPass for MutexPass {
    fn name(&self) -> &'static str {
        "mutex"
    }

    fn run(&mut self, ctx: &mut PassContext<'_>) -> Result<(), TranslateError> {
        // Assign ids to every pthread_mutex_t variable, in symbol order.
        let ids: BTreeMap<&str, usize> = ctx
            .analysis
            .scope
            .variables
            .iter()
            .filter(|v| matches!(&v.ty, CType::Named(n) if n == "pthread_mutex_t"))
            .enumerate()
            .map(|(i, v)| (v.key.name.as_str(), i))
            .collect();
        if ids.is_empty() {
            return Ok(());
        }
        walk_unit_mut(&mut ctx.unit, &mut |e| {
            convert_mutex_expr(e, &ids);
            true
        });
        Ok(())
    }
}

/// Converts `pthread_barrier_wait(&b)` into
/// `RCCE_barrier(&RCCE_COMM_WORLD)` — the only barrier the target
/// architecture offers spans all UEs. `pthread_barrier_init`/`destroy`
/// statements are removed later by [`RemoveApiPass`].
pub(crate) struct BarrierPass;

impl TransformPass for BarrierPass {
    fn name(&self) -> &'static str {
        "pthread-barriers"
    }

    fn run(&mut self, ctx: &mut PassContext<'_>) -> Result<(), TranslateError> {
        walk_unit_mut(&mut ctx.unit, &mut |e| {
            convert_barrier_expr(e);
            true
        });
        Ok(())
    }
}

fn convert_barrier_expr(e: &mut Expr) {
    if e.call_target() != Some("pthread_barrier_wait") {
        return;
    }
    let ExprKind::Call(callee, args) = &mut e.kind else {
        return;
    };
    let ExprKind::Ident(name) = &mut callee.kind else {
        return;
    };
    *name = "RCCE_barrier".to_string();
    let (id, span) = args
        .first()
        .map(|a| (a.id, a.span))
        .unwrap_or((NodeId(u32::MAX), hsm_cir::Span::default()));
    let comm = Expr {
        id,
        kind: ExprKind::Ident("RCCE_COMM_WORLD".to_string()),
        span,
    };
    *args = vec![Expr {
        id,
        kind: ExprKind::Unary(UnaryOp::Addr, Box::new(comm)),
        span,
    }];
}

/// Rewrites `pthread_mutex_lock(&m)` / `pthread_mutex_unlock(&m)` in place
/// into `RCCE_acquire_lock(id)` / `RCCE_release_lock(id)`.
fn convert_mutex_expr(e: &mut Expr, ids: &BTreeMap<&str, usize>) {
    let which = match e.call_target() {
        Some("pthread_mutex_lock") => "RCCE_acquire_lock",
        Some("pthread_mutex_unlock") => "RCCE_release_lock",
        _ => return,
    };
    let ExprKind::Call(callee, args) = &mut e.kind else {
        return;
    };
    let Some(&id) = args
        .first()
        .map(|a| a.peel_casts())
        .and_then(|a| match &a.kind {
            // `&m` — the common form.
            ExprKind::Unary(UnaryOp::Addr, inner) => inner.base_variable(),
            _ => a.base_variable(),
        })
        .and_then(|mutex| ids.get(mutex))
    else {
        return;
    };
    if let ExprKind::Ident(name) = &mut callee.kind {
        *name = which.to_string();
    }
    let arg_id = args[0].id;
    let arg_span = args[0].span;
    *args = vec![Expr {
        id: arg_id,
        kind: ExprKind::IntLit(id as i64),
        span: arg_span,
    }];
}

// ------------------------------------------------------------------ 3 ----

/// Algorithm 9 + 10 + the `RCCE_APP` renaming: `main` becomes
/// `int RCCE_APP(int *argc, char *argv[])`, `RCCE_init(&argc, &argv)` is
/// inserted as the first statement and `RCCE_finalize()` just before the
/// final return.
pub(crate) struct MainConvPass;

impl TransformPass for MainConvPass {
    fn name(&self) -> &'static str {
        "main-conversion"
    }

    fn run(&mut self, ctx: &mut PassContext<'_>) -> Result<(), TranslateError> {
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
}

// ------------------------------------------------------------------ 4 ----

/// Rewrites shared globals per the Stage 4 plan: array and scalar globals
/// become pointers allocated from shared memory in `RCCE_APP`
/// (Algorithm 3's "Create on-chip/off-chip malloc call … Insert C in main").
///
/// The allocation replaces the global's static initializer, and fresh
/// shared memory reads as zero. A non-zero initial value is therefore
/// stored after the allocations, in one block that
/// [`GuardSharedInitPass`] later confines to core 0 before the launch
/// barrier; an all-zero initializer is dropped. An initializer that is not
/// a constant the pass can store element by element (the address of a
/// global, say) is an unsupported construct.
pub(crate) struct SharedDataPass;

impl SharedDataPass {
    fn alloc_fn(placement: Placement) -> &'static str {
        match placement {
            Placement::OnChip => "RCCE_malloc",
            Placement::OffChip => "RCCE_shmalloc",
        }
    }
}

impl TransformPass for SharedDataPass {
    fn name(&self) -> &'static str {
        "shared-data"
    }

    fn run(&mut self, ctx: &mut PassContext<'_>) -> Result<(), TranslateError> {
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
            let call = b.call(Self::alloc_fn(placement), vec![bytes]);
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

// ------------------------------------------------------------------ 5 ----

/// Inserts `int myID; myID = RCCE_ue();` after the allocation block.
pub(crate) struct CoreIdPass;

impl TransformPass for CoreIdPass {
    fn name(&self) -> &'static str {
        "core-id"
    }

    fn run(&mut self, ctx: &mut PassContext<'_>) -> Result<(), TranslateError> {
        let var = ctx.core_id_var.clone();
        let mut b = Builder::new(&mut ctx.unit);
        let decl = b.decl_stmt(&var, CType::Int);
        let lhs = b.ident(&var);
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
}

// ----------------------------------------------------------------- 5b ----

/// Guards pre-launch writes to shared memory with `if (myID == 0)`.
///
/// In the pthread original, `main` initializes shared data exactly once
/// before launching threads. After conversion every core re-executes that
/// prologue; plain stores are idempotent, but read-modify-write
/// initialization (`mats[i] = mats[i] + n;`) is not — concurrent cores
/// double-apply it. The fix mirrors what the original program guaranteed:
/// only one core performs stores *into shared memory* before the launch
/// point (writes to per-core variables, including the shared-pointer cells
/// themselves, still run everywhere), and the barrier inserted before the
/// worker call publishes the initialized data to all cores.
pub(crate) struct GuardSharedInitPass;

impl TransformPass for GuardSharedInitPass {
    fn name(&self) -> &'static str {
        "guard-shared-init"
    }

    fn run(&mut self, ctx: &mut PassContext<'_>) -> Result<(), TranslateError> {
        let core_var = ctx.core_id_var.clone();
        let shared: std::collections::BTreeSet<String> = ctx
            .plan
            .placements
            .iter()
            .map(|p| p.var.name.clone())
            .collect();
        let launch_fns: std::collections::BTreeSet<String> = ctx
            .analysis
            .threads
            .launches
            .iter()
            .map(|l| l.in_function.clone())
            .collect();
        let mut unit = std::mem::take(&mut ctx.unit);
        for fname in launch_fns {
            // `main` was already renamed by MainConvPass.
            let fname = if fname == "main" && unit.function(&fname).is_none() {
                "RCCE_APP".to_string()
            } else {
                fname
            };
            let Some(f) = unit.function_mut(&fname) else {
                continue;
            };
            let mut body = std::mem::take(&mut f.body);
            let launch_at = body
                .iter()
                .position(|s| stmt_contains_call(s, "pthread_create"))
                .unwrap_or(body.len());
            let mut new_body: Vec<Stmt> = Vec::with_capacity(body.len());
            for (i, stmt) in body.drain(..).enumerate() {
                if i < launch_at && stmt_writes_shared_memory(&stmt, &shared) {
                    let guarded = guard_with_core_zero(&mut unit, &core_var, stmt);
                    new_body.push(guarded);
                } else {
                    new_body.push(stmt);
                }
            }
            unit.function_mut(&fname).expect("function exists").body = new_body;
        }
        ctx.unit = unit;
        Ok(())
    }
}

/// Whether a statement stores through a shared pointer/array (an `Index`
/// or `Deref` destination whose base variable is in the shared set).
fn stmt_writes_shared_memory(s: &Stmt, shared: &std::collections::BTreeSet<String>) -> bool {
    let mut found = false;
    hsm_cir::walk_exprs_in_stmt(s, &mut |e| {
        let dest = match &e.kind {
            ExprKind::Assign(_, lhs, _) => Some(lhs.as_ref()),
            ExprKind::PostIncDec(inner, _) => Some(inner.as_ref()),
            ExprKind::Unary(UnaryOp::PreInc | UnaryOp::PreDec, inner) => Some(inner.as_ref()),
            _ => None,
        };
        if let Some(dest) = dest {
            let indirect = matches!(
                dest.peel_casts().kind,
                ExprKind::Index(..) | ExprKind::Unary(UnaryOp::Deref, _)
            );
            if indirect {
                if let Some(base) = dest.base_variable() {
                    if shared.contains(base) {
                        found = true;
                    }
                }
            }
        }
    });
    found
}

/// Wraps `stmt` in `if (myID == 0) { stmt }`.
fn guard_with_core_zero(unit: &mut TranslationUnit, core_var: &str, stmt: Stmt) -> Stmt {
    let mut b = Builder::new(unit);
    let lhs = b.ident(core_var);
    let zero = b.int(0);
    let cond = b.binary(BinaryOp::Eq, lhs, zero);
    let block_id = unit.fresh_id();
    let if_id = unit.fresh_id();
    let span = stmt.span;
    Stmt {
        id: if_id,
        kind: StmtKind::If(
            cond,
            Box::new(Stmt {
                id: block_id,
                kind: StmtKind::Block(vec![stmt]),
                span,
            }),
            None,
        ),
        span,
    }
}

// ------------------------------------------------------------------ 6 ----

/// Algorithm 4 — Threads to Processes.
///
/// Every `pthread_create` launch becomes a direct call of the worker:
///
/// * launched in a loop with a thread-id argument → one unguarded call with
///   the argument rewritten to the core id (every core runs the worker);
/// * launched once outside a loop → a call guarded by `if (myID == k)`,
///   with `k` assigned in order of appearance (the paper's hash table of
///   thread-specific tasks).
///
/// Statements that shared the launch loop are hoisted out with the loop
/// induction variable rewritten to the core id.
///
/// A launch is a statement of its own, `pthread_create(..);` or
/// `rc = pthread_create(..);`, directly in a function body or in a `for`
/// loop's body. A `pthread_create` anywhere else (under an `if`, in a
/// `switch` or `while`, in a nested block or a condition) is refused as an
/// unsupported construct.
pub(crate) struct ThreadsToProcsPass;

impl TransformPass for ThreadsToProcsPass {
    fn name(&self) -> &'static str {
        "threads-to-processes"
    }

    fn run(&mut self, ctx: &mut PassContext<'_>) -> Result<(), TranslateError> {
        let core_var = ctx.core_id_var.clone();
        // The paper's hash table of thread-specific tasks: worker name →
        // the core that runs its launch outside a loop.
        let mut core_bound = BTreeMap::new();
        let single = ctx.analysis.threads.launches.iter().filter(|l| !l.in_loop);
        for (k, l) in single.enumerate() {
            core_bound.insert(l.entry.as_str(), k);
        }

        let fn_names: Vec<String> = ctx.unit.functions().map(|f| f.name.clone()).collect();
        let mut unit = std::mem::take(&mut ctx.unit);
        for fname in fn_names {
            let mut body = std::mem::take(&mut unit.function_mut(&fname).unwrap().body);
            let mut new_body = Vec::with_capacity(body.len());
            for stmt in body.drain(..) {
                let mut launches = 0;
                hsm_cir::walk_exprs_in_stmt(&stmt, &mut |e| {
                    launches += usize::from(e.call_target() == Some("pthread_create"));
                });
                if launches == 0 {
                    new_body.push(stmt);
                    continue;
                }
                let converted;
                match stmt.kind {
                    // Launch loop: replace the whole loop.
                    StmtKind::For(init, cond, step, loop_body) => {
                        let ivar = for_induction_var(&init);
                        // §7.2 many-to-one mapping: when the loop launches
                        // more threads than the target has cores, each
                        // core runs the worker for every folded thread id
                        // congruent to its own.
                        let trips = trip_count(init.as_ref(), cond.as_ref(), step.as_ref());
                        let fold = match trips {
                            Some(t) if (t as usize) > ctx.options.cores => Some(t as usize),
                            _ => None,
                        };
                        if fold.is_some() {
                            ctx.fold_total = fold;
                        }
                        // The dual of folding: with more cores than
                        // threads, the surplus cores must not run the
                        // worker at all (they would compute out-of-range
                        // thread ids and trample shared data). Guard the
                        // worker region with `if (myID < total)`.
                        let guard = match trips {
                            Some(t) if (t as usize) < ctx.options.cores => Some(t as usize),
                            _ => None,
                        };
                        if guard.is_some() {
                            ctx.guard_total = guard;
                        }
                        let mut emitted_calls = Vec::new();
                        let mut hoisted = Vec::new();
                        let inner: Vec<Stmt> = match loop_body.kind {
                            StmtKind::Block(stmts) => stmts,
                            other => vec![Stmt {
                                id: loop_body.id,
                                kind: other,
                                span: loop_body.span,
                            }],
                        };
                        let fold_var = "foldID";
                        let call_id_var: &str = if fold.is_some() { fold_var } else { &core_var };
                        for mut inner_stmt in inner {
                            // A launch statement becomes the worker call;
                            // any other statement that launches is left
                            // unconverted, and so refused below.
                            if let Some(call) = launch_call(&inner_stmt) {
                                emitted_calls.push(build_worker_call(
                                    &mut unit,
                                    &call,
                                    call_id_var,
                                    ivar.as_deref(),
                                ));
                            } else if !stmt_contains_call(&inner_stmt, "pthread_create") {
                                if let Some(iv) = &ivar {
                                    subst_ident_stmt(&mut inner_stmt, iv, call_id_var);
                                }
                                hoisted.push(inner_stmt);
                            }
                        }
                        converted = emitted_calls.len();
                        if let Some(total) = fold {
                            emitted_calls = vec![fold_loop(
                                &mut unit,
                                fold_var,
                                &core_var,
                                total,
                                ctx.options.cores,
                                emitted_calls,
                            )];
                            if !hoisted.is_empty() {
                                hoisted = vec![fold_loop(
                                    &mut unit,
                                    fold_var,
                                    &core_var,
                                    total,
                                    ctx.options.cores,
                                    hoisted,
                                )];
                            }
                        } else if let Some(total) = guard {
                            if !emitted_calls.is_empty() {
                                let mut b = Builder::new(&mut unit);
                                emitted_calls =
                                    vec![b.lt_guard(&core_var, total as i64, emitted_calls)];
                            }
                            if !hoisted.is_empty() {
                                let mut b = Builder::new(&mut unit);
                                hoisted = vec![b.lt_guard(&core_var, total as i64, hoisted)];
                            }
                        }
                        // In the pthread original, main finished everything
                        // before this loop (data initialization included)
                        // before any thread ran. Each core re-executes that
                        // prologue and may write *shared* data, so a barrier
                        // must separate initialization from work. It goes
                        // before any immediately-preceding `wtime()`
                        // timestamps so the measured region still covers
                        // only the parallel section (§5.2's protocol).
                        if !emitted_calls.is_empty() {
                            let barrier = barrier_stmt(&mut unit);
                            let mut at = new_body.len();
                            while at > 0 && is_wtime_stmt(&new_body[at - 1]) {
                                at -= 1;
                            }
                            new_body.insert(at, barrier);
                        }
                        new_body.extend(emitted_calls);
                        new_body.extend(hoisted);
                    }
                    // Single launch statement outside a loop.
                    _ => {
                        let call = launch_call(&stmt);
                        converted = usize::from(call.is_some());
                        if let Some(call) = call {
                            new_body.push(barrier_stmt(&mut unit));
                            let worker_call = build_worker_call(&mut unit, &call, &core_var, None);
                            // Guard thread-specific single launches.
                            if let Some(&k) = core_bound.get(call.entry.as_str()) {
                                let StmtKind::Expr(Some(call_expr)) = worker_call.kind else {
                                    unreachable!("build_worker_call returns expr stmt");
                                };
                                let mut b = Builder::new(&mut unit);
                                let guarded = b.guarded_call(&core_var, k as i64, call_expr);
                                new_body.push(guarded);
                            } else {
                                new_body.push(worker_call);
                            }
                        }
                    }
                }
                if converted != launches {
                    let function = if fname == "RCCE_APP" { "main" } else { &fname };
                    return Err(TranslateError::unsupported(format!(
                        "a `pthread_create` in `{function}` is not a launch the translator \
                         converts: a launch is a statement of its own (`pthread_create(..);` \
                         or `rc = pthread_create(..);`) in the function body or directly in \
                         a `for` loop's body"
                    )));
                }
            }
            unit.function_mut(&fname).unwrap().body = new_body;
        }
        ctx.unit = unit;
        Ok(())
    }
}

/// A decomposed `pthread_create` call.
struct CreateCall {
    entry: String,
    arg: Expr,
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

/// The launch a statement makes when it is exactly `pthread_create(..);`
/// or `rc = pthread_create(..);` and names its worker directly.
fn launch_call(stmt: &Stmt) -> Option<CreateCall> {
    let StmtKind::Expr(Some(e)) = &stmt.kind else {
        return None;
    };
    let call = match &e.kind {
        ExprKind::Assign(AssignOp::Assign, _, rhs) => rhs,
        _ => e,
    };
    let ExprKind::Call(_, args) = &call.kind else {
        return None;
    };
    if call.call_target() != Some("pthread_create") || args.len() < 4 {
        return None;
    }
    Some(CreateCall {
        entry: args[2].peel_casts().as_ident()?.to_string(),
        arg: args[3].clone(),
    })
}

/// Builds `for (fold = myID; fold < total; fold += cores) { body }` —
/// the §7.2 many-to-one worker loop.
fn fold_loop(
    unit: &mut TranslationUnit,
    fold_var: &str,
    core_var: &str,
    total: usize,
    cores: usize,
    body: Vec<Stmt>,
) -> Stmt {
    let mut b = Builder::new(unit);
    let lhs = b.ident(fold_var);
    let rhs = b.ident(core_var);
    let init_expr = b.assign(lhs, rhs);
    let cond_l = b.ident(fold_var);
    let cond_r = b.int(total as i64);
    let cond = b.binary(BinaryOp::Lt, cond_l, cond_r);
    // step: fold = fold + cores
    let sl = b.ident(fold_var);
    let sr1 = b.ident(fold_var);
    let sr2 = b.int(cores as i64);
    let sum = b.binary(BinaryOp::Add, sr1, sr2);
    let step = b.assign(sl, sum);
    let body_id = unit.fresh_id();
    let for_id = unit.fresh_id();
    let block = Stmt {
        id: body_id,
        kind: StmtKind::Block(body),
        span: hsm_cir::Span::default(),
    };
    let decl = {
        let mut b = Builder::new(unit);
        b.decl_stmt(fold_var, CType::Int)
    };
    let for_stmt = Stmt {
        id: for_id,
        kind: StmtKind::For(
            Some(ForInit::Expr(init_expr)),
            Some(cond),
            Some(step),
            Box::new(block),
        ),
        span: hsm_cir::Span::default(),
    };
    let wrap_id = unit.fresh_id();
    Stmt {
        id: wrap_id,
        kind: StmtKind::Block(vec![decl, for_stmt]),
        span: hsm_cir::Span::default(),
    }
}

/// Builds `entry(arg')` where the thread-id variable (the loop induction
/// variable) inside `arg` is replaced by the core id variable.
fn build_worker_call(
    unit: &mut TranslationUnit,
    call: &CreateCall,
    core_var: &str,
    ivar: Option<&str>,
) -> Stmt {
    let mut arg = call.arg.clone();
    if let Some(iv) = ivar {
        subst_ident_expr(&mut arg, iv, core_var);
    }
    // Refresh ids on the cloned expression by leaving them as-is: node ids
    // need not be unique for printing, and analyses re-run after printing.
    let mut b = Builder::new(unit);
    let worker = b.call(&call.entry, vec![arg]);
    b.expr_stmt(worker)
}

// ------------------------------------------------------------------ 7 ----

/// Algorithm 5 — pthread_join removal.
///
/// A join inside a loop removes the loop and replaces the joins with one
/// `RCCE_barrier(&RCCE_COMM_WORLD)`; other statements in the loop are
/// hoisted with the induction variable rewritten to the core id (that is
/// how `printf(..., sum[local])` becomes `printf(..., sum[myID])` in
/// Example Code 4.2). A standalone join becomes a barrier.
pub(crate) struct JoinsPass;

impl TransformPass for JoinsPass {
    fn name(&self) -> &'static str {
        "joins-to-barriers"
    }

    fn run(&mut self, ctx: &mut PassContext<'_>) -> Result<(), TranslateError> {
        let core_var = ctx.core_id_var.clone();
        let fn_names: Vec<String> = ctx.unit.functions().map(|f| f.name.clone()).collect();
        let mut unit = std::mem::take(&mut ctx.unit);
        for fname in fn_names {
            let mut body = std::mem::take(&mut unit.function_mut(&fname).unwrap().body);
            let mut new_body = Vec::with_capacity(body.len());
            for stmt in body.drain(..) {
                if !stmt_contains_call(&stmt, "pthread_join") {
                    new_body.push(stmt);
                    continue;
                }
                match stmt.kind {
                    StmtKind::For(init, _, _, loop_body) => {
                        let ivar = for_induction_var(&init);
                        new_body.push(barrier_stmt(&mut unit));
                        let inner: Vec<Stmt> = match loop_body.kind {
                            StmtKind::Block(stmts) => stmts,
                            other => vec![Stmt {
                                id: loop_body.id,
                                kind: other,
                                span: loop_body.span,
                            }],
                        };
                        let fold = ctx.fold_total;
                        let id_var: &str = if fold.is_some() { "foldID" } else { &core_var };
                        let mut hoisted = Vec::new();
                        for mut inner_stmt in inner {
                            if stmt_contains_call(&inner_stmt, "pthread_join") {
                                continue;
                            }
                            if let Some(iv) = &ivar {
                                subst_ident_stmt(&mut inner_stmt, iv, id_var);
                            }
                            hoisted.push(inner_stmt);
                        }
                        if let (Some(total), false) = (fold, hoisted.is_empty()) {
                            new_body.push(fold_loop(
                                &mut unit,
                                "foldID",
                                &core_var,
                                total,
                                ctx.options.cores,
                                hoisted,
                            ));
                        } else if let (Some(total), false) = (ctx.guard_total, hoisted.is_empty()) {
                            // Idle cores beyond the thread count must also
                            // skip the per-thread epilogue (e.g. a printf
                            // indexed by myID would read out of bounds).
                            let mut b = Builder::new(&mut unit);
                            new_body.push(b.lt_guard(&core_var, total as i64, hoisted));
                        } else {
                            new_body.extend(hoisted);
                        }
                    }
                    _ => {
                        new_body.push(barrier_stmt(&mut unit));
                    }
                }
            }
            unit.function_mut(&fname).unwrap().body = new_body;
        }
        ctx.unit = unit;
        Ok(())
    }
}

/// Whether a statement only takes a timestamp (`double t0 = wtime();` or
/// `t0 = RCCE_wtime();`).
fn is_wtime_stmt(s: &Stmt) -> bool {
    let mut only_wtime = false;
    match &s.kind {
        StmtKind::Decl(d) => {
            only_wtime = d.vars.iter().all(|v| match &v.init {
                Some(e) => matches!(e.call_target(), Some("wtime") | Some("RCCE_wtime")),
                None => false,
            }) && !d.vars.is_empty();
        }
        StmtKind::Expr(Some(e)) => {
            if let ExprKind::Assign(AssignOp::Assign, _, rhs) = &e.kind {
                only_wtime = matches!(rhs.call_target(), Some("wtime") | Some("RCCE_wtime"));
            }
        }
        _ => {}
    }
    only_wtime
}

fn barrier_stmt(unit: &mut TranslationUnit) -> Stmt {
    let mut b = Builder::new(unit);
    let comm = b.ident("RCCE_COMM_WORLD");
    let addr = b.addr_of(comm);
    let call = b.call("RCCE_barrier", vec![addr]);
    b.expr_stmt(call)
}

// ------------------------------------------------------------------ 8 ----

/// Algorithm 6 — `pthread_self()` → `RCCE_ue()`; also maps the benchmark
/// timing call `wtime()` to `RCCE_wtime()`.
pub(crate) struct SelfPass;

impl TransformPass for SelfPass {
    fn name(&self) -> &'static str {
        "pthread-self"
    }

    fn run(&mut self, ctx: &mut PassContext<'_>) -> Result<(), TranslateError> {
        walk_unit_mut(&mut ctx.unit, &mut |e| {
            let to = match e.call_target() {
                Some("pthread_self") => "RCCE_ue",
                Some("wtime") => "RCCE_wtime",
                _ => return true,
            };
            if let ExprKind::Call(callee, _) = &mut e.kind {
                callee.kind = ExprKind::Ident(to.to_string());
            }
            true
        });
        Ok(())
    }
}

// ------------------------------------------------------------------ 9 ----

/// Algorithm 7 — removes declarations whose specifier is a pthread data
/// type (`pthread_t threads[3];`, `pthread_mutex_t m;`, …), globally and
/// locally.
pub(crate) struct RemoveTypesPass;

impl TransformPass for RemoveTypesPass {
    fn name(&self) -> &'static str {
        "remove-pthread-types"
    }

    fn run(&mut self, ctx: &mut PassContext<'_>) -> Result<(), TranslateError> {
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
}

// ----------------------------------------------------------------- 10 ----

/// Algorithm 8 — removes every remaining statement that calls a
/// `pthread_*` API function. The paper looks the callee up in a hash table
/// of the API's names: here [`PTHREAD_API`], the calls the VM runs as
/// pthreads. Any other `pthread_` call has no RCCE counterpart, and
/// deleting the statement around it would change what the program
/// computes, so it is refused. A launch is never removed either:
/// [`ThreadsToProcsPass`] converted or refused every `pthread_create`, so
/// one that is left is an internal error, not a statement to drop.
pub(crate) struct RemoveApiPass;

/// The pthread calls Algorithm 8 may remove: those `hsm_vm` knows as
/// intrinsics.
const PTHREAD_API: [&str; 11] = [
    "pthread_create",
    "pthread_join",
    "pthread_exit",
    "pthread_self",
    "pthread_mutex_init",
    "pthread_mutex_lock",
    "pthread_mutex_unlock",
    "pthread_mutex_destroy",
    "pthread_barrier_init",
    "pthread_barrier_wait",
    "pthread_barrier_destroy",
];

impl TransformPass for RemoveApiPass {
    fn name(&self) -> &'static str {
        "remove-pthread-api"
    }

    fn run(&mut self, ctx: &mut PassContext<'_>) -> Result<(), TranslateError> {
        for f in ctx.unit.functions_mut() {
            if f.body
                .iter()
                .any(|s| stmt_contains_call(s, "pthread_create"))
            {
                return Err(TranslateError::internal(format!(
                    "a `pthread_create` in `{}` was neither converted nor refused",
                    f.name
                )));
            }
            let mut unknown = None;
            retain_stmts(&mut f.body, &mut |s| {
                let mut contains_api = false;
                hsm_cir::walk_exprs_in_stmt(s, &mut |e| {
                    if let Some(t) = e.call_target().filter(|t| t.starts_with("pthread_")) {
                        contains_api = true;
                        if !PTHREAD_API.contains(&t) {
                            unknown.get_or_insert_with(|| t.to_string());
                        }
                    }
                });
                !contains_api
            });
            if let Some(call) = unknown {
                return Err(TranslateError::unsupported(format!(
                    "`{call}` in `{}` has no RCCE counterpart",
                    f.name
                )));
            }
        }
        Ok(())
    }
}

// ----------------------------------------------------------------- 11 ----

/// Removes local declarations orphaned by the conversion: zero remaining
/// references and a side-effect-free initializer.
pub(crate) struct UnusedLocalsPass;

impl TransformPass for UnusedLocalsPass {
    fn name(&self) -> &'static str {
        "remove-unused-locals"
    }

    fn run(&mut self, ctx: &mut PassContext<'_>) -> Result<(), TranslateError> {
        for f in ctx.unit.functions_mut() {
            // A local is dead when nothing references it and its
            // initializer is a literal. Removing such a declaration
            // removes no reference, so one sweep finds every dead local.
            let mut dead: Vec<String> = Vec::new();
            for_each_decl(&f.body, &mut |d| {
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

// ----------------------------------------------------------------- 12 ----

/// Drops private, entirely-unused globals (the post-Stage-3 cleanup that
/// removes `global` from Example Code 4.2).
pub(crate) struct DropPrivateGlobalsPass;

impl TransformPass for DropPrivateGlobalsPass {
    fn name(&self) -> &'static str {
        "drop-private-globals"
    }

    fn run(&mut self, ctx: &mut PassContext<'_>) -> Result<(), TranslateError> {
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
}
