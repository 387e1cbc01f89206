//! Lightweight read-only AST walkers, used by the symbol table, the
//! analysis stages and the translator's checks (Stage 5's rewrites walk the
//! same positions mutably, in `hsm-translate`).
//!
//! These are closure-based pre-order traversals rather than a full visitor
//! trait: every consumer in the pipeline only needs "give me every
//! expression / statement under this node".

use crate::ast::*;

/// Calls `f` on `e` and every sub-expression, pre-order.
pub(crate) fn walk_expr<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    f(e);
    match &e.kind {
        ExprKind::IntLit(_)
        | ExprKind::FloatLit(_)
        | ExprKind::CharLit(_)
        | ExprKind::StrLit(_)
        | ExprKind::Ident(_)
        | ExprKind::SizeofType(_) => {}
        ExprKind::Unary(_, inner)
        | ExprKind::PostIncDec(inner, _)
        | ExprKind::Cast(_, inner)
        | ExprKind::SizeofExpr(inner) => walk_expr(inner, f),
        ExprKind::Binary(_, l, r) | ExprKind::Assign(_, l, r) | ExprKind::Comma(l, r) => {
            walk_expr(l, f);
            walk_expr(r, f);
        }
        ExprKind::Ternary(c, t, e2) => {
            walk_expr(c, f);
            walk_expr(t, f);
            walk_expr(e2, f);
        }
        ExprKind::Call(callee, args) => {
            walk_expr(callee, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::Index(b, i) => {
            walk_expr(b, f);
            walk_expr(i, f);
        }
        ExprKind::Member(b, _, _) => walk_expr(b, f),
        ExprKind::InitList(items) => {
            for it in items {
                walk_expr(it, f);
            }
        }
    }
}

/// Calls `f` on `s` and every nested statement, pre-order.
pub(crate) fn walk_stmt(s: &Stmt, f: &mut impl FnMut(&Stmt)) {
    f(s);
    match &s.kind {
        StmtKind::Block(stmts) => {
            for st in stmts {
                walk_stmt(st, f);
            }
        }
        StmtKind::If(_, then, els) => {
            walk_stmt(then, f);
            if let Some(e) = els {
                walk_stmt(e, f);
            }
        }
        StmtKind::While(_, body) | StmtKind::DoWhile(body, _) => walk_stmt(body, f),
        StmtKind::For(_, _, _, body) => walk_stmt(body, f),
        StmtKind::Switch(_, body) => {
            for st in body {
                walk_stmt(st, f);
            }
        }
        StmtKind::Expr(_)
        | StmtKind::Decl(_)
        | StmtKind::Return(_)
        | StmtKind::Break
        | StmtKind::Continue
        | StmtKind::Case(_)
        | StmtKind::Default => {}
    }
}

/// Calls `f` on every expression appearing anywhere inside `s` (conditions,
/// steps, initializers, nested statements).
pub fn walk_exprs_in_stmt(s: &Stmt, f: &mut impl FnMut(&Expr)) {
    walk_stmt(s, &mut |st| exprs_of_stmt_shallow(st, f));
}

/// Calls `f` on the expressions directly owned by `s` (not nested statements).
fn exprs_of_stmt_shallow(s: &Stmt, f: &mut impl FnMut(&Expr)) {
    match &s.kind {
        StmtKind::Expr(Some(e)) => walk_expr(e, f),
        StmtKind::Expr(None) | StmtKind::Break | StmtKind::Continue | StmtKind::Block(_) => {}
        StmtKind::Decl(d) => {
            for v in &d.vars {
                if let Some(init) = &v.init {
                    walk_expr(init, f);
                }
            }
        }
        StmtKind::If(c, _, _) => walk_expr(c, f),
        StmtKind::While(c, _) => walk_expr(c, f),
        StmtKind::DoWhile(_, c) => walk_expr(c, f),
        StmtKind::For(init, cond, step, _) => {
            match init {
                Some(ForInit::Decl(d)) => {
                    for v in &d.vars {
                        if let Some(i) = &v.init {
                            walk_expr(i, f);
                        }
                    }
                }
                Some(ForInit::Expr(e)) => walk_expr(e, f),
                None => {}
            }
            if let Some(c) = cond {
                walk_expr(c, f);
            }
            if let Some(st) = step {
                walk_expr(st, f);
            }
        }
        StmtKind::Switch(scrutinee, _) => walk_expr(scrutinee, f),
        StmtKind::Return(Some(e)) => walk_expr(e, f),
        StmtKind::Return(None) | StmtKind::Case(_) | StmtKind::Default => {}
    }
}

/// Collects every direct call to `target` in the unit, together with the
/// name of the function it appears in and whether it is inside a loop.
pub fn find_calls<'a>(tu: &'a TranslationUnit, target: &str) -> Vec<CallSite<'a>> {
    let mut out = Vec::new();
    for func in tu.functions() {
        for s in &func.body {
            collect_calls(s, target, &func.name, false, &mut out);
        }
    }
    out
}

/// A located direct call found by [`find_calls`].
#[derive(Debug, Clone)]
pub struct CallSite<'a> {
    /// The call expression itself.
    pub expr: &'a Expr,
    /// Name of the enclosing function definition.
    pub in_function: String,
    /// Whether the call is lexically inside a loop.
    pub in_loop: bool,
}

fn collect_calls<'a>(
    s: &'a Stmt,
    target: &str,
    in_function: &str,
    in_loop: bool,
    out: &mut Vec<CallSite<'a>>,
) {
    let visit_expr = |e: &'a Expr, in_loop: bool, out: &mut Vec<CallSite<'a>>| {
        walk_expr(e, &mut |sub: &'a Expr| {
            if sub.call_target() == Some(target) {
                out.push(CallSite {
                    expr: sub,
                    in_function: in_function.to_string(),
                    in_loop,
                });
            }
        });
    };
    match &s.kind {
        StmtKind::Expr(Some(e)) => visit_expr(e, in_loop, out),
        StmtKind::Decl(d) => {
            for v in &d.vars {
                if let Some(init) = &v.init {
                    visit_expr(init, in_loop, out);
                }
            }
        }
        StmtKind::Block(stmts) => {
            for st in stmts {
                collect_calls(st, target, in_function, in_loop, out);
            }
        }
        StmtKind::If(c, then, els) => {
            visit_expr(c, in_loop, out);
            collect_calls(then, target, in_function, in_loop, out);
            if let Some(e) = els {
                collect_calls(e, target, in_function, in_loop, out);
            }
        }
        StmtKind::While(c, body) => {
            visit_expr(c, true, out);
            collect_calls(body, target, in_function, true, out);
        }
        StmtKind::DoWhile(body, c) => {
            visit_expr(c, true, out);
            collect_calls(body, target, in_function, true, out);
        }
        StmtKind::For(init, cond, step, body) => {
            match init {
                Some(ForInit::Expr(e)) => visit_expr(e, in_loop, out),
                Some(ForInit::Decl(d)) => {
                    for v in &d.vars {
                        if let Some(i) = &v.init {
                            visit_expr(i, in_loop, out);
                        }
                    }
                }
                None => {}
            }
            if let Some(c) = cond {
                visit_expr(c, true, out);
            }
            if let Some(st) = step {
                visit_expr(st, true, out);
            }
            collect_calls(body, target, in_function, true, out);
        }
        StmtKind::Switch(scrutinee, body) => {
            visit_expr(scrutinee, in_loop, out);
            for st in body {
                collect_calls(st, target, in_function, in_loop, out);
            }
        }
        StmtKind::Return(Some(e)) => visit_expr(e, in_loop, out),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn walk_expr_visits_all_nodes() {
        let tu = parse("int main() { int x; x = 1 + 2 * 3; return x; }").unwrap();
        let main = tu.function("main").unwrap();
        let mut count = 0;
        for s in &main.body {
            walk_exprs_in_stmt(s, &mut |_| count += 1);
        }
        // x=..(assign), x(ident), +(bin), 1, *(bin), 2, 3, x(return) = 8
        assert_eq!(count, 8);
    }

    #[test]
    fn find_calls_flags_loops() {
        let src = r#"
void tf(int x) { }
int main() {
    int i;
    tf(0);
    for (i = 0; i < 3; i++) { tf(i); }
    while (i > 0) { i--; tf(i); }
    return 0;
}
"#;
        let tu = parse(src).unwrap();
        let calls = find_calls(&tu, "tf");
        assert_eq!(calls.len(), 3);
        assert!(!calls[0].in_loop);
        assert!(calls[1].in_loop);
        assert!(calls[2].in_loop);
        assert!(calls.iter().all(|c| c.in_function == "main"));
    }

    #[test]
    fn walk_exprs_in_stmt_covers_conditions_and_steps() {
        let tu =
            parse("int main() { int i; for (i = 0; i < 9; i++) { i += 1; } return 0; }").unwrap();
        let main = tu.function("main").unwrap();
        let mut idents = 0;
        walk_exprs_in_stmt(&main.body[1], &mut |e| {
            if e.as_ident().is_some() {
                idents += 1;
            }
        });
        // i (init), i (cond), i (step), i (body) = 4 identifier mentions
        assert_eq!(idents, 4);
    }

    #[test]
    fn find_calls_looks_inside_switch() {
        let src = "void tf(int x) { } int main() { int k; switch (k) { case 1: tf(1); break; } \
                   for (;;) { switch (k) { default: tf(2); } } return 0; }";
        let tu = parse(src).unwrap();
        let calls = find_calls(&tu, "tf");
        assert_eq!(calls.len(), 2);
        assert!(!calls[0].in_loop);
        assert!(calls[1].in_loop);
    }

    #[test]
    fn calls_in_condition_of_while_are_in_loop() {
        let tu = parse("int check(); int main() { while (check()) { } return 0; }").unwrap();
        let calls = find_calls(&tu, "check");
        assert_eq!(calls.len(), 1);
        assert!(calls[0].in_loop);
    }
}
