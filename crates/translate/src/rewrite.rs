//! AST construction and rewriting utilities shared by the passes.

use hsm_cir::CType;
use hsm_cir::Span;
use hsm_cir::{
    AssignOp, BinaryOp, Declaration, Expr, ExprKind, ForInit, NodeId, Stmt, StmtKind, Storage,
    TranslationUnit, UnaryOp, VarDecl,
};

/// Builds fresh AST nodes against a unit's id counter.
pub(crate) struct Builder<'a> {
    unit: &'a mut TranslationUnit,
}

impl<'a> Builder<'a> {
    /// Creates a builder minting ids from `unit`.
    pub(crate) fn new(unit: &'a mut TranslationUnit) -> Self {
        Builder { unit }
    }

    /// An expression node of `kind`.
    fn expr(&mut self, kind: ExprKind) -> Expr {
        Expr {
            id: self.unit.fresh_id(),
            kind,
            span: Span::default(),
        }
    }

    /// A statement node of `kind`.
    pub(crate) fn stmt(&mut self, kind: StmtKind) -> Stmt {
        Stmt {
            id: self.unit.fresh_id(),
            kind,
            span: Span::default(),
        }
    }

    /// `name`
    pub(crate) fn ident(&mut self, name: &str) -> Expr {
        self.expr(ExprKind::Ident(name.to_string()))
    }

    /// An integer literal.
    pub(crate) fn int(&mut self, v: i64) -> Expr {
        self.expr(ExprKind::IntLit(v))
    }

    /// `&inner`
    pub(crate) fn addr_of(&mut self, inner: Expr) -> Expr {
        self.expr(ExprKind::Unary(UnaryOp::Addr, Box::new(inner)))
    }

    /// `(ty)inner`
    pub(crate) fn cast(&mut self, ty: CType, inner: Expr) -> Expr {
        self.expr(ExprKind::Cast(ty, Box::new(inner)))
    }

    /// `sizeof(ty)`
    pub(crate) fn sizeof(&mut self, ty: CType) -> Expr {
        self.expr(ExprKind::SizeofType(ty))
    }

    /// `*inner`
    pub(crate) fn deref(&mut self, inner: Expr) -> Expr {
        self.expr(ExprKind::Unary(UnaryOp::Deref, Box::new(inner)))
    }

    /// `base[idx]`
    pub(crate) fn index(&mut self, base: Expr, idx: i64) -> Expr {
        let idx = self.int(idx);
        self.expr(ExprKind::Index(Box::new(base), Box::new(idx)))
    }

    /// `{ stmts }`
    pub(crate) fn block(&mut self, stmts: Vec<Stmt>) -> Stmt {
        self.stmt(StmtKind::Block(stmts))
    }

    /// `l op r`
    pub(crate) fn binary(&mut self, op: BinaryOp, l: Expr, r: Expr) -> Expr {
        self.expr(ExprKind::Binary(op, Box::new(l), Box::new(r)))
    }

    /// `var op k`
    pub(crate) fn var_op(&mut self, var: &str, op: BinaryOp, k: i64) -> Expr {
        let (var, k) = (self.ident(var), self.int(k));
        self.binary(op, var, k)
    }

    /// `callee(args...)`
    pub(crate) fn call(&mut self, callee: &str, args: Vec<Expr>) -> Expr {
        let callee = self.ident(callee);
        self.expr(ExprKind::Call(Box::new(callee), args))
    }

    /// `lhs = rhs`
    pub(crate) fn assign(&mut self, lhs: Expr, rhs: Expr) -> Expr {
        self.expr(ExprKind::Assign(
            AssignOp::Assign,
            Box::new(lhs),
            Box::new(rhs),
        ))
    }

    /// `expr;`
    pub(crate) fn expr_stmt(&mut self, e: Expr) -> Stmt {
        self.stmt(StmtKind::Expr(Some(e)))
    }

    /// `ty name;` (no initializer)
    pub(crate) fn decl_stmt(&mut self, name: &str, ty: CType) -> Stmt {
        let var = VarDecl {
            id: self.unit.fresh_id(),
            name: name.to_string(),
            ty,
            init: None,
            span: Span::default(),
        };
        let decl = Declaration {
            id: self.unit.fresh_id(),
            storage: Storage::None,
            vars: vec![var],
            span: Span::default(),
        };
        self.stmt(StmtKind::Decl(decl))
    }

    /// `if (var op k) { body }` — the guard that confines statements to
    /// some cores: `myID == 0`, or `myID < total` when the target has more
    /// cores than the source has threads.
    pub(crate) fn guard(&mut self, var: &str, op: BinaryOp, k: i64, body: Vec<Stmt>) -> Stmt {
        let cond = self.var_op(var, op, k);
        let block = self.block(body);
        self.stmt(StmtKind::If(cond, Box::new(block), None))
    }
}

/// [`walk_stmt_mut`] over every statement of every function body in `unit`.
pub(crate) fn walk_unit_mut(unit: &mut TranslationUnit, f: &mut impl FnMut(&mut Expr) -> bool) {
    for func in unit.functions_mut() {
        for s in &mut func.body {
            walk_stmt_mut(s, f);
        }
    }
}

/// Calls `f` on every expression in a statement tree, mutably, at the
/// positions and in the order of [`hsm_cir::walk_exprs_in_stmt`]: a
/// statement's own expressions before its nested statements, each
/// expression before its operands. `f` returns whether to descend into
/// the operands of the expression it was handed (as it left them).
pub(crate) fn walk_stmt_mut(s: &mut Stmt, f: &mut impl FnMut(&mut Expr) -> bool) {
    match &mut s.kind {
        StmtKind::Expr(Some(e)) | StmtKind::Return(Some(e)) => walk_expr_mut(e, f),
        StmtKind::Decl(d) => walk_inits_mut(d, f),
        StmtKind::Block(stmts) => {
            for st in stmts {
                walk_stmt_mut(st, f);
            }
        }
        StmtKind::If(c, then, els) => {
            walk_expr_mut(c, f);
            walk_stmt_mut(then, f);
            if let Some(e) = els {
                walk_stmt_mut(e, f);
            }
        }
        StmtKind::While(c, body) | StmtKind::DoWhile(body, c) => {
            walk_expr_mut(c, f);
            walk_stmt_mut(body, f);
        }
        StmtKind::For(init, cond, step, body) => {
            match init {
                Some(ForInit::Decl(d)) => walk_inits_mut(d, f),
                Some(ForInit::Expr(e)) => walk_expr_mut(e, f),
                None => {}
            }
            for e in [cond, step].into_iter().flatten() {
                walk_expr_mut(e, f);
            }
            walk_stmt_mut(body, f);
        }
        StmtKind::Switch(scrutinee, body) => {
            walk_expr_mut(scrutinee, f);
            for st in body {
                walk_stmt_mut(st, f);
            }
        }
        _ => {}
    }
}

fn walk_inits_mut(d: &mut Declaration, f: &mut impl FnMut(&mut Expr) -> bool) {
    for init in d.vars.iter_mut().filter_map(|v| v.init.as_mut()) {
        walk_expr_mut(init, f);
    }
}

/// Calls `f` on `e`, then, when it returns `true`, on its operands.
pub(crate) fn walk_expr_mut(e: &mut Expr, f: &mut impl FnMut(&mut Expr) -> bool) {
    if !f(e) {
        return;
    }
    match &mut e.kind {
        ExprKind::Unary(_, inner)
        | ExprKind::PostIncDec(inner, _)
        | ExprKind::Cast(_, inner)
        | ExprKind::SizeofExpr(inner)
        | ExprKind::Member(inner, _, _) => walk_expr_mut(inner, f),
        ExprKind::Binary(_, l, r)
        | ExprKind::Assign(_, l, r)
        | ExprKind::Comma(l, r)
        | ExprKind::Index(l, r) => {
            walk_expr_mut(l, f);
            walk_expr_mut(r, f);
        }
        ExprKind::Ternary(c, t, e2) => {
            for x in [c, t, e2] {
                walk_expr_mut(x, f);
            }
        }
        ExprKind::Call(callee, args) => {
            walk_expr_mut(callee, f);
            for a in args {
                walk_expr_mut(a, f);
            }
        }
        ExprKind::InitList(items) => {
            for it in items {
                walk_expr_mut(it, f);
            }
        }
        _ => {}
    }
}

/// Replaces every occurrence of identifier `from` with identifier `to`.
fn subst_ident<'a>(from: &'a str, to: &'a str) -> impl FnMut(&mut Expr) -> bool + 'a {
    move |e| {
        if let ExprKind::Ident(name) = &mut e.kind {
            if name == from {
                *name = to.to_string();
            }
        }
        true
    }
}

/// Replaces identifier `from` with `to` in an expression tree.
pub(crate) fn subst_ident_expr(e: &mut Expr, from: &str, to: &str) {
    walk_expr_mut(e, &mut subst_ident(from, to));
}

/// Replaces identifier `from` with `to` in a statement tree.
pub(crate) fn subst_ident_stmt(s: &mut Stmt, from: &str, to: &str) {
    walk_stmt_mut(s, &mut subst_ident(from, to));
}

/// Keeps, in every statement list of a function body, the statements
/// `keep` accepts; nested lists are filtered before the statement that
/// holds them is offered. A nested body that is a single statement
/// becomes a block, so removing it leaves a well-formed `{}`.
pub(crate) fn retain_stmts(body: &mut Vec<Stmt>, keep: &mut impl FnMut(&Stmt) -> bool) {
    body.retain_mut(|s| {
        match &mut s.kind {
            StmtKind::Block(stmts) | StmtKind::Switch(_, stmts) => retain_stmts(stmts, keep),
            StmtKind::If(_, then, els) => {
                retain_boxed(then, keep);
                if let Some(e) = els {
                    retain_boxed(e, keep);
                }
            }
            StmtKind::While(_, b) | StmtKind::DoWhile(b, _) | StmtKind::For(_, _, _, b) => {
                retain_boxed(b, keep)
            }
            _ => {}
        }
        keep(s)
    });
}

fn retain_boxed(s: &mut Stmt, keep: &mut impl FnMut(&Stmt) -> bool) {
    let inner = std::mem::replace(
        s,
        Stmt {
            id: NodeId(u32::MAX),
            kind: StmtKind::Block(vec![]),
            span: Span::default(),
        },
    );
    let mut stmts = match inner.kind {
        StmtKind::Block(stmts) => stmts,
        _ => vec![inner],
    };
    retain_stmts(&mut stmts, keep);
    s.kind = StmtKind::Block(stmts);
}

/// Calls `f` on every statement in a function body, nested ones included,
/// pre-order.
pub(crate) fn for_each_stmt<'a>(body: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
    for s in body {
        f(s);
        match &s.kind {
            StmtKind::Block(stmts) | StmtKind::Switch(_, stmts) => for_each_stmt(stmts, f),
            StmtKind::If(_, then, els) => {
                for_each_stmt(std::slice::from_ref(&**then), f);
                if let Some(e) = els {
                    for_each_stmt(std::slice::from_ref(&**e), f);
                }
            }
            StmtKind::While(_, b) | StmtKind::DoWhile(b, _) | StmtKind::For(_, _, _, b) => {
                for_each_stmt(std::slice::from_ref(&**b), f)
            }
            _ => {}
        }
    }
}

/// Whether a statement (tree) contains a direct call to `target`.
pub(crate) fn stmt_contains_call(s: &Stmt, target: &str) -> bool {
    let mut found = false;
    hsm_cir::walk_exprs_in_stmt(s, &mut |e| {
        if e.call_target() == Some(target) {
            found = true;
        }
    });
    found
}

/// Counts identifier references to `name` in a function body (declarations
/// do not count as references).
pub(crate) fn count_refs(body: &[Stmt], name: &str) -> usize {
    let mut count = 0;
    for s in body {
        hsm_cir::walk_exprs_in_stmt(s, &mut |e| {
            if e.as_ident() == Some(name) {
                count += 1;
            }
        });
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsm_cir::parse;
    use hsm_cir::print_unit;

    #[test]
    fn builder_produces_printable_nodes() {
        let mut tu = parse("int main() { return 0; }").unwrap();
        let mut b = Builder::new(&mut tu);
        let call = b.call("RCCE_init", vec![]);
        let stmt = b.expr_stmt(call);
        tu.function_mut("main").unwrap().body.insert(0, stmt);
        let out = print_unit(&tu);
        assert!(out.contains("RCCE_init();"), "{out}");
        parse(&out).expect("still parses");
    }

    #[test]
    fn subst_renames_all_occurrences() {
        let mut tu =
            parse("int main() { int local = 0; local = local + 1; return local; }").unwrap();
        let main = tu.function_mut("main").unwrap();
        for s in &mut main.body {
            subst_ident_stmt(s, "local", "myID");
        }
        let out = print_unit(&tu);
        assert!(!out.contains("local = local"), "{out}");
        assert!(out.contains("myID = myID + 1;"), "{out}");
        // The declaration's *name* is untouched (only references change).
        assert!(out.contains("int local = 0;"), "{out}");
    }

    #[test]
    fn retain_stmts_deletes_and_braces_single_bodies() {
        let mut tu = parse("int main() { int a; a = 1; a = 2; if (a) a = 1; return a; }").unwrap();
        let main = tu.function_mut("main").unwrap();
        retain_stmts(
            &mut main.body,
            &mut |s| !matches!(&s.kind, StmtKind::Expr(Some(e)) if hsm_cir::print_expr(e) == "a = 1"),
        );
        let out = print_unit(&tu);
        assert!(!out.contains("a = 1"), "{out}");
        assert_eq!(out.matches("a = 2;").count(), 1, "{out}");
        assert!(out.contains("if (a)\n    {\n    }"), "{out}");
    }

    #[test]
    fn retain_stmts_recurses_into_loops() {
        let mut tu =
            parse("int main() { int i; for (i = 0; i < 3; i++) { i = 9; } return 0; }").unwrap();
        let main = tu.function_mut("main").unwrap();
        let mut seen = 0;
        retain_stmts(&mut main.body, &mut |s| {
            if matches!(&s.kind, StmtKind::Expr(Some(e)) if hsm_cir::print_expr(e) == "i = 9") {
                seen += 1;
            }
            true
        });
        assert_eq!(seen, 1);
    }

    #[test]
    fn for_each_stmt_finds_nested_declarations() {
        let tu = parse("int main() { int a; if (a) { int b; while (b) { int c; } } return 0; }")
            .unwrap();
        let mut names = Vec::new();
        for_each_stmt(&tu.function("main").unwrap().body, &mut |s| {
            if let StmtKind::Decl(d) = &s.kind {
                names.push(d.vars[0].name.as_str())
            }
        });
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn count_refs_ignores_declarations() {
        let tu = parse("int main() { int a = 1; int b; b = 2; return b; }").unwrap();
        let main = tu.function("main").unwrap();
        assert_eq!(count_refs(&main.body, "a"), 0);
        assert_eq!(count_refs(&main.body, "b"), 2);
    }

    #[test]
    fn guard_renders_if() {
        let mut tu = parse("void w(int x) { } int main() { return 0; }").unwrap();
        let mut b = Builder::new(&mut tu);
        let arg = b.int(0);
        let call = b.call("w", vec![arg]);
        let body = b.expr_stmt(call);
        let stmt = b.guard("myID", BinaryOp::Eq, 2, vec![body]);
        tu.function_mut("main").unwrap().body.insert(0, stmt);
        let out = print_unit(&tu);
        assert!(out.contains("if (myID == 2)"), "{out}");
        assert!(out.contains("w(0);"), "{out}");
    }
}
