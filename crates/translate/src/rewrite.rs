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

    fn id(&mut self) -> NodeId {
        self.unit.fresh_id()
    }

    /// `name`
    pub(crate) fn ident(&mut self, name: &str) -> Expr {
        Expr {
            id: self.id(),
            kind: ExprKind::Ident(name.to_string()),
            span: Span::default(),
        }
    }

    /// An integer literal.
    pub(crate) fn int(&mut self, v: i64) -> Expr {
        Expr {
            id: self.id(),
            kind: ExprKind::IntLit(v),
            span: Span::default(),
        }
    }

    /// `&inner`
    pub(crate) fn addr_of(&mut self, inner: Expr) -> Expr {
        Expr {
            id: self.id(),
            kind: ExprKind::Unary(UnaryOp::Addr, Box::new(inner)),
            span: Span::default(),
        }
    }

    /// `(ty)inner`
    pub(crate) fn cast(&mut self, ty: CType, inner: Expr) -> Expr {
        Expr {
            id: self.id(),
            kind: ExprKind::Cast(ty, Box::new(inner)),
            span: Span::default(),
        }
    }

    /// `sizeof(ty)`
    pub(crate) fn sizeof(&mut self, ty: CType) -> Expr {
        Expr {
            id: self.id(),
            kind: ExprKind::SizeofType(ty),
            span: Span::default(),
        }
    }

    /// `l op r`
    pub(crate) fn binary(&mut self, op: BinaryOp, l: Expr, r: Expr) -> Expr {
        Expr {
            id: self.id(),
            kind: ExprKind::Binary(op, Box::new(l), Box::new(r)),
            span: Span::default(),
        }
    }

    /// `callee(args...)`
    pub(crate) fn call(&mut self, callee: &str, args: Vec<Expr>) -> Expr {
        let callee = self.ident(callee);
        Expr {
            id: self.id(),
            kind: ExprKind::Call(Box::new(callee), args),
            span: Span::default(),
        }
    }

    /// `lhs = rhs`
    pub(crate) fn assign(&mut self, lhs: Expr, rhs: Expr) -> Expr {
        Expr {
            id: self.id(),
            kind: ExprKind::Assign(AssignOp::Assign, Box::new(lhs), Box::new(rhs)),
            span: Span::default(),
        }
    }

    /// `expr;`
    pub(crate) fn expr_stmt(&mut self, e: Expr) -> Stmt {
        Stmt {
            id: self.id(),
            kind: StmtKind::Expr(Some(e)),
            span: Span::default(),
        }
    }

    /// `ty name;` (no initializer)
    pub(crate) fn decl_stmt(&mut self, name: &str, ty: CType) -> Stmt {
        let vid = self.id();
        let did = self.id();
        let sid = self.id();
        Stmt {
            id: sid,
            kind: StmtKind::Decl(Declaration {
                id: did,
                storage: Storage::None,
                vars: vec![VarDecl {
                    id: vid,
                    name: name.to_string(),
                    ty,
                    init: None,
                    span: Span::default(),
                }],
                span: Span::default(),
            }),
            span: Span::default(),
        }
    }

    /// `if (var == k) { call; }`
    pub(crate) fn guarded_call(&mut self, var: &str, k: i64, call: Expr) -> Stmt {
        let lhs = self.ident(var);
        let rhs = self.int(k);
        let cond = self.binary(BinaryOp::Eq, lhs, rhs);
        let body = self.expr_stmt(call);
        let sid = self.id();
        Stmt {
            id: sid,
            kind: StmtKind::If(cond, Box::new(body), None),
            span: Span::default(),
        }
    }

    /// `if (var < upper) { body }` — the idle-core guard used when the
    /// target has more cores than the source has threads.
    pub(crate) fn lt_guard(&mut self, var: &str, upper: i64, body: Vec<Stmt>) -> Stmt {
        let lhs = self.ident(var);
        let rhs = self.int(upper);
        let cond = self.binary(BinaryOp::Lt, lhs, rhs);
        let bid = self.id();
        let block = Stmt {
            id: bid,
            kind: StmtKind::Block(body),
            span: Span::default(),
        };
        let sid = self.id();
        Stmt {
            id: sid,
            kind: StmtKind::If(cond, Box::new(block), None),
            span: Span::default(),
        }
    }
}

/// Replaces every occurrence of identifier `from` with identifier `to` in
/// an expression tree.
pub(crate) fn subst_ident_expr(e: &mut Expr, from: &str, to: &str) {
    match &mut e.kind {
        ExprKind::Ident(name) if name == from => *name = to.to_string(),
        ExprKind::Ident(_) => {}
        ExprKind::Unary(_, inner)
        | ExprKind::PostIncDec(inner, _)
        | ExprKind::Cast(_, inner)
        | ExprKind::SizeofExpr(inner) => subst_ident_expr(inner, from, to),
        ExprKind::Binary(_, l, r) | ExprKind::Assign(_, l, r) | ExprKind::Comma(l, r) => {
            subst_ident_expr(l, from, to);
            subst_ident_expr(r, from, to);
        }
        ExprKind::Ternary(c, t, f) => {
            subst_ident_expr(c, from, to);
            subst_ident_expr(t, from, to);
            subst_ident_expr(f, from, to);
        }
        ExprKind::Call(callee, args) => {
            subst_ident_expr(callee, from, to);
            for a in args {
                subst_ident_expr(a, from, to);
            }
        }
        ExprKind::Index(b, i) => {
            subst_ident_expr(b, from, to);
            subst_ident_expr(i, from, to);
        }
        ExprKind::Member(b, _, _) => subst_ident_expr(b, from, to),
        ExprKind::InitList(items) => {
            for it in items {
                subst_ident_expr(it, from, to);
            }
        }
        _ => {}
    }
}

/// Replaces identifier `from` with `to` in a statement tree.
pub(crate) fn subst_ident_stmt(s: &mut Stmt, from: &str, to: &str) {
    match &mut s.kind {
        StmtKind::Expr(Some(e)) => subst_ident_expr(e, from, to),
        StmtKind::Decl(d) => {
            for v in &mut d.vars {
                if let Some(init) = &mut v.init {
                    subst_ident_expr(init, from, to);
                }
            }
        }
        StmtKind::Block(stmts) => {
            for st in stmts {
                subst_ident_stmt(st, from, to);
            }
        }
        StmtKind::If(c, then, els) => {
            subst_ident_expr(c, from, to);
            subst_ident_stmt(then, from, to);
            if let Some(e) = els {
                subst_ident_stmt(e, from, to);
            }
        }
        StmtKind::While(c, body) => {
            subst_ident_expr(c, from, to);
            subst_ident_stmt(body, from, to);
        }
        StmtKind::DoWhile(body, c) => {
            subst_ident_stmt(body, from, to);
            subst_ident_expr(c, from, to);
        }
        StmtKind::For(init, cond, step, body) => {
            match init {
                Some(ForInit::Decl(d)) => {
                    for v in &mut d.vars {
                        if let Some(i) = &mut v.init {
                            subst_ident_expr(i, from, to);
                        }
                    }
                }
                Some(ForInit::Expr(e)) => subst_ident_expr(e, from, to),
                None => {}
            }
            if let Some(c) = cond {
                subst_ident_expr(c, from, to);
            }
            if let Some(st) = step {
                subst_ident_expr(st, from, to);
            }
            subst_ident_stmt(body, from, to);
        }
        StmtKind::Switch(scrutinee, body) => {
            subst_ident_expr(scrutinee, from, to);
            for st in body {
                subst_ident_stmt(st, from, to);
            }
        }
        StmtKind::Return(Some(e)) => subst_ident_expr(e, from, to),
        _ => {}
    }
}

/// Applies a bottom-up transformation to every statement list in a
/// function body, letting `f` replace each statement with zero or more
/// statements.
pub(crate) fn map_stmts(body: &mut Vec<Stmt>, f: &mut impl FnMut(Stmt) -> Vec<Stmt>) {
    let old = std::mem::take(body);
    for mut s in old {
        // Recurse into nested bodies first.
        match &mut s.kind {
            StmtKind::Block(stmts) => map_stmts(stmts, f),
            StmtKind::If(_, then, els) => {
                map_boxed(then, f);
                if let Some(e) = els {
                    map_boxed(e, f);
                }
            }
            StmtKind::While(_, b) | StmtKind::DoWhile(b, _) => map_boxed(b, f),
            StmtKind::For(_, _, _, b) => map_boxed(b, f),
            StmtKind::Switch(_, stmts) => map_stmts(stmts, f),
            _ => {}
        }
        body.extend(f(s));
    }
}

fn map_boxed(s: &mut Box<Stmt>, f: &mut impl FnMut(Stmt) -> Vec<Stmt>) {
    // Wrap a single nested statement into a block so replacements with
    // zero-or-many statements stay well-formed.
    let inner = std::mem::replace(
        s.as_mut(),
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
    map_stmts(&mut stmts, f);
    s.kind = StmtKind::Block(stmts);
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
    fn map_stmts_can_delete_and_expand() {
        let mut tu = parse("int main() { int a; a = 1; a = 2; return a; }").unwrap();
        let main = tu.function_mut("main").unwrap();
        let mut body = std::mem::take(&mut main.body);
        map_stmts(&mut body, &mut |s| {
            // Delete `a = 1;`, duplicate `a = 2;`.
            match &s.kind {
                StmtKind::Expr(Some(e)) => {
                    let printed = hsm_cir::print_expr(e);
                    if printed == "a = 1" {
                        vec![]
                    } else if printed == "a = 2" {
                        vec![s.clone(), s]
                    } else {
                        vec![s]
                    }
                }
                _ => vec![s],
            }
        });
        tu.function_mut("main").unwrap().body = body;
        let out = print_unit(&tu);
        assert!(!out.contains("a = 1"), "{out}");
        assert_eq!(out.matches("a = 2;").count(), 2, "{out}");
    }

    #[test]
    fn map_stmts_recurses_into_loops() {
        let mut tu =
            parse("int main() { int i; for (i = 0; i < 3; i++) { i = 9; } return 0; }").unwrap();
        let main = tu.function_mut("main").unwrap();
        let mut body = std::mem::take(&mut main.body);
        let mut seen = 0;
        map_stmts(&mut body, &mut |s| {
            if matches!(&s.kind, StmtKind::Expr(Some(e)) if hsm_cir::print_expr(e) == "i = 9") {
                seen += 1;
            }
            vec![s]
        });
        assert_eq!(seen, 1);
    }

    #[test]
    fn count_refs_ignores_declarations() {
        let tu = parse("int main() { int a = 1; int b; b = 2; return b; }").unwrap();
        let main = tu.function("main").unwrap();
        assert_eq!(count_refs(&main.body, "a"), 0);
        assert_eq!(count_refs(&main.body, "b"), 2);
    }

    #[test]
    fn guarded_call_renders_if() {
        let mut tu = parse("void w(int x) { } int main() { return 0; }").unwrap();
        let mut b = Builder::new(&mut tu);
        let arg = b.int(0);
        let call = b.call("w", vec![arg]);
        let stmt = b.guarded_call("myID", 2, call);
        tu.function_mut("main").unwrap().body.insert(0, stmt);
        let out = print_unit(&tu);
        assert!(out.contains("if (myID == 2)"), "{out}");
        assert!(out.contains("w(0);"), "{out}");
    }
}
