//! Read/write access counting (the Rd/Wr/Use-In/Def-In columns of
//! Table 4.1).
//!
//! Two counting modes are provided:
//!
//! * [`CountMode::Occurrence`] — each syntactic access site counts once.
//!   This is what Stage 1's per-variable table reports.
//! * [`CountMode::LoopWeighted`] — accesses inside loops are multiplied by
//!   the loop's trip count when it constant-folds (unknown loops use a
//!   fixed weight). Stage 4's partitioner uses this as its access-frequency
//!   estimate, which is how the paper "approximates data read and write
//!   counts from all the threads".
//!
//! Note on fidelity: the thesis' Table 4.1 mixes the two conventions (e.g.
//! `rc` is reported with loop-weighted writes while `local` is reported
//! with occurrence counts and no declaration-initializer write). We
//! implement both modes with consistent rules and record the deviation in
//! EXPERIMENTS.md.

use hsm_cir::const_fold;
use hsm_cir::{
    AssignOp, BinaryOp, Declaration, Expr, ExprKind, ForInit, Item, Stmt, StmtKind,
    TranslationUnit, UnaryOp,
};
use hsm_cir::{Scope, SymbolTable};
use std::collections::HashMap;

/// How to weigh accesses inside loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum CountMode {
    /// Count each syntactic access once.
    #[default]
    Occurrence,
    /// Multiply by constant-folded trip counts (default weight for
    /// unbounded loops: 10).
    LoopWeighted,
}

/// Read/write totals for one variable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessCounts {
    /// Number of (possibly loop-weighted) reads.
    pub reads: u64,
    /// Number of (possibly loop-weighted) writes.
    pub writes: u64,
}

impl AccessCounts {
    /// Total accesses.
    pub fn total(&self) -> u64 {
        self.reads.saturating_add(self.writes)
    }
}

/// Uniquely identifies a variable: its name plus the function owning it
/// (`None` for globals), resolving C shadowing.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarKey {
    /// Variable name.
    pub name: String,
    /// Owning function for locals/params, `None` for globals.
    pub owner: Option<String>,
}

impl VarKey {
    /// A global variable key.
    pub fn global(name: impl Into<String>) -> Self {
        VarKey {
            name: name.into(),
            owner: None,
        }
    }

    /// A local/param variable key.
    pub fn local(owner: impl Into<String>, name: impl Into<String>) -> Self {
        VarKey {
            name: name.into(),
            owner: Some(owner.into()),
        }
    }
}

/// The result of the access-counting pass.
#[derive(Debug, Clone, Default)]
pub(crate) struct AccessMap {
    counts: HashMap<VarKey, AccessCounts>,
    /// Functions in which each variable is read ("Use In").
    used_in: HashMap<VarKey, Vec<String>>,
    /// Functions in which each variable is written ("Def In").
    defined_in: HashMap<VarKey, Vec<String>>,
    /// Variables whose address is taken somewhere (`&x`).
    address_taken: Vec<VarKey>,
}

impl AccessMap {
    /// Runs the counting pass over `tu`.
    pub(crate) fn compute(tu: &TranslationUnit, symbols: &SymbolTable, mode: CountMode) -> Self {
        let mut pass = Counter {
            map: AccessMap::default(),
            symbols,
            mode,
            current_fn: String::new(),
            weight: 1,
        };
        for item in &tu.items {
            match item {
                Item::Decl(_) => {
                    // Global initializers are static initialization, not
                    // runtime stores: Table 4.1 reports `sum[3] = {0}` with
                    // Wr = 2 (only the `+=` stores in `tf`).
                }
                Item::Func(f) => {
                    pass.current_fn = f.name.clone();
                    for s in &f.body {
                        pass.count_stmt(s);
                    }
                }
            }
        }
        pass.map
    }

    /// Counts for `key` (zero if never accessed).
    pub(crate) fn counts(&self, key: &VarKey) -> AccessCounts {
        self.counts.get(key).copied().unwrap_or_default()
    }

    /// Functions in which the variable is read, in first-seen order.
    pub(crate) fn used_in(&self, key: &VarKey) -> &[String] {
        self.used_in.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Functions in which the variable is written, in first-seen order.
    pub(crate) fn defined_in(&self, key: &VarKey) -> &[String] {
        self.defined_in.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether the variable's address is taken anywhere.
    pub(crate) fn is_address_taken(&self, key: &VarKey) -> bool {
        self.address_taken.contains(key)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ctx {
    Read,
    Write,
    ReadWrite,
}

struct Counter<'a> {
    map: AccessMap,
    symbols: &'a SymbolTable,
    mode: CountMode,
    current_fn: String,
    weight: u64,
}

/// Loop weight applied to loops whose trip count does not constant-fold.
const UNKNOWN_LOOP_WEIGHT: u64 = 10;

impl Counter<'_> {
    fn resolve(&self, name: &str) -> Option<VarKey> {
        let sym = if self.current_fn.is_empty() {
            self.symbols.global(name)?
        } else {
            self.symbols.lookup(&self.current_fn, name)?
        };
        if sym.kind != hsm_cir::SymbolKind::Variable {
            return None;
        }
        Some(match &sym.scope {
            Scope::Global => VarKey::global(name),
            Scope::Local(f) | Scope::Param(f) => VarKey::local(f.clone(), name),
        })
    }

    fn bump(&mut self, name: &str, ctx: Ctx) {
        let Some(key) = self.resolve(name) else {
            return;
        };
        let c = self.map.counts.entry(key.clone()).or_default();
        let w = self.weight;
        // A weight saturates past 64 nested loops; so does a count.
        match ctx {
            Ctx::Read => c.reads = c.reads.saturating_add(w),
            Ctx::Write => c.writes = c.writes.saturating_add(w),
            Ctx::ReadWrite => {
                c.reads = c.reads.saturating_add(w);
                c.writes = c.writes.saturating_add(w);
            }
        }
        if !self.current_fn.is_empty() {
            if matches!(ctx, Ctx::Read | Ctx::ReadWrite) {
                let v = self.map.used_in.entry(key.clone()).or_default();
                if !v.contains(&self.current_fn) {
                    v.push(self.current_fn.clone());
                }
            }
            if matches!(ctx, Ctx::Write | Ctx::ReadWrite) {
                let v = self.map.defined_in.entry(key).or_default();
                if !v.contains(&self.current_fn) {
                    v.push(self.current_fn.clone());
                }
            }
        }
    }

    fn count_decl(&mut self, d: &Declaration) {
        for v in &d.vars {
            if let Some(init) = &v.init {
                self.count_expr(init, Ctx::Read);
                self.bump(&v.name, Ctx::Write);
            }
        }
    }

    fn count_stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Expr(Some(e)) => self.count_expr(e, Ctx::Read),
            StmtKind::Expr(None) | StmtKind::Break | StmtKind::Continue => {}
            StmtKind::Decl(d) => self.count_decl(d),
            StmtKind::Block(stmts) => {
                for st in stmts {
                    self.count_stmt(st);
                }
            }
            StmtKind::If(c, then, els) => {
                self.count_expr(c, Ctx::Read);
                self.count_stmt(then);
                if let Some(e) = els {
                    self.count_stmt(e);
                }
            }
            StmtKind::While(c, body) | StmtKind::DoWhile(body, c) => {
                let w = self.loop_weight(None);
                self.with_weight(w, |this| {
                    this.count_expr(c, Ctx::Read);
                    this.count_stmt(body);
                });
            }
            StmtKind::For(init, cond, step, body) => {
                match init {
                    Some(ForInit::Decl(d)) => self.count_decl(d),
                    Some(ForInit::Expr(e)) => self.count_expr(e, Ctx::Read),
                    None => {}
                }
                let trips = trip_count(init.as_ref(), cond.as_ref(), step.as_ref());
                let w = self.loop_weight(trips);
                self.with_weight(w, |this| {
                    if let Some(c) = cond {
                        this.count_expr(c, Ctx::Read);
                    }
                    if let Some(st) = step {
                        this.count_expr(st, Ctx::Read);
                    }
                    this.count_stmt(body);
                });
            }
            StmtKind::Switch(scrutinee, body) => {
                self.count_expr(scrutinee, Ctx::Read);
                for st in body {
                    self.count_stmt(st);
                }
            }
            StmtKind::Case(_) | StmtKind::Default => {}
            StmtKind::Return(Some(e)) => self.count_expr(e, Ctx::Read),
            StmtKind::Return(None) => {}
        }
    }

    fn loop_weight(&self, trips: Option<u64>) -> u64 {
        match self.mode {
            CountMode::Occurrence => 1,
            CountMode::LoopWeighted => trips.unwrap_or(UNKNOWN_LOOP_WEIGHT),
        }
    }

    fn with_weight(&mut self, factor: u64, f: impl FnOnce(&mut Self)) {
        let saved = self.weight;
        self.weight = saved.saturating_mul(factor);
        f(self);
        self.weight = saved;
    }

    fn count_expr(&mut self, e: &Expr, ctx: Ctx) {
        match &e.kind {
            ExprKind::Ident(name) => self.bump(name, ctx),
            ExprKind::IntLit(_)
            | ExprKind::FloatLit(_)
            | ExprKind::CharLit(_)
            | ExprKind::StrLit(_)
            | ExprKind::SizeofType(_) => {}
            ExprKind::Assign(op, lhs, rhs) => {
                let lhs_ctx = if op.binary_op().is_some() {
                    Ctx::ReadWrite
                } else {
                    Ctx::Write
                };
                self.count_expr(lhs, lhs_ctx);
                self.count_expr(rhs, Ctx::Read);
            }
            ExprKind::Unary(UnaryOp::PreInc | UnaryOp::PreDec, inner) => {
                self.count_expr(inner, Ctx::ReadWrite)
            }
            ExprKind::PostIncDec(inner, _) => self.count_expr(inner, Ctx::ReadWrite),
            ExprKind::Unary(UnaryOp::Addr, inner) => {
                // Taking an address reads the variable's location; the
                // paper's table counts `&tmp` as a read of `tmp`.
                if let Some(base) = inner.base_variable() {
                    if let Some(key) = self.resolve(base) {
                        if !self.map.address_taken.contains(&key) {
                            self.map.address_taken.push(key);
                        }
                    }
                    self.bump(base, Ctx::Read);
                }
                // Index expressions inside still read their indices.
                if let ExprKind::Index(_, idx) = &inner.kind {
                    self.count_expr(idx, Ctx::Read);
                }
            }
            ExprKind::Unary(UnaryOp::Deref, inner) => {
                // `*p` in any context reads the pointer itself; the access
                // through it is attributed to the pointer variable.
                self.count_expr(inner, ctx)
            }
            ExprKind::Unary(_, inner) => self.count_expr(inner, Ctx::Read),
            ExprKind::Binary(_, l, r) => {
                self.count_expr(l, Ctx::Read);
                self.count_expr(r, Ctx::Read);
            }
            ExprKind::Ternary(c, t, f) => {
                self.count_expr(c, Ctx::Read);
                self.count_expr(t, ctx);
                self.count_expr(f, ctx);
            }
            ExprKind::Call(_, args) => {
                for a in args {
                    self.count_expr(a, Ctx::Read);
                }
            }
            ExprKind::Index(base, idx) => {
                self.count_expr(idx, Ctx::Read);
                // The element access is attributed to the base variable.
                self.count_expr(base, ctx);
            }
            ExprKind::Member(base, _, _) => self.count_expr(base, ctx),
            ExprKind::Cast(_, inner) | ExprKind::SizeofExpr(inner) => {
                // sizeof does not evaluate, but the paper's occurrence
                // counting is syntactic; treat as read for uniformity.
                self.count_expr(inner, ctx)
            }
            ExprKind::Comma(l, r) => {
                self.count_expr(l, Ctx::Read);
                self.count_expr(r, ctx);
            }
            ExprKind::InitList(items) => {
                for it in items {
                    self.count_expr(it, Ctx::Read);
                }
            }
        }
    }
}

/// Constant-folds the trip count of a canonical counted `for` loop
/// (`for (i = a; i < b; i++)` and friends).
pub fn trip_count(init: Option<&ForInit>, cond: Option<&Expr>, step: Option<&Expr>) -> Option<u64> {
    let (ivar, start) = match init? {
        ForInit::Expr(e) => match &e.kind {
            ExprKind::Assign(AssignOp::Assign, lhs, rhs) => {
                (lhs.as_ident()?.to_string(), const_fold(rhs)? as i64)
            }
            _ => return None,
        },
        ForInit::Decl(d) => {
            let v = d.vars.first()?;
            (v.name.clone(), const_fold(v.init.as_ref()?)? as i64)
        }
    };
    let (bound, inclusive) = match &cond?.kind {
        ExprKind::Binary(op, lhs, rhs) if lhs.as_ident() == Some(&ivar) => {
            let b = const_fold(rhs)? as i64;
            match op {
                BinaryOp::Lt => (b, false),
                BinaryOp::Le => (b, true),
                _ => return None,
            }
        }
        _ => return None,
    };
    let stride = match &step?.kind {
        ExprKind::PostIncDec(lhs, true) if lhs.as_ident() == Some(&ivar) => 1i64,
        ExprKind::Unary(UnaryOp::PreInc, lhs) if lhs.as_ident() == Some(&ivar) => 1,
        ExprKind::Assign(AssignOp::AddAssign, lhs, rhs) if lhs.as_ident() == Some(&ivar) => {
            const_fold(rhs)? as i64
        }
        _ => return None,
    };
    if stride <= 0 {
        return None;
    }
    let span = bound - start + i64::from(inclusive);
    if span <= 0 {
        return Some(0);
    }
    Some(((span + stride - 1) / stride) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsm_cir::parse;

    fn analyze(src: &str, mode: CountMode) -> (AccessMap, SymbolTable) {
        let tu = parse(src).expect("parse");
        let symbols = SymbolTable::build(&tu);
        let map = AccessMap::compute(&tu, &symbols, mode);
        (map, symbols)
    }

    const EXAMPLE_4_1: &str = r#"
int global;
int *ptr;
int sum[3] = {0};

void *tf(void * tid) {
    int tLocal = (int)tid;
    sum[tLocal] += tLocal;
    sum[tLocal] += *ptr;
    pthread_exit(NULL);
}

int main() {
    int local = 0;
    int tmp = 1;
    ptr = &tmp;
    pthread_t threads[3];
    int rc;
    for(local = 0; local < 3; local++) {
        rc = pthread_create(&threads[local], NULL, tf, (void *) local);
    }
    for(local = 0; local < 3; local++) {
        pthread_join(threads[local], NULL);
        printf("Sum Array: %d\n", sum[local]);
    }
    return 0;
}
"#;

    #[test]
    fn example_4_1_occurrence_counts() {
        let (map, _) = analyze(EXAMPLE_4_1, CountMode::Occurrence);
        // global: never accessed.
        assert_eq!(
            map.counts(&VarKey::global("global")),
            AccessCounts::default()
        );
        // ptr: written once (main), read once (*ptr in tf).
        let ptr = map.counts(&VarKey::global("ptr"));
        assert_eq!((ptr.reads, ptr.writes), (1, 1));
        // sum: += twice (rd+wr each) and one read in printf.
        let sum = map.counts(&VarKey::global("sum"));
        assert_eq!((sum.reads, sum.writes), (3, 2));
        // tLocal: 1 decl write; reads: two indices + one operand = 3.
        let tl = map.counts(&VarKey::local("tf", "tLocal"));
        assert_eq!((tl.reads, tl.writes), (3, 1));
        // tid: read once in the cast.
        let tid = map.counts(&VarKey::local("tf", "tid"));
        assert_eq!((tid.reads, tid.writes), (1, 0));
        // threads: &threads[local] (read) + threads[local] in join (read).
        let th = map.counts(&VarKey::local("main", "threads"));
        assert_eq!((th.reads, th.writes), (2, 0));
        // rc: written once syntactically, never read.
        let rc = map.counts(&VarKey::local("main", "rc"));
        assert_eq!((rc.reads, rc.writes), (0, 1));
        // local: 8 reads (2x: cond, step, index, launch-arg), 5 writes
        // (decl init + 2x loop init/step).
        let local = map.counts(&VarKey::local("main", "local"));
        assert_eq!((local.reads, local.writes), (8, 5));
    }

    #[test]
    fn example_4_1_loop_weighted_counts() {
        let (map, _) = analyze(EXAMPLE_4_1, CountMode::LoopWeighted);
        // rc is written once per iteration of a 3-trip loop: matches the
        // thesis table's Wr = 3.
        let rc = map.counts(&VarKey::local("main", "rc"));
        assert_eq!(rc.writes, 3);
        // sum: 2 rw per tf call (not weighted: tf body has no loop) plus
        // 3 printf reads.
        let sum = map.counts(&VarKey::global("sum"));
        assert_eq!(sum.reads, 2 + 3);
    }

    #[test]
    fn use_def_sets_match_table_4_1() {
        let (map, _) = analyze(EXAMPLE_4_1, CountMode::Occurrence);
        assert_eq!(map.used_in(&VarKey::global("ptr")), ["tf"]);
        assert_eq!(map.defined_in(&VarKey::global("ptr")), ["main"]);
        assert_eq!(map.used_in(&VarKey::global("sum")), ["tf", "main"]);
        assert_eq!(map.defined_in(&VarKey::global("sum")), ["tf"]);
        assert!(map.used_in(&VarKey::global("global")).is_empty());
        assert!(map.defined_in(&VarKey::global("global")).is_empty());
        assert_eq!(map.defined_in(&VarKey::local("main", "rc")), ["main"]);
    }

    #[test]
    fn address_taken_is_tracked() {
        let (map, _) = analyze(EXAMPLE_4_1, CountMode::Occurrence);
        assert!(map.is_address_taken(&VarKey::local("main", "tmp")));
        assert!(map.is_address_taken(&VarKey::local("main", "threads")));
        assert!(!map.is_address_taken(&VarKey::global("sum")));
    }

    #[test]
    fn trip_count_canonical_forms() {
        let src = "int main() { int i; int a[100]; for (i = 0; i < 10; i++) a[i] = i; for (i = 2; i <= 10; i += 2) a[i] = i; return 0; }";
        let tu = parse(src).unwrap();
        let main = tu.function("main").unwrap();
        let StmtKind::For(init, cond, step, _) = &main.body[2].kind else {
            panic!()
        };
        assert_eq!(
            trip_count(init.as_ref(), cond.as_ref(), step.as_ref()),
            Some(10)
        );
        let StmtKind::For(init, cond, step, _) = &main.body[3].kind else {
            panic!()
        };
        assert_eq!(
            trip_count(init.as_ref(), cond.as_ref(), step.as_ref()),
            Some(5)
        );
    }

    #[test]
    fn unknown_loops_get_default_weight() {
        let src = "int g; int main() { int n; while (n > 0) { g = g + 1; n--; } return 0; }";
        let (map, _) = analyze(src, CountMode::LoopWeighted);
        let g = map.counts(&VarKey::global("g"));
        assert_eq!(g.writes, UNKNOWN_LOOP_WEIGHT);
        assert_eq!(g.reads, UNKNOWN_LOOP_WEIGHT);
    }

    #[test]
    fn nested_loops_multiply() {
        let src = "int g; int main() { int i; int j; for (i = 0; i < 4; i++) { for (j = 0; j < 5; j++) { g = 1; } } return 0; }";
        let (map, _) = analyze(src, CountMode::LoopWeighted);
        assert_eq!(map.counts(&VarKey::global("g")).writes, 20);
    }

    #[test]
    fn shadowing_local_is_counted_separately() {
        let src = "int x; int main() { int x; x = 1; return 0; } int f() { x = 2; return 0; }";
        let (map, _) = analyze(src, CountMode::Occurrence);
        assert_eq!(map.counts(&VarKey::local("main", "x")).writes, 1);
        assert_eq!(map.counts(&VarKey::global("x")).writes, 1);
    }

    #[test]
    fn compound_assign_counts_read_and_write() {
        let src = "int a; int main() { a += 2; return 0; }";
        let (map, _) = analyze(src, CountMode::Occurrence);
        let a = map.counts(&VarKey::global("a"));
        assert_eq!((a.reads, a.writes), (1, 1));
    }

    #[test]
    fn zero_trip_loop_counts_zero_in_weighted_mode() {
        let src = "int g; int main() { int i; for (i = 5; i < 5; i++) { g = 1; } return 0; }";
        let (map, _) = analyze(src, CountMode::LoopWeighted);
        assert_eq!(map.counts(&VarKey::global("g")).writes, 0);
    }
}
