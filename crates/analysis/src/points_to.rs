//! Stage 3 — Alias and Pointer ("Points-to") Analysis (Algorithm 2).
//!
//! A dataflow points-to analysis over the CIR, replacing the CETUS built-in
//! the paper leverages: pointer relationships are collected from pointer
//! assignments (including through function calls and returns), iterated to a
//! fixed point, and classified as **definite** or **possible** (assignments
//! under conditional control flow, or pointers with several candidate
//! targets, are possible).
//!
//! Algorithm 2 then walks the relationship map: if a *shared* pointer
//! definitely points at an object, that object becomes shared too — this is
//! how `tmp` flips from private to shared in Table 4.2. A conservative mode
//! also propagates across possible edges (the paper's stated goal is a
//! conservative superset of shared data; marking a shared-reachable object
//! private would produce incorrect translated programs).

use crate::access::VarKey;
use crate::scope::ScopeAnalysis;
use crate::sharing::{SharingMap, SharingStatus};
use hsm_cir::{
    AssignOp, BinaryOp, Declaration, Expr, ExprKind, ForInit, Item, Stmt, StmtKind,
    TranslationUnit, UnaryOp,
};
use hsm_cir::{Scope, SymbolKind, SymbolTable};
use std::collections::{BTreeMap, BTreeSet};

/// One edge in the relationship map: `pointer` may point at `target`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct PointsToFact {
    /// The pointer variable.
    pub pointer: VarKey,
    /// The pointed-at variable.
    pub target: VarKey,
    /// Whether the relationship definitely holds on every execution.
    pub definite: bool,
}

/// How aggressively Algorithm 2 propagates sharing across the map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Propagation {
    /// Follow only definite edges (the literal Algorithm 2).
    DefiniteOnly,
    /// Follow definite and possible edges (conservative superset; default).
    #[default]
    Conservative,
}

/// The result of Stage 3.
#[derive(Debug, Clone, Default)]
pub struct PointsToAnalysis {
    facts: Vec<PointsToFact>,
}

impl PointsToAnalysis {
    /// Collects pointer relationships and iterates them to a fixed point.
    pub fn run(tu: &TranslationUnit, symbols: &SymbolTable) -> Self {
        let mut collector = Collector {
            symbols,
            current_fn: String::new(),
            cond_depth: 0,
            direct: BTreeSet::new(),
            copies: BTreeSet::new(),
        };
        for item in &tu.items {
            match item {
                Item::Decl(d) => {
                    collector.current_fn = String::new();
                    collector.collect_decl(d);
                }
                Item::Func(f) => {
                    collector.current_fn = f.name.clone();
                    for s in &f.body {
                        collector.collect_stmt(s);
                    }
                }
            }
        }
        collector.collect_calls(tu);

        // Fixed point: expand copy edges into direct facts.
        let mut direct: BTreeSet<(VarKey, VarKey, bool)> = collector.direct.clone();
        loop {
            let mut added = false;
            for (dst, src, copy_def) in &collector.copies {
                let new_facts: Vec<(VarKey, VarKey, bool)> = direct
                    .iter()
                    .filter(|(p, _, _)| p == src)
                    .map(|(_, t, d)| (dst.clone(), t.clone(), *d && *copy_def))
                    .collect();
                for f in new_facts {
                    // Insert, upgrading definiteness if already present.
                    if direct.contains(&(f.0.clone(), f.1.clone(), true)) {
                        continue;
                    }
                    if f.2 {
                        direct.remove(&(f.0.clone(), f.1.clone(), false));
                    }
                    if direct.insert(f) {
                        added = true;
                    }
                }
            }
            if !added {
                break;
            }
        }

        // A pointer with several distinct targets can only "possibly" point
        // at each of them.
        let mut per_ptr: BTreeMap<VarKey, Vec<(VarKey, bool)>> = BTreeMap::new();
        for (p, t, d) in direct {
            per_ptr.entry(p).or_default().push((t, d));
        }
        let mut facts = Vec::new();
        for (pointer, mut targets) in per_ptr {
            targets.sort();
            targets.dedup_by(|a, b| a.0 == b.0 && (b.1 || !a.1));
            let multi = targets
                .iter()
                .map(|(t, _)| t)
                .collect::<BTreeSet<_>>()
                .len()
                > 1;
            for (target, definite) in targets {
                facts.push(PointsToFact {
                    pointer: pointer.clone(),
                    target,
                    definite: definite && !multi,
                });
            }
        }
        PointsToAnalysis { facts }
    }

    /// All collected facts, sorted.
    pub fn facts(&self) -> &[PointsToFact] {
        &self.facts
    }

    /// Targets of `pointer` with their definiteness.
    pub fn targets(&self, pointer: &VarKey) -> Vec<(&VarKey, bool)> {
        self.facts
            .iter()
            .filter(|f| &f.pointer == pointer)
            .map(|f| (&f.target, f.definite))
            .collect()
    }

    /// Algorithm 2: update the sharing map — if a shared pointer points at
    /// an object, the object becomes shared. Iterates to a fixed point so
    /// pointer chains (`q = p; p = &x`) resolve. Afterwards, the paper's
    /// post-processing demotes globals that are entirely unused to private.
    pub(crate) fn apply_to_sharing(
        &self,
        scope: &ScopeAnalysis,
        sharing: &mut SharingMap,
        mode: Propagation,
    ) {
        // Fixed point over facts.
        loop {
            let mut changed = false;
            for fact in &self.facts {
                if !fact.definite && mode == Propagation::DefiniteOnly {
                    continue;
                }
                if sharing.status(&fact.pointer.name).is_shared()
                    && !sharing.status(&fact.target.name).is_shared()
                {
                    let got = sharing.record(&fact.target.name, SharingStatus::Shared);
                    changed |= got == SharingStatus::Shared;
                }
            }
            if !changed {
                break;
            }
        }
        // Post-processing: defined-but-entirely-unused globals become
        // private and may be removed from the source altogether.
        for var in scope.globals() {
            if var.counts.total() == 0 {
                sharing.record(&var.key.name, SharingStatus::Private);
            } else {
                // Re-record the surviving status so every variable has a
                // stage-3 entry in its history (Table 4.2's third column).
                sharing.record(&var.key.name, sharing.status(&var.key.name));
            }
        }
        for var in &scope.variables {
            if !var.is_global {
                sharing.record(&var.key.name, sharing.status(&var.key.name));
            }
        }
    }
}

struct Collector<'a> {
    symbols: &'a SymbolTable,
    current_fn: String,
    cond_depth: u32,
    /// (pointer, target, definite)
    direct: BTreeSet<(VarKey, VarKey, bool)>,
    /// (dst pointer, src pointer, definite)
    copies: BTreeSet<(VarKey, VarKey, bool)>,
}

impl Collector<'_> {
    fn resolve(&self, name: &str) -> Option<(VarKey, hsm_cir::CType)> {
        let sym = if self.current_fn.is_empty() {
            self.symbols.global(name)?
        } else {
            self.symbols.lookup(&self.current_fn, name)?
        };
        if sym.kind != SymbolKind::Variable {
            return None;
        }
        let key = match &sym.scope {
            Scope::Global => VarKey::global(name),
            Scope::Local(f) | Scope::Param(f) => VarKey::local(f.clone(), name),
        };
        Some((key, sym.ty.clone()))
    }

    fn is_pointer_var(&self, name: &str) -> bool {
        self.resolve(name)
            .map(|(_, ty)| ty.is_pointer() || ty.is_array())
            .unwrap_or(false)
    }

    fn definite(&self) -> bool {
        self.cond_depth == 0
    }

    fn collect_decl(&mut self, d: &Declaration) {
        for v in &d.vars {
            if let Some(init) = &v.init {
                if v.ty.is_pointer() {
                    if let Some((key, _)) = self.resolve(&v.name) {
                        self.record_pointer_rhs(&key, init);
                    }
                }
                self.collect_expr(init);
            }
        }
    }

    fn collect_stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Expr(Some(e)) => self.collect_expr(e),
            StmtKind::Decl(d) => self.collect_decl(d),
            StmtKind::Block(stmts) => {
                for st in stmts {
                    self.collect_stmt(st);
                }
            }
            StmtKind::If(c, then, els) => {
                self.collect_expr(c);
                self.cond_depth += 1;
                self.collect_stmt(then);
                if let Some(e) = els {
                    self.collect_stmt(e);
                }
                self.cond_depth -= 1;
            }
            StmtKind::While(c, body) => {
                self.collect_expr(c);
                self.cond_depth += 1;
                self.collect_stmt(body);
                self.cond_depth -= 1;
            }
            StmtKind::DoWhile(body, c) => {
                // A do-while body executes at least once: stays definite.
                self.collect_stmt(body);
                self.collect_expr(c);
            }
            StmtKind::For(init, cond, step, body) => {
                match init {
                    Some(ForInit::Decl(d)) => self.collect_decl(d),
                    Some(ForInit::Expr(e)) => self.collect_expr(e),
                    None => {}
                }
                if let Some(c) = cond {
                    self.collect_expr(c);
                }
                self.cond_depth += 1;
                if let Some(st) = step {
                    self.collect_expr(st);
                }
                self.collect_stmt(body);
                self.cond_depth -= 1;
            }
            StmtKind::Switch(scrutinee, body) => {
                self.collect_expr(scrutinee);
                self.cond_depth += 1;
                for st in body {
                    self.collect_stmt(st);
                }
                self.cond_depth -= 1;
            }
            StmtKind::Return(Some(e)) => {
                self.collect_expr(e);
                // Record the return-value pseudo-variable's targets for
                // interprocedural flow.
                if !self.current_fn.is_empty() {
                    let ret_key = VarKey::local(self.current_fn.clone(), "__return");
                    self.record_pointer_rhs(&ret_key, e);
                }
            }
            _ => {}
        }
    }

    fn collect_expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Assign(AssignOp::Assign, lhs, rhs) => {
                if let Some(name) = lhs.as_ident() {
                    if self.is_pointer_var(name) {
                        if let Some((key, _)) = self.resolve(name) {
                            self.record_pointer_rhs(&key, rhs);
                        }
                    }
                }
                self.collect_expr(rhs);
            }
            ExprKind::Assign(_, lhs, rhs) => {
                self.collect_expr(lhs);
                self.collect_expr(rhs);
            }
            ExprKind::Unary(_, inner)
            | ExprKind::PostIncDec(inner, _)
            | ExprKind::Cast(_, inner)
            | ExprKind::SizeofExpr(inner) => self.collect_expr(inner),
            ExprKind::Binary(_, l, r) | ExprKind::Comma(l, r) => {
                self.collect_expr(l);
                self.collect_expr(r);
            }
            ExprKind::Ternary(c, t, f) => {
                self.collect_expr(c);
                self.cond_depth += 1;
                self.collect_expr(t);
                self.collect_expr(f);
                self.cond_depth -= 1;
            }
            ExprKind::Call(_, args) => {
                for a in args {
                    self.collect_expr(a);
                }
            }
            ExprKind::Index(b, i) => {
                self.collect_expr(b);
                self.collect_expr(i);
            }
            ExprKind::Member(b, _, _) => self.collect_expr(b),
            ExprKind::InitList(items) => {
                for it in items {
                    self.collect_expr(it);
                }
            }
            _ => {}
        }
    }

    /// Records what `rhs` makes `dst` point at.
    fn record_pointer_rhs(&mut self, dst: &VarKey, rhs: &Expr) {
        let def = self.definite();
        match &rhs.peel_casts().kind {
            ExprKind::Unary(UnaryOp::Addr, inner) => {
                if let Some(base) = inner.base_variable() {
                    if let Some((target, _)) = self.resolve(base) {
                        self.direct.insert((dst.clone(), target, def));
                    }
                }
            }
            ExprKind::Ident(name) => {
                if let Some((src, ty)) = self.resolve(name) {
                    if ty.is_array() {
                        // Array name decays: dst points at the array.
                        self.direct.insert((dst.clone(), src, def));
                    } else if ty.is_pointer() {
                        self.copies.insert((dst.clone(), src, def));
                    }
                }
            }
            ExprKind::Binary(BinaryOp::Add | BinaryOp::Sub, l, r) => {
                // Pointer arithmetic: propagate from the pointer operand.
                self.record_pointer_rhs(dst, l);
                self.record_pointer_rhs(dst, r);
            }
            ExprKind::Call(callee, _) => {
                if let Some(fname) = callee.as_ident() {
                    let ret_key = VarKey::local(fname.to_string(), "__return");
                    self.copies.insert((dst.clone(), ret_key, def));
                }
            }
            ExprKind::Ternary(_, t, f) => {
                self.cond_depth += 1;
                self.record_pointer_rhs(dst, t);
                self.record_pointer_rhs(dst, f);
                self.cond_depth -= 1;
            }
            ExprKind::Index(base, _) => {
                // `p = &a[i]` arrives as Addr(Index(..)); a bare `a[i]`
                // only matters when the element type is itself a pointer.
                if let Some(name) = base.base_variable() {
                    if let Some((src, ty)) = self.resolve(name) {
                        if matches!(ty.element(), Some(t) if t.is_pointer()) {
                            self.copies.insert((dst.clone(), src, false));
                        }
                    }
                }
            }
            _ => {}
        }
    }

    /// Interprocedural argument-to-parameter flow for every direct call.
    fn collect_calls(&mut self, tu: &TranslationUnit) {
        // Pre-compute parameter keys per function.
        let param_keys: BTreeMap<String, Vec<(VarKey, bool)>> = tu
            .functions()
            .map(|f| {
                (
                    f.name.clone(),
                    f.params
                        .iter()
                        .map(|p| {
                            (
                                VarKey::local(f.name.clone(), p.name.clone()),
                                p.ty.is_pointer(),
                            )
                        })
                        .collect(),
                )
            })
            .collect();

        for f in tu.functions() {
            self.current_fn = f.name.clone();
            let mut sites: Vec<(String, Vec<Expr>)> = Vec::new();
            for s in &f.body {
                hsm_cir::walk_exprs_in_stmt(s, &mut |e| {
                    if let ExprKind::Call(callee, args) = &e.kind {
                        if let Some(name) = callee.as_ident() {
                            sites.push((name.to_string(), args.clone()));
                        }
                    }
                });
            }
            for (callee, args) in sites {
                if callee == "pthread_create" && args.len() >= 4 {
                    // Arg 4 flows into the entry function's first parameter.
                    if let Some(entry) = args[2].peel_casts().as_ident() {
                        if let Some(params) = param_keys.get(entry) {
                            if let Some((pkey, _)) = params.first() {
                                let pkey = pkey.clone();
                                self.record_pointer_rhs(&pkey, &args[3]);
                            }
                        }
                    }
                    continue;
                }
                if let Some(params) = param_keys.get(&callee) {
                    let pairs: Vec<(VarKey, Expr)> = params
                        .iter()
                        .zip(args.iter())
                        .filter(|((_, is_ptr), _)| *is_ptr)
                        .map(|((k, _), a)| (k.clone(), a.clone()))
                        .collect();
                    for (pkey, arg) in pairs {
                        self.record_pointer_rhs(&pkey, &arg);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interthread::InterThreadAnalysis;
    use crate::threads::ThreadModel;
    use hsm_cir::parse;

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

    fn full_pipeline(src: &str) -> (ScopeAnalysis, SharingMap, PointsToAnalysis) {
        let tu = parse(src).unwrap();
        let symbols = SymbolTable::build(&tu);
        let mut sharing = SharingMap::new();
        let scope = ScopeAnalysis::run(&tu, &symbols, &mut sharing);
        let model = ThreadModel::discover(&tu, &Default::default());
        InterThreadAnalysis::run(&scope, &model, &mut sharing);
        let pts = PointsToAnalysis::run(&tu, &symbols);
        pts.apply_to_sharing(&scope, &mut sharing, Propagation::Conservative);
        (scope, sharing, pts)
    }

    #[test]
    fn table_4_2_after_stage_3() {
        let (_, sharing, _) = full_pipeline(EXAMPLE_4_1);
        assert_eq!(
            sharing.status("global"),
            SharingStatus::Private,
            "unused global demoted"
        );
        assert_eq!(sharing.status("ptr"), SharingStatus::Shared);
        assert_eq!(sharing.status("sum"), SharingStatus::Shared);
        assert_eq!(
            sharing.status("tmp"),
            SharingStatus::Shared,
            "pointed-at by shared ptr"
        );
        for private in ["tLocal", "tid", "local", "threads", "rc"] {
            assert_eq!(sharing.status(private), SharingStatus::Private, "{private}");
        }
    }

    #[test]
    fn ptr_definitely_points_at_tmp() {
        let (_, _, pts) = full_pipeline(EXAMPLE_4_1);
        let targets = pts.targets(&VarKey::global("ptr"));
        assert_eq!(targets.len(), 1);
        assert_eq!(targets[0].0, &VarKey::local("main", "tmp"));
        assert!(targets[0].1, "straight-line assignment is definite");
    }

    #[test]
    fn conditional_assignment_is_possible() {
        let src = r#"
int *p;
int a;
int b;
int main() {
    if (a) { p = &a; } else { p = &b; }
    return 0;
}
"#;
        let (_, _, pts) = full_pipeline(src);
        let targets = pts.targets(&VarKey::global("p"));
        assert_eq!(targets.len(), 2);
        assert!(
            targets.iter().all(|(_, d)| !d),
            "if-else targets are possible"
        );
    }

    #[test]
    fn conservative_mode_shares_possible_targets() {
        // a and b are locals of main (private after stage 2); the shared
        // global pointer may point at either, so both must become shared.
        let src = r#"
int *p;
int cond;
void *tf(void *x) { *p = 1; return x; }
int main() {
    int a = 0;
    int b = 0;
    pthread_t t;
    if (cond) { p = &a; } else { p = &b; }
    pthread_create(&t, NULL, tf, NULL);
    return 0;
}
"#;
        let (_, sharing, _) = full_pipeline(src);
        assert_eq!(sharing.status("a"), SharingStatus::Shared);
        assert_eq!(sharing.status("b"), SharingStatus::Shared);
    }

    #[test]
    fn definite_only_mode_skips_possible_edges() {
        let src = r#"
int *p;
int cond;
int main() {
    int a = 0;
    int b = 0;
    if (cond) { p = &a; } else { p = &b; }
    return 0;
}
"#;
        let tu = parse(src).unwrap();
        let symbols = SymbolTable::build(&tu);
        let mut sharing = SharingMap::new();
        let scope = ScopeAnalysis::run(&tu, &symbols, &mut sharing);
        let model = ThreadModel::discover(&tu, &Default::default());
        InterThreadAnalysis::run(&scope, &model, &mut sharing);
        let pts = PointsToAnalysis::run(&tu, &symbols);
        pts.apply_to_sharing(&scope, &mut sharing, Propagation::DefiniteOnly);
        // The if-else edges are only "possible": the literal Algorithm 2
        // must not promote the locals.
        assert_eq!(sharing.status("a"), SharingStatus::Private);
        assert_eq!(sharing.status("b"), SharingStatus::Private);
    }

    #[test]
    fn pointer_copies_chain() {
        let src = r#"
int *p;
int *q;
int x;
int main() {
    p = &x;
    q = p;
    return *q;
}
"#;
        let (_, sharing, pts) = full_pipeline(src);
        let targets = pts.targets(&VarKey::global("q"));
        assert_eq!(targets.len(), 1);
        assert_eq!(targets[0].0, &VarKey::global("x"));
        assert!(targets[0].1);
        assert_eq!(sharing.status("x"), SharingStatus::Shared);
    }

    #[test]
    fn array_decay_points_at_array() {
        let src = r#"
double data[8];
double *p;
int main() {
    p = data;
    return 0;
}
"#;
        let (_, _, pts) = full_pipeline(src);
        let targets = pts.targets(&VarKey::global("p"));
        assert_eq!(targets[0].0, &VarKey::global("data"));
    }

    #[test]
    fn address_of_element_points_at_array() {
        let src = r#"
double data[8];
double *p;
int main() {
    p = &data[3];
    return 0;
}
"#;
        let (_, _, pts) = full_pipeline(src);
        let targets = pts.targets(&VarKey::global("p"));
        assert_eq!(targets[0].0, &VarKey::global("data"));
    }

    #[test]
    fn return_value_flows_to_caller() {
        let src = r#"
int x;
int *get() { return &x; }
int main() {
    int *p;
    p = get();
    return *p;
}
"#;
        let (_, _, pts) = full_pipeline(src);
        let targets = pts.targets(&VarKey::local("main", "p"));
        assert_eq!(targets.len(), 1);
        assert_eq!(targets[0].0, &VarKey::global("x"));
    }

    #[test]
    fn argument_flows_to_parameter() {
        let src = r#"
int x;
void use(int *p) { *p = 1; }
int main() {
    use(&x);
    return 0;
}
"#;
        let (_, _, pts) = full_pipeline(src);
        let targets = pts.targets(&VarKey::local("use", "p"));
        assert_eq!(targets.len(), 1);
        assert_eq!(targets[0].0, &VarKey::global("x"));
    }

    #[test]
    fn multiple_targets_demote_definiteness() {
        let src = r#"
int *p;
int a;
int b;
int main() {
    p = &a;
    p = &b;
    return 0;
}
"#;
        let (_, _, pts) = full_pipeline(src);
        let targets = pts.targets(&VarKey::global("p"));
        assert_eq!(targets.len(), 2);
        assert!(targets.iter().all(|(_, d)| !d));
    }
}
