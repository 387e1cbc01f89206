//! Symbol tables: every named variable and function in a translation unit,
//! with its type and defining scope.
//!
//! Stage 1 of the paper ("Variable Scope Analysis") begins by separating
//! locals from globals; this module supplies that classification to all
//! later stages.

use crate::ast::{ForInit, FunctionDef, Item, Stmt, StmtKind, Storage, TranslationUnit};
use crate::span::Span;
use crate::types::CType;
use std::collections::HashMap;
use std::fmt;

/// Where a symbol is defined.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Scope {
    /// File scope (a global variable or function).
    Global,
    /// Local to the named function (declared in its body).
    Local(String),
    /// A parameter of the named function.
    Param(String),
}

impl Scope {
    /// The enclosing function name for locals/params, `None` for globals.
    pub fn function(&self) -> Option<&str> {
        match self {
            Scope::Global => None,
            Scope::Local(f) | Scope::Param(f) => Some(f),
        }
    }
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scope::Global => write!(f, "global"),
            Scope::Local(name) => write!(f, "local({name})"),
            Scope::Param(name) => write!(f, "param({name})"),
        }
    }
}

/// What kind of entity a symbol names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymbolKind {
    /// A data variable.
    Variable,
    /// A function definition or prototype.
    Function,
    /// A typedef alias.
    TypeAlias,
}

/// A named entity in the program.
#[derive(Debug, Clone, PartialEq)]
pub struct Symbol {
    /// The symbol's name.
    pub name: String,
    /// Its declared type.
    pub ty: CType,
    /// Its scope.
    pub scope: Scope,
    /// What it names.
    pub kind: SymbolKind,
    /// Declaration site.
    pub span: Span,
    /// Whether the declaration carried an initializer.
    pub has_init: bool,
}

/// The symbol table for one translation unit.
///
/// Lookup follows C scoping: a local (or parameter) shadows a global of the
/// same name within its function.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    globals: HashMap<String, Symbol>,
    /// function name -> (symbol name -> symbol)
    locals: HashMap<String, HashMap<String, Symbol>>,
    /// Insertion-ordered names for stable reporting.
    order: Vec<(Option<String>, String)>,
}

impl SymbolTable {
    /// Builds the symbol table for `tu`.
    ///
    /// ```
    /// # fn main() -> Result<(), hsm_cir::ParseError> {
    /// use hsm_cir::{parse, SymbolTable};
    /// let tu = parse("int g; int main() { int l; return l + g; }")?;
    /// let syms = SymbolTable::build(&tu);
    /// assert!(syms.lookup("main", "l").is_some());
    /// assert_eq!(syms.lookup("main", "g").unwrap().scope.function(), None);
    /// # Ok(())
    /// # }
    /// ```
    pub fn build(tu: &TranslationUnit) -> Self {
        let mut table = SymbolTable::default();
        for item in &tu.items {
            match item {
                Item::Decl(d) => {
                    for v in &d.vars {
                        let kind = match (&d.storage, &v.ty) {
                            (Storage::Typedef, _) => SymbolKind::TypeAlias,
                            (_, CType::Function { .. }) => SymbolKind::Function,
                            _ => SymbolKind::Variable,
                        };
                        table.insert_global(Symbol {
                            name: v.name.clone(),
                            ty: v.ty.clone(),
                            scope: Scope::Global,
                            kind,
                            span: v.span,
                            has_init: v.init.is_some(),
                        });
                    }
                }
                Item::Func(f) => {
                    table.insert_global(Symbol {
                        name: f.name.clone(),
                        ty: CType::Function {
                            ret: Box::new(f.ret.clone()),
                            params: f.params.iter().map(|p| p.ty.clone()).collect(),
                        },
                        scope: Scope::Global,
                        kind: SymbolKind::Function,
                        span: f.span,
                        has_init: true,
                    });
                    table.collect_function(f);
                }
            }
        }
        table
    }

    fn insert_global(&mut self, sym: Symbol) {
        if !self.globals.contains_key(&sym.name) {
            self.order.push((None, sym.name.clone()));
        }
        // A definition (has_init / function body) wins over a prototype.
        match self.globals.get(&sym.name) {
            Some(existing) if existing.has_init && !sym.has_init => {}
            _ => {
                self.globals.insert(sym.name.clone(), sym);
            }
        }
    }

    fn insert_local(&mut self, func: &str, sym: Symbol) {
        let entry = self.locals.entry(func.to_string()).or_default();
        if !entry.contains_key(&sym.name) {
            self.order.push((Some(func.to_string()), sym.name.clone()));
        }
        entry.insert(sym.name.clone(), sym);
    }

    fn collect_function(&mut self, f: &FunctionDef) {
        for p in &f.params {
            if p.name.is_empty() {
                continue;
            }
            self.insert_local(
                &f.name,
                Symbol {
                    name: p.name.clone(),
                    ty: p.ty.clone(),
                    scope: Scope::Param(f.name.clone()),
                    kind: SymbolKind::Variable,
                    span: f.span,
                    has_init: true,
                },
            );
        }
        for s in &f.body {
            self.collect_stmt(&f.name, s);
        }
    }

    fn collect_stmt(&mut self, func: &str, s: &Stmt) {
        match &s.kind {
            StmtKind::Decl(d) => {
                for v in &d.vars {
                    self.insert_local(
                        func,
                        Symbol {
                            name: v.name.clone(),
                            ty: v.ty.clone(),
                            scope: Scope::Local(func.to_string()),
                            kind: SymbolKind::Variable,
                            span: v.span,
                            has_init: v.init.is_some(),
                        },
                    );
                }
            }
            StmtKind::Block(stmts) => {
                for st in stmts {
                    self.collect_stmt(func, st);
                }
            }
            StmtKind::If(_, then, els) => {
                self.collect_stmt(func, then);
                if let Some(e) = els {
                    self.collect_stmt(func, e);
                }
            }
            StmtKind::While(_, body) | StmtKind::DoWhile(body, _) => self.collect_stmt(func, body),
            StmtKind::Switch(_, body) => {
                for st in body {
                    self.collect_stmt(func, st);
                }
            }
            StmtKind::For(init, _, _, body) => {
                if let Some(ForInit::Decl(d)) = init {
                    for v in &d.vars {
                        self.insert_local(
                            func,
                            Symbol {
                                name: v.name.clone(),
                                ty: v.ty.clone(),
                                scope: Scope::Local(func.to_string()),
                                kind: SymbolKind::Variable,
                                span: v.span,
                                has_init: v.init.is_some(),
                            },
                        );
                    }
                }
                self.collect_stmt(func, body);
            }
            _ => {}
        }
    }

    /// Looks up `name` as seen from inside `func`: locals and parameters
    /// shadow globals.
    pub fn lookup(&self, func: &str, name: &str) -> Option<&Symbol> {
        self.locals
            .get(func)
            .and_then(|m| m.get(name))
            .or_else(|| self.globals.get(name))
    }

    /// Looks up a global symbol by name.
    pub fn global(&self, name: &str) -> Option<&Symbol> {
        self.globals.get(name)
    }

    /// All global data variables (functions and typedefs excluded), in
    /// declaration order.
    pub fn global_variables(&self) -> Vec<&Symbol> {
        self.order
            .iter()
            .filter(|(f, _)| f.is_none())
            .filter_map(|(_, n)| self.globals.get(n))
            .filter(|s| s.kind == SymbolKind::Variable)
            .collect()
    }

    /// Every symbol in the unit, in declaration order (globals and locals).
    pub fn iter(&self) -> impl Iterator<Item = &Symbol> {
        self.order.iter().filter_map(move |(f, n)| match f {
            None => self.globals.get(n),
            Some(func) => self.locals.get(func).and_then(|m| m.get(n)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const EXAMPLE: &str = r#"
int global;
int *ptr;
int sum[3] = {0};

void *tf(void *tid) {
    int tLocal = (int)tid;
    sum[tLocal] += tLocal;
    return tid;
}

int main() {
    int local = 0;
    int tmp = 1;
    pthread_t threads[3];
    int rc;
    return 0;
}
"#;

    #[test]
    fn classifies_globals_and_locals() {
        let tu = parse(EXAMPLE).unwrap();
        let t = SymbolTable::build(&tu);
        let globals: Vec<_> = t
            .global_variables()
            .iter()
            .map(|s| s.name.clone())
            .collect();
        assert_eq!(globals, vec!["global", "ptr", "sum"]);
        let locals_of = |func| -> Vec<_> {
            t.iter()
                .filter(|s| s.scope.function() == Some(func))
                .map(|s| s.name.clone())
                .collect()
        };
        assert_eq!(locals_of("main"), vec!["local", "tmp", "threads", "rc"]);
        assert_eq!(locals_of("tf"), vec!["tid", "tLocal"]);
    }

    #[test]
    fn params_are_scoped_to_their_function() {
        let tu = parse(EXAMPLE).unwrap();
        let t = SymbolTable::build(&tu);
        let tid = t.lookup("tf", "tid").unwrap();
        assert_eq!(tid.scope, Scope::Param("tf".into()));
        assert!(t.lookup("main", "tid").is_none());
    }

    #[test]
    fn locals_shadow_globals() {
        let tu = parse("int x; int main() { int x; return x; }").unwrap();
        let t = SymbolTable::build(&tu);
        let seen = t.lookup("main", "x").unwrap();
        assert_eq!(seen.scope, Scope::Local("main".into()));
        // From another function the global is visible.
        assert_eq!(t.lookup("other", "x").unwrap().scope, Scope::Global);
    }

    #[test]
    fn functions_are_symbols() {
        let tu = parse(EXAMPLE).unwrap();
        let t = SymbolTable::build(&tu);
        let functions: Vec<_> = t
            .iter()
            .filter(|s| s.kind == SymbolKind::Function)
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(functions, vec!["tf", "main"]);
        assert_eq!(t.global("tf").unwrap().kind, SymbolKind::Function);
    }

    #[test]
    fn definition_beats_prototype() {
        let tu = parse("int f(int); int f(int x) { return x; }").unwrap();
        let t = SymbolTable::build(&tu);
        let f = t.global("f").unwrap();
        assert!(f.has_init, "definition should win");
    }

    #[test]
    fn for_loop_decl_is_local() {
        let tu = parse("int main() { for (int i = 0; i < 3; i++) { } return 0; }").unwrap();
        let t = SymbolTable::build(&tu);
        assert!(t.lookup("main", "i").is_some());
    }

    #[test]
    fn has_init_reflects_initializers() {
        let tu = parse("int a; int b = 1;").unwrap();
        let t = SymbolTable::build(&tu);
        assert!(!t.global("a").unwrap().has_init);
        assert!(t.global("b").unwrap().has_init);
    }

    #[test]
    fn iter_walks_declaration_order() {
        let tu = parse("int a; int main() { int z; return 0; } int b;").unwrap();
        let t = SymbolTable::build(&tu);
        let names: Vec<_> = t.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names, vec!["a", "main", "z", "b"]);
    }
}
