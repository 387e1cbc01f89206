//! C source emission from the CIR.
//!
//! The printer closes the source-to-source loop: after the Stage 5 rewrites,
//! [`print_unit`] renders a compilable C file in the style of the paper's
//! Example Code 4.2.

use crate::ast::*;
use std::fmt::Write;

/// Renders a whole translation unit as C source.
///
/// ```
/// # fn main() -> Result<(), hsm_cir::ParseError> {
/// use hsm_cir::{parse, print_unit};
/// let tu = parse("int x = 1;\nint main() { return x; }")?;
/// let src = print_unit(&tu);
/// assert!(src.contains("int x = 1;"));
/// # Ok(())
/// # }
/// ```
pub fn print_unit(tu: &TranslationUnit) -> String {
    let mut p = Printer::new();
    // Room for a corpus-sized program, so the text is not regrown piecemeal.
    p.out.reserve(4096);
    for line in &tu.preproc {
        let _ = writeln!(p.out, "#{line}");
    }
    if !tu.preproc.is_empty() {
        p.out.push('\n');
    }
    for item in &tu.items {
        match item {
            Item::Decl(d) => {
                p.print_declaration(d);
                p.out.push('\n');
            }
            Item::Func(f) => {
                p.print_function(f);
                p.out.push('\n');
            }
        }
    }
    p.out
}

/// Renders a single expression as C source (useful in tests/diagnostics).
pub fn print_expr(e: &Expr) -> String {
    let mut p = Printer::new();
    p.expr(e, 0);
    p.out
}

struct Printer {
    out: String,
    indent: usize,
}

impl Printer {
    fn new() -> Self {
        Printer {
            out: String::new(),
            indent: 0,
        }
    }

    fn pad(&mut self) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
    }

    fn print_function(&mut self, f: &FunctionDef) {
        let params = if f.params.is_empty() {
            String::new()
        } else {
            f.params
                .iter()
                .map(|p| p.ty.display_decl(&p.name))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let header = f.ret.display_decl(&format!("{}({params})", f.name));
        let _ = writeln!(self.out, "{header}");
        self.out.push_str("{\n");
        self.indent += 1;
        for s in &f.body {
            self.stmt(s);
        }
        self.indent -= 1;
        self.out.push_str("}\n");
    }

    fn print_declaration(&mut self, d: &Declaration) {
        self.pad();
        self.declaration_inline(d);
        self.out.push('\n');
    }

    fn declaration_inline(&mut self, d: &Declaration) {
        match d.storage {
            Storage::Static => self.out.push_str("static "),
            Storage::Extern => self.out.push_str("extern "),
            Storage::Typedef => self.out.push_str("typedef "),
            Storage::None => {}
        }
        for (i, v) in d.vars.iter().enumerate() {
            if i == 0 {
                self.out.push_str(&v.ty.display_decl(&v.name));
            } else {
                // Secondary declarators repeat only the declarator part;
                // for simplicity, emit each with its full type on the same
                // statement separated by `, ` only when the base matches —
                // otherwise split is handled by the caller producing
                // separate declarations. We emit the declarator directly.
                self.out.push_str(", ");
                let full = v.ty.display_decl(&v.name);
                // Strip the repeated base type words for the common case.
                let first_base = d.vars[0].ty.display_decl("");
                let stripped = full
                    .strip_prefix(first_base.trim())
                    .map(|s| s.trim_start().to_string())
                    .unwrap_or(full);
                self.out.push_str(&stripped);
            }
            if let Some(init) = &v.init {
                self.out.push_str(" = ");
                self.expr(init, 2);
            }
        }
        self.out.push(';');
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Expr(None) => {
                self.pad();
                self.out.push_str(";\n");
            }
            StmtKind::Expr(Some(e)) => {
                self.pad();
                self.expr(e, 0);
                self.out.push_str(";\n");
            }
            StmtKind::Decl(d) => {
                self.print_declaration(d);
            }
            StmtKind::Block(stmts) => {
                self.pad();
                self.out.push_str("{\n");
                self.indent += 1;
                for st in stmts {
                    self.stmt(st);
                }
                self.indent -= 1;
                self.pad();
                self.out.push_str("}\n");
            }
            StmtKind::If(cond, then, els) => {
                self.pad();
                self.out.push_str("if (");
                self.expr(cond, 0);
                self.out.push_str(")\n");
                self.nested(then);
                if let Some(e) = els {
                    self.pad();
                    self.out.push_str("else\n");
                    self.nested(e);
                }
            }
            StmtKind::While(cond, body) => {
                self.pad();
                self.out.push_str("while (");
                self.expr(cond, 0);
                self.out.push_str(")\n");
                self.nested(body);
            }
            StmtKind::DoWhile(body, cond) => {
                self.pad();
                self.out.push_str("do\n");
                self.nested(body);
                self.pad();
                self.out.push_str("while (");
                self.expr(cond, 0);
                self.out.push_str(");\n");
            }
            StmtKind::For(init, cond, step, body) => {
                self.pad();
                self.out.push_str("for (");
                match init {
                    Some(ForInit::Decl(d)) => {
                        self.declaration_inline(d);
                        self.out.push(' ');
                    }
                    Some(ForInit::Expr(e)) => {
                        self.expr(e, 0);
                        self.out.push_str("; ");
                    }
                    None => self.out.push_str("; "),
                }
                if let Some(c) = cond {
                    self.expr(c, 0);
                }
                self.out.push_str("; ");
                if let Some(st) = step {
                    self.expr(st, 0);
                }
                self.out.push_str(")\n");
                self.nested(body);
            }
            StmtKind::Switch(scrutinee, body) => {
                self.pad();
                self.out.push_str("switch (");
                self.expr(scrutinee, 0);
                self.out.push_str(")\n");
                self.pad();
                self.out.push_str("{\n");
                self.indent += 1;
                for st in body {
                    self.stmt(st);
                }
                self.indent -= 1;
                self.pad();
                self.out.push_str("}\n");
            }
            StmtKind::Case(v) => {
                // Labels print one level out for readability.
                let outdent = self.indent.saturating_sub(1);
                for _ in 0..outdent {
                    self.out.push_str("    ");
                }
                let _ = writeln!(self.out, "case {v}:");
            }
            StmtKind::Default => {
                let outdent = self.indent.saturating_sub(1);
                for _ in 0..outdent {
                    self.out.push_str("    ");
                }
                self.out.push_str("default:\n");
            }
            StmtKind::Return(e) => {
                self.pad();
                self.out.push_str("return");
                if let Some(e) = e {
                    self.out.push(' ');
                    self.expr(e, 0);
                }
                self.out.push_str(";\n");
            }
            StmtKind::Break => {
                self.pad();
                self.out.push_str("break;\n");
            }
            StmtKind::Continue => {
                self.pad();
                self.out.push_str("continue;\n");
            }
        }
    }

    fn nested(&mut self, s: &Stmt) {
        if matches!(s.kind, StmtKind::Block(_)) {
            self.stmt(s);
        } else {
            self.indent += 1;
            self.stmt(s);
            self.indent -= 1;
        }
    }

    /// Prints an expression. `parent_prec` is the precedence of the
    /// enclosing operator; parentheses are emitted when this expression
    /// binds looser.
    fn expr(&mut self, e: &Expr, parent_prec: u8) {
        let prec = expr_prec(e);
        let need_parens = prec < parent_prec;
        if need_parens {
            self.out.push('(');
        }
        match &e.kind {
            ExprKind::IntLit(v) => {
                let _ = write!(self.out, "{v}");
            }
            ExprKind::FloatLit(v) => {
                // A whole value printed bare re-lexes as an integer, and
                // `1e16 / 3` then divides integers. `{:?}` marks it a
                // float: `4.0`, and from 1e16 up `1e16`, `1e300`. An
                // infinity (what `1e999` lexes to; a literal is never
                // negative) would print as `inf`, an identifier: it prints
                // as a literal that overflows again.
                if *v == f64::INFINITY {
                    self.out.push_str("1e999");
                } else if v.fract() == 0.0 {
                    let _ = write!(self.out, "{v:?}");
                } else {
                    let _ = write!(self.out, "{v}");
                }
            }
            ExprKind::CharLit(c) => {
                let escaped = match c {
                    '\n' => "\\n".to_string(),
                    '\t' => "\\t".to_string(),
                    '\r' => "\\r".to_string(),
                    '\0' => "\\0".to_string(),
                    '\'' => "\\'".to_string(),
                    '\\' => "\\\\".to_string(),
                    other => other.to_string(),
                };
                let _ = write!(self.out, "'{escaped}'");
            }
            ExprKind::StrLit(s) => {
                self.out.push('"');
                for c in s.chars() {
                    match c {
                        '\n' => self.out.push_str("\\n"),
                        '\t' => self.out.push_str("\\t"),
                        '\r' => self.out.push_str("\\r"),
                        '\0' => self.out.push_str("\\0"),
                        '"' => self.out.push_str("\\\""),
                        '\\' => self.out.push_str("\\\\"),
                        other => self.out.push(other),
                    }
                }
                self.out.push('"');
            }
            ExprKind::Ident(name) => self.out.push_str(name),
            ExprKind::Unary(op, inner) => {
                self.out.push_str(op.as_str());
                // `- -x` needs a space to avoid lexing as `--x`; likewise
                // `& &x` would lex as `&&x`.
                let clash = match op {
                    UnaryOp::Neg | UnaryOp::Plus => matches!(
                        inner.kind,
                        ExprKind::Unary(
                            UnaryOp::Neg | UnaryOp::Plus | UnaryOp::PreDec | UnaryOp::PreInc,
                            _
                        )
                    ),
                    UnaryOp::Addr => {
                        matches!(inner.kind, ExprKind::Unary(UnaryOp::Addr, _))
                    }
                    _ => false,
                };
                if clash {
                    self.out.push(' ');
                }
                self.expr(inner, 14);
            }
            ExprKind::PostIncDec(inner, inc) => {
                self.expr(inner, 14);
                self.out.push_str(if *inc { "++" } else { "--" });
            }
            ExprKind::Binary(op, l, r) => {
                let p = binop_prec(*op);
                self.expr(l, p);
                self.out.push(' ');
                self.out.push_str(op.as_str());
                self.out.push(' ');
                self.expr(r, p + 1);
            }
            ExprKind::Assign(op, l, r) => {
                self.expr(l, 3);
                self.out.push(' ');
                self.out.push_str(op.as_str());
                self.out.push(' ');
                self.expr(r, 2);
            }
            ExprKind::Ternary(c, t, f) => {
                self.expr(c, 4);
                self.out.push_str(" ? ");
                self.expr(t, 0);
                self.out.push_str(" : ");
                self.expr(f, 2);
            }
            ExprKind::Call(callee, args) => {
                self.expr(callee, 14);
                self.out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(a, 2);
                }
                self.out.push(')');
            }
            ExprKind::Index(base, idx) => {
                self.expr(base, 14);
                self.out.push('[');
                self.expr(idx, 0);
                self.out.push(']');
            }
            ExprKind::Member(base, field, arrow) => {
                self.expr(base, 14);
                self.out.push_str(if *arrow { "->" } else { "." });
                self.out.push_str(field);
            }
            ExprKind::Cast(ty, inner) => {
                let _ = write!(self.out, "({ty})");
                self.expr(inner, 14);
            }
            ExprKind::SizeofType(ty) => {
                let _ = write!(self.out, "sizeof({ty})");
            }
            ExprKind::SizeofExpr(inner) => {
                self.out.push_str("sizeof ");
                self.expr(inner, 14);
            }
            ExprKind::Comma(l, r) => {
                self.expr(l, 1);
                self.out.push_str(", ");
                self.expr(r, 2);
            }
            ExprKind::InitList(items) => {
                self.out.push('{');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(item, 2);
                }
                self.out.push('}');
            }
        }
        if need_parens {
            self.out.push(')');
        }
    }
}

fn binop_prec(op: BinaryOp) -> u8 {
    use BinaryOp::*;
    match op {
        LogOr => 4,
        LogAnd => 5,
        BitOr => 6,
        BitXor => 7,
        BitAnd => 8,
        Eq | Ne => 9,
        Lt | Gt | Le | Ge => 10,
        Shl | Shr => 11,
        Add | Sub => 12,
        Mul | Div | Rem => 13,
    }
}

fn expr_prec(e: &Expr) -> u8 {
    match &e.kind {
        ExprKind::Comma(..) => 1,
        ExprKind::Assign(..) => 2,
        ExprKind::Ternary(..) => 3,
        ExprKind::Binary(op, ..) => binop_prec(*op),
        ExprKind::Cast(..) | ExprKind::Unary(..) | ExprKind::SizeofExpr(..) => 14,
        _ => 15,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn round_trip(src: &str) -> String {
        let tu = parse(src).expect("parse input");
        print_unit(&tu)
    }

    fn reparses(src: &str) {
        let printed = round_trip(src);
        let tu1 = parse(src).expect("parse original");
        let tu2 = parse(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        // Structural equality modulo node ids: compare printed forms.
        assert_eq!(printed, print_unit(&tu2), "print not a fixpoint");
        assert_eq!(tu1.functions().count(), tu2.functions().count());
    }

    /// A float literal survives Stage 5: whatever the printer writes for
    /// it lexes back as a float (never as an integer, whose division and
    /// range are different) with the same bits.
    #[test]
    fn float_literals_round_trip_bit_for_bit() {
        use crate::ast::{ExprKind, NodeId, UnaryOp};
        #[rustfmt::skip]
        let values = [
            1e15, 1e16, 9007199254740993.0, 1e22, 1e300, f64::MAX, 1e-300, 2.5e10, 4.0, 0.5, 0.0,
        ];
        for value in values.into_iter().flat_map(|v| [v, -v]) {
            let literal = Expr {
                id: NodeId(0),
                kind: ExprKind::FloatLit(value),
                span: Default::default(),
            };
            let printed = print_expr(&literal);
            // A negative literal comes back as the negation of a positive one.
            let back = match parse_init(&printed).kind {
                ExprKind::FloatLit(v) => v,
                ExprKind::Unary(UnaryOp::Neg, inner) => match inner.kind {
                    ExprKind::FloatLit(v) => -v,
                    ref other => panic!("`{printed}` negates {other:?}"),
                },
                other => panic!("`{printed}` re-parses as {other:?}"),
            };
            assert_eq!(back.to_bits(), value.to_bits(), "`{printed}`");
        }
        assert_eq!(print_expr(&parse_init("1e16 / 3")), "1e16 / 3");
        assert_eq!(print_expr(&parse_init("4.0 * 1e300")), "4.0 * 1e300");
    }

    /// `expr` as the parser sees it in `double x = expr;`.
    fn parse_init(expr: &str) -> Expr {
        let tu = parse(&format!("double x = {expr};")).unwrap_or_else(|e| panic!("`{expr}`: {e}"));
        match &tu.items[..] {
            [crate::ast::Item::Decl(d)] => d.vars[0].init.clone().expect("initializer"),
            other => panic!("`{expr}` parses as {other:?}"),
        }
    }

    #[test]
    fn prints_simple_function() {
        let out = round_trip("int main() { return 0; }");
        assert!(out.contains("int main()"));
        assert!(out.contains("    return 0;"));
    }

    #[test]
    fn preserves_precedence_with_parens() {
        let out = round_trip("int main() { int x; x = (1 + 2) * 3; return x; }");
        assert!(out.contains("(1 + 2) * 3"), "got: {out}");
    }

    #[test]
    fn no_spurious_parens_for_natural_precedence() {
        let out = round_trip("int main() { int x; x = 1 + 2 * 3; return x; }");
        assert!(out.contains("1 + 2 * 3"), "got: {out}");
    }

    #[test]
    fn prints_pointer_declarations() {
        let out = round_trip("int *ptr; int sum[3] = {0};");
        assert!(out.contains("int *ptr;"));
        assert!(out.contains("int sum[3] = {0};"));
    }

    #[test]
    fn prints_string_escapes() {
        let out = round_trip(r#"int main() { printf("Sum: %d\n", 1); return 0; }"#);
        assert!(out.contains(r#""Sum: %d\n""#), "got: {out}");
    }

    #[test]
    fn prints_casts() {
        let out = round_trip("void *tf(void *tid) { int t = (int)tid; return tid; }");
        assert!(out.contains("(int)tid"), "got: {out}");
    }

    #[test]
    fn round_trips_example_constructs() {
        reparses(
            r#"
#include <stdio.h>
int global;
int *ptr;
int sum[3] = {0};
void *tf(void *tid) {
    int tLocal = (int)tid;
    sum[tLocal] += tLocal;
    sum[tLocal] += *ptr;
    return tid;
}
int main() {
    int local = 0;
    for (local = 0; local < 3; local++) {
        tf((void *)local);
    }
    return 0;
}
"#,
        );
    }

    #[test]
    fn round_trips_control_flow() {
        reparses("int main() { int i = 0; while (i < 5) { if (i % 2 == 0) i += 2; else i++; } do i--; while (i > 0); return i; }");
    }

    #[test]
    fn round_trips_unary_chains() {
        reparses(
            "int main() { int a = 1; int b = - -a; int c = !!a; int *p = &a; return *p + b + c; }",
        );
    }

    #[test]
    fn round_trips_float_literals() {
        let out = round_trip("double pi() { return 4.0 / (1.0 + 0.5); }");
        assert!(out.contains("4.0"), "got: {out}");
        assert!(out.contains("0.5"), "got: {out}");
    }

    /// Every value a float literal can hold prints as a literal that
    /// parses back to the same bits: subnormals, 17-digit values, whole
    /// values past 2^53, and the infinity an overflowing literal lexes to.
    #[test]
    fn every_float_literal_value_reparses_to_its_bits() {
        let mut values = vec![
            0.0,
            0.1,
            0.5,
            1.0,
            4.0,
            0.30000000000000004,
            1.2345678901234567,
            9007199254740993.0,
            1e16,
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            2.225073858507201e-308,
            f64::MIN_POSITIVE / 3.0,
            5e-324,
            f64::INFINITY,
        ];
        // And pseudo-random bit patterns (xorshift), every finite
        // non-negative one a literal can spell.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        while values.len() < 2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = f64::from_bits(x >> 1);
            if v.is_finite() {
                values.push(v);
            }
        }
        for v in values {
            let mut tu = parse("double x = 0.5;").expect("parse");
            let Item::Decl(d) = &mut tu.items[0] else {
                panic!("a declaration")
            };
            d.vars[0].init.as_mut().expect("initializer").kind = ExprKind::FloatLit(v);
            let text = print_unit(&tu);
            let back = parse(&text).unwrap_or_else(|e| panic!("{e}:\n{text}"));
            let Item::Decl(d) = &back.items[0] else {
                panic!("a declaration")
            };
            match d.vars[0].init.as_ref().map(|e| &e.kind) {
                Some(ExprKind::FloatLit(got)) => {
                    assert_eq!(got.to_bits(), v.to_bits(), "{v:e} printed as {text}")
                }
                other => panic!("{v:e} printed as {text} and parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn prints_multiple_declarators() {
        let out = round_trip("int main() { int a = 1, b = 2; return a + b; }");
        assert!(out.contains("int a = 1, b = 2;"), "got: {out}");
    }

    #[test]
    fn comma_argument_is_parenthesized() {
        // A comma expression as a call argument must keep its parens.
        let tu =
            parse("int f(int); int main() { int a = 0, b = 1; return f((a, b)); }").expect("parse");
        let out = print_unit(&tu);
        assert!(out.contains("f((a, b))"), "got: {out}");
        parse(&out).expect("reparse");
    }

    #[test]
    fn assignment_in_condition_keeps_meaning() {
        reparses("int main() { int a = 0; if (a = 3) return a; return 0; }");
    }

    #[test]
    fn switch_round_trips() {
        reparses(
            "int main() { int x = 2; int r; switch (x) { case 1: r = 1; break; case 2: r = 2; default: r = 9; } return r; }",
        );
        let out = round_trip(
            "int main() { int x = 2; switch (x) { case 1: return 1; default: return 9; } }",
        );
        assert!(out.contains("switch (x)"), "{out}");
        assert!(out.contains("case 1:"), "{out}");
        assert!(out.contains("default:"), "{out}");
    }
}
