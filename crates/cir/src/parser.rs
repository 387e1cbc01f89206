//! Recursive-descent parser producing a [`TranslationUnit`].
//!
//! The grammar is the C89 subset used by pthread benchmark programs:
//! global/local declarations with initializers, function definitions and
//! prototypes, all control flow, the full expression grammar with correct
//! precedence, casts, `sizeof`, and pointer/array declarators. Typedef'd
//! library names (`pthread_t`, `size_t`, …) are recognized as type names via
//! a registry that `typedef` declarations extend.

use crate::ast::*;
use crate::error::ParseError;
use crate::lexer::lex;
use crate::span::{Loc, Span};
use crate::token::{Keyword, Punct, Token, TokenKind};
use crate::types::CType;
use std::collections::HashSet;

/// Parses C source text into a [`TranslationUnit`].
///
/// # Errors
///
/// Returns a [`ParseError`] on lexical errors, constructs outside the
/// supported subset, or statements and expressions nested deeper than
/// 128 levels (a statement, a parenthesized expression, the operand of a
/// prefix operator, each link of an operator chain and each `*` or `[]`
/// of a type are a level each; the braces around an `if` or loop body are
/// not).
///
/// ```
/// # fn main() -> Result<(), hsm_cir::ParseError> {
/// use hsm_cir::parse;
/// let tu = parse("int global; int main() { return 0; }")?;
/// assert!(tu.function("main").is_some());
/// assert_eq!(tu.global_decls().count(), 1);
/// # Ok(())
/// # }
/// ```
pub fn parse(source: &str) -> Result<TranslationUnit, ParseError> {
    let tokens = lex(source)?;
    Parser::new(tokens).run()
}

/// Names treated as type identifiers in addition to keywords.
fn builtin_type_names() -> HashSet<String> {
    [
        "pthread_t",
        "pthread_attr_t",
        "pthread_mutex_t",
        "pthread_mutexattr_t",
        "pthread_cond_t",
        "pthread_barrier_t",
        "pthread_barrierattr_t",
        "size_t",
        "ssize_t",
        "FILE",
        "int8_t",
        "int16_t",
        "int32_t",
        "int64_t",
        "uint8_t",
        "uint16_t",
        "uint32_t",
        "uint64_t",
        "RCCE_FLAG",
        "RCCE_COMM",
    ]
    .into_iter()
    .map(String::from)
    .collect()
}

/// The deepest nesting of statements and expressions, counted together,
/// that [`parse`] accepts. A statement, a parenthesized or bracketed
/// expression, the operand of a prefix operator or cast, each link of an
/// operator, assignment, ternary, comma or postfix chain, and each `*` or
/// `[]` of a declared or cast type is one level;
/// the braces around an `if`, `else` or loop body are not, so printing a
/// unit (which braces every body) never deepens it. The parser and every
/// stage after it recurse once per level, so an unbounded program could
/// overflow the stack of the thread compiling it, which aborts the
/// process. The corpus and the paper workloads, before and after
/// translation, nest at most 13 levels.
pub(crate) const MAX_NESTING: usize = 128;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    next_id: u32,
    type_names: HashSet<String>,
    /// Levels of [`MAX_NESTING`] open at `pos`.
    depth: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            next_id: 0,
            type_names: builtin_type_names(),
            depth: 0,
        }
    }

    /// Opens one nesting level; the caller closes it with
    /// `self.depth -= 1` (or `-= n` after a chain of `n` links).
    fn nest(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_NESTING {
            return Err(ParseError::new(
                self.loc(),
                format!("statements and expressions nested deeper than {MAX_NESTING} levels"),
            ));
        }
        self.depth += 1;
        Ok(())
    }

    fn fresh(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        id
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, off: usize) -> &TokenKind {
        let i = (self.pos + off).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn loc(&self) -> Loc {
        self.tokens[self.pos].span.start
    }

    fn span_here(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek() == &TokenKind::Punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(ParseError::new(
                self.loc(),
                format!("expected `{p}`, found `{}`", self.peek()),
            ))
        }
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if self.peek() == &TokenKind::Keyword(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span), ParseError> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                let span = self.span_here();
                self.bump();
                Ok((name, span))
            }
            other => Err(ParseError::new(
                self.loc(),
                format!("expected identifier, found `{other}`"),
            )),
        }
    }

    fn run(mut self) -> Result<TranslationUnit, ParseError> {
        let mut tu = TranslationUnit::new();
        loop {
            match self.peek() {
                TokenKind::Eof => break,
                TokenKind::PreprocLine(line) => {
                    tu.preproc.push(line.clone());
                    self.bump();
                }
                _ => {
                    let item = self.parse_item()?;
                    tu.items.push(item);
                }
            }
        }
        tu.next_id = self.next_id;
        Ok(tu)
    }

    // ---------------------------------------------------------------- types

    fn starts_type(&self) -> bool {
        self.starts_type_at(0)
    }

    fn starts_type_at(&self, off: usize) -> bool {
        match self.peek_at(off) {
            TokenKind::Keyword(k) => matches!(
                k,
                Keyword::Void
                    | Keyword::Char
                    | Keyword::Short
                    | Keyword::Int
                    | Keyword::Long
                    | Keyword::Float
                    | Keyword::Double
                    | Keyword::Signed
                    | Keyword::Unsigned
                    | Keyword::Const
                    | Keyword::Volatile
                    | Keyword::Static
                    | Keyword::Extern
                    | Keyword::Typedef
                    | Keyword::Struct
                    | Keyword::Union
            ),
            TokenKind::Ident(name) => self.type_names.contains(name),
            _ => false,
        }
    }

    /// Parses storage class + base type specifiers (no declarator part).
    fn parse_base_type(&mut self) -> Result<(Storage, CType), ParseError> {
        let mut storage = Storage::None;
        let mut unsigned = false;
        let mut longs = 0u8;
        let mut base: Option<CType> = None;
        loop {
            match self.peek().clone() {
                TokenKind::Keyword(Keyword::Static) => {
                    storage = Storage::Static;
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Extern) => {
                    storage = Storage::Extern;
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Typedef) => {
                    storage = Storage::Typedef;
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Const)
                | TokenKind::Keyword(Keyword::Volatile)
                | TokenKind::Keyword(Keyword::Signed) => {
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Unsigned) => {
                    unsigned = true;
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Long) => {
                    longs += 1;
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Void) => {
                    base = Some(CType::Void);
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Char) => {
                    base = Some(CType::Char);
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Short) => {
                    base = Some(CType::Short);
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Int) => {
                    base = Some(CType::Int);
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Float) => {
                    base = Some(CType::Float);
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Double) => {
                    base = Some(CType::Double);
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Struct) | TokenKind::Keyword(Keyword::Union) => {
                    self.bump();
                    let (name, _) = self.expect_ident()?;
                    base = Some(CType::Named(format!("struct {name}")));
                }
                TokenKind::Ident(name)
                    if base.is_none()
                        && longs == 0
                        && !unsigned
                        && self.type_names.contains(&name) =>
                {
                    base = Some(CType::Named(name.clone()));
                    self.bump();
                }
                _ => break,
            }
        }
        let ty = match (base, longs, unsigned) {
            (Some(CType::Int) | None, 1, false) => CType::Long,
            (Some(CType::Int) | None, _, false) if longs >= 2 => CType::LongLong,
            (Some(CType::Int) | None, n, true) if n >= 1 => CType::ULong,
            (Some(CType::Int) | None, 0, true) => CType::UInt,
            (Some(CType::Double), _, _) => CType::Double,
            (Some(t), _, _) => t,
            (None, _, _) => return Err(ParseError::new(self.loc(), "expected type specifier")),
        };
        Ok((storage, ty))
    }

    /// Parses a declarator: pointer stars, name, array/function suffixes.
    /// Returns (name, full type, span).
    fn parse_declarator(&mut self, base: &CType) -> Result<(String, CType, Span), ParseError> {
        let mut stars = 0usize;
        let start = self.loc();
        while self.eat_punct(Punct::Star) {
            self.nest()?;
            stars += 1;
            // const/volatile after star
            while matches!(
                self.peek(),
                TokenKind::Keyword(Keyword::Const) | TokenKind::Keyword(Keyword::Volatile)
            ) {
                self.bump();
            }
        }
        let (name, span) = self.expect_ident()?;
        let mut ty = base.clone();
        for _ in 0..stars {
            ty = ty.ptr_to();
        }
        // Array suffixes apply outside-in: `int a[2][3]` is array 2 of array 3.
        let mut dims = Vec::new();
        while self.eat_punct(Punct::LBracket) {
            self.nest()?;
            if self.eat_punct(Punct::RBracket) {
                dims.push(None);
            } else {
                let len = self.parse_const_len()?;
                self.expect_punct(Punct::RBracket)?;
                dims.push(Some(len));
            }
        }
        self.depth -= stars + dims.len();
        for dim in dims.into_iter().rev() {
            ty = ty.array_of(dim);
        }
        Ok((name, ty, Span::new(start, span.end)))
    }

    fn parse_const_len(&mut self) -> Result<usize, ParseError> {
        // Array lengths in the subset must fold to a constant; support
        // literals and simple products/sums of literals.
        let loc = self.loc();
        let expr = self.parse_assignment()?;
        const_fold(&expr)
            .ok_or_else(|| ParseError::new(loc, "array length must be a constant expression"))
    }

    // ---------------------------------------------------------------- items

    fn parse_item(&mut self) -> Result<Item, ParseError> {
        let start = self.loc();
        let (storage, base) = self.parse_base_type()?;
        // `struct x;` style forward decls unsupported; require declarator.
        let (name, ty, _span) = self.parse_declarator(&base)?;

        if storage == Storage::Typedef {
            self.type_names.insert(name.clone());
            self.expect_punct(Punct::Semi)?;
            let id = self.fresh();
            let vid = self.fresh();
            return Ok(Item::Decl(Declaration {
                id,
                storage,
                vars: vec![VarDecl {
                    id: vid,
                    name,
                    ty,
                    init: None,
                    span: Span::new(start, self.loc()),
                }],
                span: Span::new(start, self.loc()),
            }));
        }

        if self.peek() == &TokenKind::Punct(Punct::LParen) {
            // Function definition or prototype.
            self.bump();
            let params = self.parse_params()?;
            self.expect_punct(Punct::RParen)?;
            if self.eat_punct(Punct::Semi) {
                // Prototype: record as a declaration with function type.
                let id = self.fresh();
                let vid = self.fresh();
                let fty = CType::Function {
                    ret: Box::new(ty),
                    params: params.iter().map(|p| p.ty.clone()).collect(),
                };
                return Ok(Item::Decl(Declaration {
                    id,
                    storage,
                    vars: vec![VarDecl {
                        id: vid,
                        name,
                        ty: fty,
                        init: None,
                        span: Span::new(start, self.loc()),
                    }],
                    span: Span::new(start, self.loc()),
                }));
            }
            self.expect_punct(Punct::LBrace)?;
            let mut body = Vec::new();
            while !self.eat_punct(Punct::RBrace) {
                if self.peek() == &TokenKind::Eof {
                    return Err(ParseError::new(
                        self.loc(),
                        "unexpected end of file in function body",
                    ));
                }
                body.push(self.parse_stmt()?);
            }
            let id = self.fresh();
            return Ok(Item::Func(FunctionDef {
                id,
                name,
                ret: ty,
                params,
                body,
                span: Span::new(start, self.loc()),
            }));
        }

        // Global variable declaration (possibly multiple declarators).
        let decl = self.finish_declaration(start, storage, base, name, ty)?;
        Ok(Item::Decl(decl))
    }

    fn parse_params(&mut self) -> Result<Vec<Param>, ParseError> {
        let mut params = Vec::new();
        if self.peek() == &TokenKind::Punct(Punct::RParen) {
            return Ok(params);
        }
        // `(void)` means no parameters.
        if self.peek() == &TokenKind::Keyword(Keyword::Void)
            && self.peek_at(1) == &TokenKind::Punct(Punct::RParen)
        {
            self.bump();
            return Ok(params);
        }
        loop {
            let (_, base) = self.parse_base_type()?;
            // Parameter declarators may be abstract (unnamed) in prototypes.
            let mut stars = 0usize;
            while self.eat_punct(Punct::Star) {
                stars += 1;
            }
            let name = match self.peek().clone() {
                TokenKind::Ident(n) => {
                    self.bump();
                    n
                }
                _ => String::new(),
            };
            let mut ty = base;
            for _ in 0..stars {
                ty = ty.ptr_to();
            }
            // Array params decay to pointers.
            let mut dims = Vec::new();
            while self.eat_punct(Punct::LBracket) {
                if self.eat_punct(Punct::RBracket) {
                    dims.push(None);
                } else {
                    let len = self.parse_const_len()?;
                    self.expect_punct(Punct::RBracket)?;
                    dims.push(Some(len));
                }
            }
            if !dims.is_empty() {
                for dim in dims.into_iter().skip(1).rev() {
                    ty = ty.array_of(dim);
                }
                ty = ty.ptr_to();
            }
            params.push(Param { name, ty });
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        Ok(params)
    }

    fn finish_declaration(
        &mut self,
        start: Loc,
        storage: Storage,
        base: CType,
        first_name: String,
        first_ty: CType,
    ) -> Result<Declaration, ParseError> {
        let mut vars = Vec::new();
        let mut name = first_name;
        let mut ty = first_ty;
        loop {
            let init = if self.eat_punct(Punct::Eq) {
                Some(self.parse_initializer()?)
            } else {
                None
            };
            let vid = self.fresh();
            vars.push(VarDecl {
                id: vid,
                name,
                ty,
                init,
                span: Span::new(start, self.loc()),
            });
            if self.eat_punct(Punct::Comma) {
                let (n, t, _) = self.parse_declarator(&base)?;
                name = n;
                ty = t;
            } else {
                break;
            }
        }
        self.expect_punct(Punct::Semi)?;
        let id = self.fresh();
        Ok(Declaration {
            id,
            storage,
            vars,
            span: Span::new(start, self.loc()),
        })
    }

    fn parse_initializer(&mut self) -> Result<Expr, ParseError> {
        if self.peek() == &TokenKind::Punct(Punct::LBrace) {
            let start = self.loc();
            self.bump();
            self.nest()?;
            let mut items = Vec::new();
            if !self.eat_punct(Punct::RBrace) {
                loop {
                    items.push(self.parse_initializer()?);
                    if self.eat_punct(Punct::Comma) {
                        if self.eat_punct(Punct::RBrace) {
                            break;
                        }
                    } else {
                        self.expect_punct(Punct::RBrace)?;
                        break;
                    }
                }
            }
            self.depth -= 1;
            let id = self.fresh();
            Ok(Expr {
                id,
                kind: ExprKind::InitList(items),
                span: Span::new(start, self.loc()),
            })
        } else {
            self.parse_assignment()
        }
    }

    // ----------------------------------------------------------- statements

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.nest()?;
        let stmt = self.parse_stmt_kind();
        self.depth -= 1;
        stmt
    }

    /// The body of an `if`, `else`, loop or `do`: braces around it are
    /// not a level of their own, so the printer, which braces every body,
    /// never deepens a program.
    fn parse_body(&mut self) -> Result<Stmt, ParseError> {
        if self.peek() == &TokenKind::Punct(Punct::LBrace) {
            self.parse_stmt_kind()
        } else {
            self.parse_stmt()
        }
    }

    fn parse_stmt_kind(&mut self) -> Result<Stmt, ParseError> {
        let start = self.loc();
        let kind = match self.peek().clone() {
            TokenKind::Punct(Punct::LBrace) => {
                self.bump();
                let mut stmts = Vec::new();
                while !self.eat_punct(Punct::RBrace) {
                    if self.peek() == &TokenKind::Eof {
                        return Err(ParseError::new(
                            self.loc(),
                            "unexpected end of file in block",
                        ));
                    }
                    stmts.push(self.parse_stmt()?);
                }
                StmtKind::Block(stmts)
            }
            TokenKind::Keyword(Keyword::If) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                let then = Box::new(self.parse_body()?);
                let els = if self.eat_keyword(Keyword::Else) {
                    Some(Box::new(self.parse_body()?))
                } else {
                    None
                };
                StmtKind::If(cond, then, els)
            }
            TokenKind::Keyword(Keyword::While) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                let body = Box::new(self.parse_body()?);
                StmtKind::While(cond, body)
            }
            TokenKind::Keyword(Keyword::Do) => {
                self.bump();
                let body = Box::new(self.parse_body()?);
                if !self.eat_keyword(Keyword::While) {
                    return Err(ParseError::new(
                        self.loc(),
                        "expected `while` after do body",
                    ));
                }
                self.expect_punct(Punct::LParen)?;
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                self.expect_punct(Punct::Semi)?;
                StmtKind::DoWhile(body, cond)
            }
            TokenKind::Keyword(Keyword::For) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let init = if self.eat_punct(Punct::Semi) {
                    None
                } else if self.starts_type() {
                    let decl = self.parse_local_decl()?;
                    Some(ForInit::Decl(decl))
                } else {
                    let e = self.parse_expr()?;
                    self.expect_punct(Punct::Semi)?;
                    Some(ForInit::Expr(e))
                };
                let cond = if self.peek() == &TokenKind::Punct(Punct::Semi) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect_punct(Punct::Semi)?;
                let step = if self.peek() == &TokenKind::Punct(Punct::RParen) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect_punct(Punct::RParen)?;
                let body = Box::new(self.parse_body()?);
                StmtKind::For(init, cond, step, body)
            }
            TokenKind::Keyword(Keyword::Switch) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let scrutinee = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                self.expect_punct(Punct::LBrace)?;
                let mut body = Vec::new();
                while !self.eat_punct(Punct::RBrace) {
                    if self.peek() == &TokenKind::Eof {
                        return Err(ParseError::new(
                            self.loc(),
                            "unexpected end of file in switch body",
                        ));
                    }
                    body.push(self.parse_stmt()?);
                }
                StmtKind::Switch(scrutinee, body)
            }
            TokenKind::Keyword(Keyword::Case) => {
                self.bump();
                let loc = self.loc();
                let value = self.parse_ternary()?;
                let folded = crate::parser::const_fold(&value).ok_or_else(|| {
                    ParseError::new(loc, "case label must be a constant expression")
                })?;
                self.expect_punct(Punct::Colon)?;
                StmtKind::Case(folded as i64)
            }
            TokenKind::Keyword(Keyword::Default) => {
                self.bump();
                self.expect_punct(Punct::Colon)?;
                StmtKind::Default
            }
            TokenKind::Keyword(Keyword::Return) => {
                self.bump();
                let e = if self.peek() == &TokenKind::Punct(Punct::Semi) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect_punct(Punct::Semi)?;
                StmtKind::Return(e)
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                StmtKind::Break
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                StmtKind::Continue
            }
            TokenKind::Punct(Punct::Semi) => {
                self.bump();
                StmtKind::Expr(None)
            }
            _ if self.starts_type() => {
                let decl = self.parse_local_decl()?;
                StmtKind::Decl(decl)
            }
            _ => {
                let e = self.parse_expr()?;
                self.expect_punct(Punct::Semi)?;
                StmtKind::Expr(Some(e))
            }
        };
        let id = self.fresh();
        Ok(Stmt {
            id,
            kind,
            span: Span::new(start, self.loc()),
        })
    }

    fn parse_local_decl(&mut self) -> Result<Declaration, ParseError> {
        let start = self.loc();
        let (storage, base) = self.parse_base_type()?;
        let (name, ty, _) = self.parse_declarator(&base)?;
        if storage == Storage::Typedef {
            self.type_names.insert(name.clone());
        }
        self.finish_declaration(start, storage, base, name, ty)
    }

    // ---------------------------------------------------------- expressions

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.nest()?;
        let expr = self.parse_comma_chain();
        self.depth -= 1;
        expr
    }

    fn parse_comma_chain(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_assignment()?;
        let mut links = 0;
        while self.peek() == &TokenKind::Punct(Punct::Comma) {
            self.bump();
            self.nest()?;
            links += 1;
            let rhs = self.parse_assignment()?;
            let span = lhs.span.merge(rhs.span);
            let id = self.fresh();
            lhs = Expr {
                id,
                kind: ExprKind::Comma(Box::new(lhs), Box::new(rhs)),
                span,
            };
        }
        self.depth -= links;
        Ok(lhs)
    }

    fn parse_assignment(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.parse_ternary()?;
        let op = match self.peek() {
            TokenKind::Punct(Punct::Eq) => AssignOp::Assign,
            TokenKind::Punct(Punct::PlusEq) => AssignOp::AddAssign,
            TokenKind::Punct(Punct::MinusEq) => AssignOp::SubAssign,
            TokenKind::Punct(Punct::StarEq) => AssignOp::MulAssign,
            TokenKind::Punct(Punct::SlashEq) => AssignOp::DivAssign,
            TokenKind::Punct(Punct::PercentEq) => AssignOp::RemAssign,
            TokenKind::Punct(Punct::ShlEq) => AssignOp::ShlAssign,
            TokenKind::Punct(Punct::ShrEq) => AssignOp::ShrAssign,
            TokenKind::Punct(Punct::AmpEq) => AssignOp::AndAssign,
            TokenKind::Punct(Punct::CaretEq) => AssignOp::XorAssign,
            TokenKind::Punct(Punct::PipeEq) => AssignOp::OrAssign,
            _ => return Ok(lhs),
        };
        self.bump();
        self.nest()?;
        let rhs = self.parse_assignment()?;
        self.depth -= 1;
        let span = lhs.span.merge(rhs.span);
        let id = self.fresh();
        Ok(Expr {
            id,
            kind: ExprKind::Assign(op, Box::new(lhs), Box::new(rhs)),
            span,
        })
    }

    fn parse_ternary(&mut self) -> Result<Expr, ParseError> {
        let cond = self.parse_binary(0)?;
        if self.eat_punct(Punct::Question) {
            self.nest()?;
            let then = self.parse_expr()?;
            self.expect_punct(Punct::Colon)?;
            let els = self.parse_assignment()?;
            self.depth -= 1;
            let span = cond.span.merge(els.span);
            let id = self.fresh();
            Ok(Expr {
                id,
                kind: ExprKind::Ternary(Box::new(cond), Box::new(then), Box::new(els)),
                span,
            })
        } else {
            Ok(cond)
        }
    }

    fn binary_op_at(&self, min_prec: u8) -> Option<(BinaryOp, u8)> {
        use BinaryOp::*;
        let (op, prec) = match self.peek() {
            TokenKind::Punct(Punct::PipePipe) => (LogOr, 1),
            TokenKind::Punct(Punct::AmpAmp) => (LogAnd, 2),
            TokenKind::Punct(Punct::Pipe) => (BitOr, 3),
            TokenKind::Punct(Punct::Caret) => (BitXor, 4),
            TokenKind::Punct(Punct::Amp) => (BitAnd, 5),
            TokenKind::Punct(Punct::EqEq) => (Eq, 6),
            TokenKind::Punct(Punct::BangEq) => (Ne, 6),
            TokenKind::Punct(Punct::Lt) => (Lt, 7),
            TokenKind::Punct(Punct::Gt) => (Gt, 7),
            TokenKind::Punct(Punct::Le) => (Le, 7),
            TokenKind::Punct(Punct::Ge) => (Ge, 7),
            TokenKind::Punct(Punct::Shl) => (Shl, 8),
            TokenKind::Punct(Punct::Shr) => (Shr, 8),
            TokenKind::Punct(Punct::Plus) => (Add, 9),
            TokenKind::Punct(Punct::Minus) => (Sub, 9),
            TokenKind::Punct(Punct::Star) => (Mul, 10),
            TokenKind::Punct(Punct::Slash) => (Div, 10),
            TokenKind::Punct(Punct::Percent) => (Rem, 10),
            _ => return None,
        };
        (prec >= min_prec).then_some((op, prec))
    }

    fn parse_binary(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_unary()?;
        let mut links = 0;
        while let Some((op, prec)) = self.binary_op_at(min_prec) {
            self.bump();
            self.nest()?;
            links += 1;
            let rhs = self.parse_binary(prec + 1)?;
            let span = lhs.span.merge(rhs.span);
            let id = self.fresh();
            lhs = Expr {
                id,
                kind: ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)),
                span,
            };
        }
        self.depth -= links;
        Ok(lhs)
    }

    /// Whether a `(` at the current position starts a cast.
    fn lparen_starts_cast(&self) -> bool {
        if self.peek() != &TokenKind::Punct(Punct::LParen) {
            return false;
        }
        self.starts_type_at(1)
            && !matches!(
                self.peek_at(1),
                TokenKind::Keyword(Keyword::Static)
                    | TokenKind::Keyword(Keyword::Extern)
                    | TokenKind::Keyword(Keyword::Typedef)
            )
    }

    fn parse_cast_type(&mut self) -> Result<CType, ParseError> {
        let (_, base) = self.parse_base_type()?;
        let mut ty = base;
        let mut stars = 0;
        while self.eat_punct(Punct::Star) {
            self.nest()?;
            stars += 1;
            ty = ty.ptr_to();
        }
        self.depth -= stars;
        Ok(ty)
    }

    /// The operand of a prefix operator, `sizeof` or cast: one level.
    fn parse_operand(&mut self) -> Result<Expr, ParseError> {
        self.nest()?;
        let expr = self.parse_unary();
        self.depth -= 1;
        expr
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        let start = self.loc();
        let op = match self.peek() {
            TokenKind::Punct(Punct::Amp) => Some(UnaryOp::Addr),
            TokenKind::Punct(Punct::Star) => Some(UnaryOp::Deref),
            TokenKind::Punct(Punct::Minus) => Some(UnaryOp::Neg),
            TokenKind::Punct(Punct::Plus) => Some(UnaryOp::Plus),
            TokenKind::Punct(Punct::Bang) => Some(UnaryOp::Not),
            TokenKind::Punct(Punct::Tilde) => Some(UnaryOp::BitNot),
            TokenKind::Punct(Punct::PlusPlus) => Some(UnaryOp::PreInc),
            TokenKind::Punct(Punct::MinusMinus) => Some(UnaryOp::PreDec),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let inner = self.parse_operand()?;
            let span = Span::new(start, inner.span.end);
            let id = self.fresh();
            return Ok(Expr {
                id,
                kind: ExprKind::Unary(op, Box::new(inner)),
                span,
            });
        }
        if self.peek() == &TokenKind::Keyword(Keyword::Sizeof) {
            self.bump();
            if self.lparen_starts_cast() {
                self.bump(); // (
                let ty = self.parse_cast_type()?;
                self.expect_punct(Punct::RParen)?;
                let id = self.fresh();
                return Ok(Expr {
                    id,
                    kind: ExprKind::SizeofType(ty),
                    span: Span::new(start, self.loc()),
                });
            }
            let inner = self.parse_operand()?;
            let span = Span::new(start, inner.span.end);
            let id = self.fresh();
            return Ok(Expr {
                id,
                kind: ExprKind::SizeofExpr(Box::new(inner)),
                span,
            });
        }
        if self.lparen_starts_cast() {
            self.bump(); // (
            let ty = self.parse_cast_type()?;
            self.expect_punct(Punct::RParen)?;
            let inner = self.parse_operand()?;
            let span = Span::new(start, inner.span.end);
            let id = self.fresh();
            return Ok(Expr {
                id,
                kind: ExprKind::Cast(ty, Box::new(inner)),
                span,
            });
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.parse_primary()?;
        let mut links = 0;
        loop {
            if matches!(
                self.peek(),
                TokenKind::Punct(
                    Punct::LParen
                        | Punct::LBracket
                        | Punct::Dot
                        | Punct::Arrow
                        | Punct::PlusPlus
                        | Punct::MinusMinus
                )
            ) {
                self.nest()?;
                links += 1;
            }
            match self.peek() {
                TokenKind::Punct(Punct::LParen) => {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat_punct(Punct::RParen) {
                        loop {
                            args.push(self.parse_assignment()?);
                            if !self.eat_punct(Punct::Comma) {
                                break;
                            }
                        }
                        self.expect_punct(Punct::RParen)?;
                    }
                    let span = Span::new(e.span.start, self.loc());
                    let id = self.fresh();
                    e = Expr {
                        id,
                        kind: ExprKind::Call(Box::new(e), args),
                        span,
                    };
                }
                TokenKind::Punct(Punct::LBracket) => {
                    self.bump();
                    let idx = self.parse_expr()?;
                    self.expect_punct(Punct::RBracket)?;
                    let span = Span::new(e.span.start, self.loc());
                    let id = self.fresh();
                    e = Expr {
                        id,
                        kind: ExprKind::Index(Box::new(e), Box::new(idx)),
                        span,
                    };
                }
                TokenKind::Punct(Punct::Dot) => {
                    self.bump();
                    let (field, fspan) = self.expect_ident()?;
                    let span = e.span.merge(fspan);
                    let id = self.fresh();
                    e = Expr {
                        id,
                        kind: ExprKind::Member(Box::new(e), field, false),
                        span,
                    };
                }
                TokenKind::Punct(Punct::Arrow) => {
                    self.bump();
                    let (field, fspan) = self.expect_ident()?;
                    let span = e.span.merge(fspan);
                    let id = self.fresh();
                    e = Expr {
                        id,
                        kind: ExprKind::Member(Box::new(e), field, true),
                        span,
                    };
                }
                TokenKind::Punct(Punct::PlusPlus) => {
                    self.bump();
                    let span = Span::new(e.span.start, self.loc());
                    let id = self.fresh();
                    e = Expr {
                        id,
                        kind: ExprKind::PostIncDec(Box::new(e), true),
                        span,
                    };
                }
                TokenKind::Punct(Punct::MinusMinus) => {
                    self.bump();
                    let span = Span::new(e.span.start, self.loc());
                    let id = self.fresh();
                    e = Expr {
                        id,
                        kind: ExprKind::PostIncDec(Box::new(e), false),
                        span,
                    };
                }
                _ => {
                    self.depth -= links;
                    return Ok(e);
                }
            }
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        let start = self.loc();
        let span = self.span_here();
        let kind = match self.peek().clone() {
            TokenKind::IntLit(v) => {
                self.bump();
                ExprKind::IntLit(v)
            }
            TokenKind::FloatLit(v) => {
                self.bump();
                ExprKind::FloatLit(v)
            }
            TokenKind::CharLit(c) => {
                self.bump();
                ExprKind::CharLit(c)
            }
            TokenKind::StrLit(s) => {
                self.bump();
                // Adjacent string literals concatenate.
                let mut full = s;
                while let TokenKind::StrLit(next) = self.peek().clone() {
                    full.push_str(&next);
                    self.bump();
                }
                ExprKind::StrLit(full)
            }
            TokenKind::Ident(name) => {
                self.bump();
                ExprKind::Ident(name)
            }
            TokenKind::Punct(Punct::LParen) => {
                self.bump();
                let e = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                return Ok(e);
            }
            other => {
                return Err(ParseError::new(
                    start,
                    format!("expected expression, found `{other}`"),
                ))
            }
        };
        let id = self.fresh();
        Ok(Expr { id, kind, span })
    }
}

/// Constant-folds an expression to a `usize` if it is a compile-time integer
/// constant built from literals and `+ - * / << sizeof`.
pub fn const_fold(e: &Expr) -> Option<usize> {
    match &e.kind {
        ExprKind::IntLit(v) if *v >= 0 => Some(*v as usize),
        ExprKind::SizeofType(t) => Some(t.mem_size()),
        ExprKind::Binary(op, l, r) => {
            let (l, r) = (const_fold(l)?, const_fold(r)?);
            match op {
                BinaryOp::Add => Some(l + r),
                BinaryOp::Sub => l.checked_sub(r),
                BinaryOp::Mul => Some(l * r),
                BinaryOp::Div if r != 0 => Some(l / r),
                BinaryOp::Shl => Some(l << r),
                _ => None,
            }
        }
        ExprKind::Cast(_, inner) => const_fold(inner),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE_4_1: &str = r#"
#include <stdio.h>
#include <pthread.h>

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
    fn nesting_is_bounded_at_max_nesting() {
        let check = || {
            let blocks =
                |n: usize| format!("int main() {{ {}0;{} }}", "{ ".repeat(n), " }".repeat(n));
            // `n` blocks, then the statement `0;` and its expression: n + 2.
            assert!(parse(&blocks(MAX_NESTING - 2)).is_ok());
            let err = parse(&blocks(MAX_NESTING - 1)).unwrap_err();
            assert!(
                err.message.contains("nested deeper than 128 levels"),
                "{err}"
            );
            // Braces around a body are not a level of their own.
            let braced = |n: usize| {
                format!(
                    "int main() {{ {}0;{} }}",
                    "if (1) { ".repeat(n),
                    " }".repeat(n)
                )
            };
            assert!(parse(&braced(MAX_NESTING - 2)).is_ok());
            assert!(parse(&braced(MAX_NESTING - 1)).is_err());
            // Each `*` of a type is a level: a global declarator starts at 0.
            let pointer = |n: usize| format!("int {}p;", "*".repeat(n));
            assert!(parse(&pointer(MAX_NESTING)).is_ok());
            assert!(parse(&pointer(MAX_NESTING + 1)).is_err());
        };
        // A debug build's parser frames outgrow the test thread's 2 MiB at
        // the limit; `hsmd` runs the parser on larger stacks.
        std::thread::Builder::new()
            .stack_size(16 << 20)
            .spawn(check)
            .expect("spawn")
            .join()
            .expect("the limit holds");
    }

    #[test]
    fn parses_example_code_4_1() {
        let tu = parse(EXAMPLE_4_1).expect("parse example 4.1");
        assert_eq!(tu.preproc.len(), 2);
        assert_eq!(tu.functions().count(), 2);
        assert_eq!(tu.global_decls().count(), 3);
        let main = tu.function("main").expect("main");
        assert_eq!(main.ret, CType::Int);
        let tf = tu.function("tf").expect("tf");
        assert_eq!(tf.ret, CType::Void.ptr_to());
        assert_eq!(tf.params.len(), 1);
        assert_eq!(tf.params[0].name, "tid");
        assert_eq!(tf.params[0].ty, CType::Void.ptr_to());
    }

    #[test]
    fn global_array_with_init_list() {
        let tu = parse("int sum[3] = {0};").expect("parse");
        let decl = tu.global_decls().next().expect("decl");
        let v = &decl.vars[0];
        assert_eq!(v.name, "sum");
        assert_eq!(v.ty, CType::Int.array_of(Some(3)));
        assert!(matches!(
            v.init.as_ref().map(|e| &e.kind),
            Some(ExprKind::InitList(items)) if items.len() == 1
        ));
    }

    #[test]
    fn multiple_declarators_share_base_type() {
        let tu = parse("int a, *b, c[4];").expect("parse");
        let decl = tu.global_decls().next().expect("decl");
        assert_eq!(decl.vars.len(), 3);
        assert_eq!(decl.vars[0].ty, CType::Int);
        assert_eq!(decl.vars[1].ty, CType::Int.ptr_to());
        assert_eq!(decl.vars[2].ty, CType::Int.array_of(Some(4)));
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let tu = parse("int main() { int x; x = 1 + 2 * 3; return x; }").expect("parse");
        let main = tu.function("main").unwrap();
        let StmtKind::Expr(Some(assign)) = &main.body[1].kind else {
            panic!("expected assignment statement");
        };
        let ExprKind::Assign(AssignOp::Assign, _, rhs) = &assign.kind else {
            panic!("expected assignment");
        };
        let ExprKind::Binary(BinaryOp::Add, _, add_rhs) = &rhs.kind else {
            panic!("expected + at top: {:?}", rhs.kind);
        };
        assert!(matches!(
            add_rhs.kind,
            ExprKind::Binary(BinaryOp::Mul, _, _)
        ));
    }

    #[test]
    fn cast_vs_parenthesized_expression() {
        let tu = parse("int main() { int a; double d; a = (int)d; a = (a) + 1; return a; }")
            .expect("parse");
        let main = tu.function("main").unwrap();
        let StmtKind::Expr(Some(e1)) = &main.body[2].kind else {
            panic!()
        };
        let ExprKind::Assign(_, _, r1) = &e1.kind else {
            panic!()
        };
        assert!(matches!(r1.kind, ExprKind::Cast(CType::Int, _)));
        let StmtKind::Expr(Some(e2)) = &main.body[3].kind else {
            panic!()
        };
        let ExprKind::Assign(_, _, r2) = &e2.kind else {
            panic!()
        };
        assert!(matches!(r2.kind, ExprKind::Binary(BinaryOp::Add, _, _)));
    }

    #[test]
    fn void_pointer_cast_of_argument() {
        let tu =
            parse("int f(int x); int main() { f((int)((void *) 5)); return 0; }").expect("parse");
        let main = tu.function("main").unwrap();
        let StmtKind::Expr(Some(call)) = &main.body[0].kind else {
            panic!()
        };
        let ExprKind::Call(_, args) = &call.kind else {
            panic!()
        };
        let ExprKind::Cast(CType::Int, inner) = &args[0].kind else {
            panic!("outer cast")
        };
        assert!(matches!(&inner.kind, ExprKind::Cast(t, _) if *t == CType::Void.ptr_to()));
    }

    #[test]
    fn sizeof_type_and_expr() {
        let tu =
            parse("int main() { int x; x = sizeof(int) + sizeof x; return x; }").expect("parse");
        let main = tu.function("main").unwrap();
        let StmtKind::Expr(Some(e)) = &main.body[1].kind else {
            panic!()
        };
        let ExprKind::Assign(_, _, rhs) = &e.kind else {
            panic!()
        };
        let ExprKind::Binary(BinaryOp::Add, l, r) = &rhs.kind else {
            panic!()
        };
        assert!(matches!(l.kind, ExprKind::SizeofType(CType::Int)));
        assert!(matches!(r.kind, ExprKind::SizeofExpr(_)));
    }

    #[test]
    fn pthread_t_is_a_type_name() {
        let tu = parse("int main() { pthread_t threads[3]; return 0; }").expect("parse");
        let main = tu.function("main").unwrap();
        let StmtKind::Decl(d) = &main.body[0].kind else {
            panic!()
        };
        assert_eq!(
            d.vars[0].ty,
            CType::Named("pthread_t".into()).array_of(Some(3))
        );
    }

    #[test]
    fn typedef_extends_type_names() {
        let tu = parse("typedef int myint; myint x;").expect("parse");
        assert_eq!(tu.global_decls().count(), 2);
        let second = tu.global_decls().nth(1).unwrap();
        assert_eq!(second.vars[0].ty, CType::Named("myint".into()));
    }

    #[test]
    fn for_with_decl_init() {
        let tu = parse("int main() { for (int i = 0; i < 10; i++) { } return 0; }").expect("parse");
        let main = tu.function("main").unwrap();
        let StmtKind::For(Some(ForInit::Decl(d)), Some(_), Some(_), _) = &main.body[0].kind else {
            panic!()
        };
        assert_eq!(d.vars[0].name, "i");
    }

    #[test]
    fn while_do_while_break_continue() {
        let src = "int main() { int i = 0; while (i < 3) { i++; if (i == 1) continue; if (i == 2) break; } do { i--; } while (i > 0); return i; }";
        let tu = parse(src).expect("parse");
        let main = tu.function("main").unwrap();
        assert!(matches!(main.body[1].kind, StmtKind::While(..)));
        assert!(matches!(main.body[2].kind, StmtKind::DoWhile(..)));
    }

    #[test]
    fn ternary_and_logical_ops() {
        let tu =
            parse("int main() { int a = 1, b = 2; int c = a && b ? a | b : a ^ b; return c; }")
                .expect("parse");
        let main = tu.function("main").unwrap();
        let StmtKind::Decl(d) = &main.body[1].kind else {
            panic!()
        };
        assert!(matches!(
            d.vars[0].init.as_ref().unwrap().kind,
            ExprKind::Ternary(..)
        ));
    }

    #[test]
    fn unsigned_and_long_types() {
        let tu = parse("unsigned int a; unsigned long b; long c; long long d; unsigned e;")
            .expect("parse");
        let tys: Vec<_> = tu.global_decls().map(|d| d.vars[0].ty.clone()).collect();
        assert_eq!(
            tys,
            vec![
                CType::UInt,
                CType::ULong,
                CType::Long,
                CType::LongLong,
                CType::UInt
            ]
        );
    }

    #[test]
    fn function_prototype_is_declaration() {
        let tu = parse("double f(double, int *); int main() { return 0; }").expect("parse");
        let proto = tu.global_decls().next().expect("proto");
        let CType::Function { ret, params } = &proto.vars[0].ty else {
            panic!()
        };
        assert_eq!(**ret, CType::Double);
        assert_eq!(params.len(), 2);
        assert_eq!(params[1], CType::Int.ptr_to());
    }

    #[test]
    fn array_parameter_decays() {
        let tu = parse("void f(double a[], int n) { }").expect("parse");
        let f = tu.function("f").unwrap();
        assert_eq!(f.params[0].ty, CType::Double.ptr_to());
        assert_eq!(f.params[1].ty, CType::Int);
    }

    #[test]
    fn two_dimensional_array() {
        let tu = parse("double m[4][8];").expect("parse");
        let d = tu.global_decls().next().unwrap();
        assert_eq!(
            d.vars[0].ty,
            CType::Double.array_of(Some(8)).array_of(Some(4))
        );
        assert_eq!(d.vars[0].ty.mem_size(), 256);
    }

    #[test]
    fn const_array_length_expression() {
        let tu = parse("int a[2 * 8 + 1];").expect("parse");
        let d = tu.global_decls().next().unwrap();
        assert_eq!(d.vars[0].ty, CType::Int.array_of(Some(17)));
    }

    #[test]
    fn postfix_chain_member_call_index() {
        let tu = parse("int main() { int a[3]; a[0]++; --a[1]; return a[0]; }").expect("parse");
        let main = tu.function("main").unwrap();
        let StmtKind::Expr(Some(e)) = &main.body[1].kind else {
            panic!()
        };
        assert!(matches!(e.kind, ExprKind::PostIncDec(_, true)));
        let StmtKind::Expr(Some(e2)) = &main.body[2].kind else {
            panic!()
        };
        assert!(matches!(e2.kind, ExprKind::Unary(UnaryOp::PreDec, _)));
    }

    #[test]
    fn adjacent_string_literals_concatenate() {
        let tu = parse(r#"int main() { printf("a" "b"); return 0; }"#).expect("parse");
        let main = tu.function("main").unwrap();
        let StmtKind::Expr(Some(e)) = &main.body[0].kind else {
            panic!()
        };
        let ExprKind::Call(_, args) = &e.kind else {
            panic!()
        };
        assert_eq!(args[0].kind, ExprKind::StrLit("ab".into()));
    }

    #[test]
    fn error_has_location() {
        let err = parse("int main() { return }").unwrap_err();
        assert_eq!(err.loc.line, 1);
        assert!(err.message.contains("expected expression"));
    }

    #[test]
    fn error_on_missing_semicolon() {
        assert!(parse("int x").is_err());
    }

    #[test]
    fn node_ids_are_unique() {
        use std::collections::HashSet;
        let tu = parse(EXAMPLE_4_1).expect("parse");
        let mut seen = HashSet::new();
        let mut check = |id: NodeId| assert!(seen.insert(id), "duplicate id {id}");
        for f in tu.functions() {
            check(f.id);
        }
        // Spot check: all statement ids in main are unique.
        for s in &tu.function("main").unwrap().body {
            check(s.id);
        }
    }

    #[test]
    fn comma_expression_in_for_step() {
        let tu =
            parse("int main() { int i, j; for (i = 0, j = 9; i < j; i++, j--) { } return 0; }")
                .expect("parse");
        let main = tu.function("main").unwrap();
        let StmtKind::For(Some(ForInit::Expr(init)), _, Some(step), _) = &main.body[1].kind else {
            panic!()
        };
        assert!(matches!(init.kind, ExprKind::Comma(..)));
        assert!(matches!(step.kind, ExprKind::Comma(..)));
    }

    #[test]
    fn const_fold_handles_sizeof() {
        let tu = parse("int main() { int x; x = sizeof(double) * 3; return x; }").expect("parse");
        let main = tu.function("main").unwrap();
        let StmtKind::Expr(Some(e)) = &main.body[1].kind else {
            panic!()
        };
        let ExprKind::Assign(_, _, rhs) = &e.kind else {
            panic!()
        };
        assert_eq!(const_fold(rhs), Some(24));
    }

    #[test]
    fn switch_with_cases_and_default() {
        let src = r#"
int classify(int x) {
    int r = 0;
    switch (x) {
        case 0:
            r = 10;
            break;
        case 1:
        case 2:
            r = 20;
            break;
        default:
            r = 30;
    }
    return r;
}
int main() { return classify(1); }
"#;
        let tu = parse(src).expect("parse");
        let f = tu.function("classify").unwrap();
        let StmtKind::Switch(_, body) = &f.body[1].kind else {
            panic!("expected switch: {:?}", f.body[1].kind);
        };
        let cases = body
            .iter()
            .filter(|s| matches!(s.kind, StmtKind::Case(_)))
            .count();
        let defaults = body
            .iter()
            .filter(|s| matches!(s.kind, StmtKind::Default))
            .count();
        assert_eq!(cases, 3);
        assert_eq!(defaults, 1);
    }

    #[test]
    fn case_label_must_be_constant() {
        let err =
            parse("int main() { int x = 0; switch (x) { case x: break; } return 0; }").unwrap_err();
        assert!(err.message.contains("constant"), "{err}");
    }
}
