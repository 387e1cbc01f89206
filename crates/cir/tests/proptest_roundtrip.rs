//! Property tests (testkit-driven): printing an AST and re-parsing the
//! output must be a fixpoint (print ∘ parse ∘ print == print), and lexing
//! printed operators must round-trip.
//!
//! Regressions found by the old proptest suite are pinned as named test
//! cases at the bottom instead of a `.proptest-regressions` seed file.

use hsm_cir::parse;
use hsm_cir::print_unit;
use hsm_cir::CType;
use hsm_cir::Span;
use hsm_cir::{BinaryOp, Expr, ExprKind, NodeId, Stmt, StmtKind, TranslationUnit, UnaryOp};
use testkit::{check, SplitMix64};

fn e(kind: ExprKind) -> Expr {
    Expr {
        id: NodeId(0),
        kind,
        span: Span::default(),
    }
}

const BINOPS: [BinaryOp; 18] = [
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::Div,
    BinaryOp::Rem,
    BinaryOp::Shl,
    BinaryOp::Shr,
    BinaryOp::Lt,
    BinaryOp::Gt,
    BinaryOp::Le,
    BinaryOp::Ge,
    BinaryOp::Eq,
    BinaryOp::Ne,
    BinaryOp::BitAnd,
    BinaryOp::BitXor,
    BinaryOp::BitOr,
    BinaryOp::LogAnd,
    BinaryOp::LogOr,
];

const UNOPS: [UnaryOp; 5] = [
    UnaryOp::Neg,
    UnaryOp::Not,
    UnaryOp::BitNot,
    UnaryOp::Deref,
    UnaryOp::Addr,
];

/// Identifiers drawn from a small pool that the harness declares.
const IDENTS: [&str; 5] = ["a", "b", "c", "p", "arr"];

/// Random expression over the harness's declared names, depth-bounded like
/// the old `prop_recursive(4, ..)` strategy.
fn gen_expr(rng: &mut SplitMix64, depth: usize) -> Expr {
    if depth == 0 || rng.gen_range_usize(0, 4) == 0 {
        return if rng.gen_bool() {
            e(ExprKind::IntLit(rng.gen_range_i64(0, 1000)))
        } else {
            e(ExprKind::Ident((*rng.choose(&IDENTS)).to_string()))
        };
    }
    let d = depth - 1;
    match rng.gen_range_usize(0, 6) {
        0 => e(ExprKind::Binary(
            *rng.choose(&BINOPS),
            Box::new(gen_expr(rng, d)),
            Box::new(gen_expr(rng, d)),
        )),
        1 => e(ExprKind::Unary(
            *rng.choose(&UNOPS),
            Box::new(gen_expr(rng, d)),
        )),
        2 => e(ExprKind::Ternary(
            Box::new(gen_expr(rng, d)),
            Box::new(gen_expr(rng, d)),
            Box::new(gen_expr(rng, d)),
        )),
        3 => e(ExprKind::Index(
            Box::new(e(ExprKind::Ident("arr".into()))),
            Box::new(e(ExprKind::Binary(
                BinaryOp::Add,
                Box::new(gen_expr(rng, d)),
                Box::new(gen_expr(rng, d)),
            ))),
        )),
        4 => e(ExprKind::Cast(CType::Int, Box::new(gen_expr(rng, d)))),
        _ => e(ExprKind::PostIncDec(
            Box::new(e(ExprKind::Ident("a".into()))),
            true,
        )),
    }
}

/// Wraps an expression into a compilable harness program.
fn harness(expr: &Expr) -> TranslationUnit {
    let src = "int a; int b; int c; int *p; int arr[16]; int main() { return 0; }";
    let mut tu = parse(src).expect("harness parses");
    let ret_stmt = Stmt {
        id: NodeId(9000),
        kind: StmtKind::Expr(Some(expr.clone())),
        span: Span::default(),
    };
    let main = tu.function_mut("main").expect("main");
    main.body.insert(0, ret_stmt);
    tu
}

/// The fixpoint check shared by the random property and the pinned
/// regressions: print(parse(print(ast))) == print(ast).
fn assert_fixpoint(expr: &Expr) {
    let tu = harness(expr);
    let printed = print_unit(&tu);
    let reparsed = parse(&printed)
        .unwrap_or_else(|err| panic!("printed source failed to parse: {err}\n{printed}"));
    let printed2 = print_unit(&reparsed);
    assert_eq!(printed, printed2);
}

// ------------------------------------------------------- properties --

/// print(parse(print(ast))) == print(ast): printing is a fixpoint and the
/// printed source is always parseable.
#[test]
fn print_parse_print_is_fixpoint() {
    check("print_parse_print_is_fixpoint", 256, |rng| {
        let expr = gen_expr(rng, 4);
        assert_fixpoint(&expr);
    });
}

/// Integer literals survive the full pipeline unchanged.
#[test]
fn int_literals_round_trip() {
    check("int_literals_round_trip", 256, |rng| {
        let v = rng.gen_range_i64(0, i64::MAX / 2);
        let src = format!("long x = {v};");
        let tu = parse(&src).unwrap();
        let printed = print_unit(&tu);
        assert!(printed.contains(&v.to_string()));
        let again = parse(&printed).unwrap();
        assert_eq!(print_unit(&again), printed);
    });
}

const IDENT_FIRST: [char; 53] = [
    'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 'q', 'r', 's',
    't', 'u', 'v', 'w', 'x', 'y', 'z', 'A', 'B', 'C', 'D', 'E', 'F', 'G', 'H', 'I', 'J', 'K', 'L',
    'M', 'N', 'O', 'P', 'Q', 'R', 'S', 'T', 'U', 'V', 'W', 'X', 'Y', 'Z', '_',
];

const IDENT_REST: [char; 63] = [
    'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 'q', 'r', 's',
    't', 'u', 'v', 'w', 'x', 'y', 'z', 'A', 'B', 'C', 'D', 'E', 'F', 'G', 'H', 'I', 'J', 'K', 'L',
    'M', 'N', 'O', 'P', 'Q', 'R', 'S', 'T', 'U', 'V', 'W', 'X', 'Y', 'Z', '_', '0', '1', '2', '3',
    '4', '5', '6', '7', '8', '9',
];

/// Any identifier-shaped name lexes back to itself.
#[test]
fn identifiers_round_trip() {
    check("identifiers_round_trip", 256, |rng| {
        let mut name = String::new();
        name.push(*rng.choose(&IDENT_FIRST));
        let rest = rng.gen_range_usize(0, 13);
        name.push_str(&rng.gen_string(&IDENT_REST, rest));
        // Skip keywords and names the parser treats as type names.
        let src = format!("int {name};");
        if let Ok(tu) = parse(&src) {
            let printed = print_unit(&tu);
            assert!(printed.contains(&name));
        }
    });
}

/// String literal escaping round-trips arbitrary printable content.
#[test]
fn string_literals_round_trip() {
    check("string_literals_round_trip", 256, |rng| {
        let len = rng.gen_range_usize(0, 25);
        let s: String = (0..len)
            .map(|_| char::from(rng.gen_range_u64(0x20, 0x7F) as u8))
            .collect();
        let escaped: String = s
            .chars()
            .flat_map(|ch| match ch {
                '"' => vec!['\\', '"'],
                '\\' => vec!['\\', '\\'],
                other => vec![other],
            })
            .collect();
        let src = format!("int main() {{ printf(\"{escaped}\"); return 0; }}");
        let tu = parse(&src).unwrap();
        let printed = print_unit(&tu);
        let reparsed = parse(&printed).unwrap();
        assert_eq!(print_unit(&reparsed), printed);
    });
}

/// The frontend never panics: arbitrary input either parses or returns
/// a located error, whether the lexer or the parser refuses it.
#[test]
fn lexer_is_total() {
    check("lexer_is_total", 256, |rng| {
        let len = rng.gen_range_usize(0, 201);
        let input: String = (0..len)
            .map(|_| {
                // Arbitrary scalar values, surrogates skipped — covers
                // ASCII, multi-byte UTF-8 and astral-plane characters.
                loop {
                    let v = rng.gen_range_u64(0, 0x11_0000) as u32;
                    if let Some(ch) = char::from_u32(v) {
                        return ch;
                    }
                }
            })
            .collect();
        let _ = parse(&input);
    });
}

const SOUP: [char; 30] = [
    'a', 'b', 'c', 'd', 'e', 'f', 'x', 'y', 'z', '0', '1', '9', '(', ')', '{', '}', ';', '*', '&',
    '=', '+', '<', '>', ',', '.', '"', '\'', ' ', '\n', '-',
];

/// The parser never panics on arbitrary token-shaped soup.
#[test]
fn parser_is_total() {
    check("parser_is_total", 256, |rng| {
        let len = rng.gen_range_usize(0, 301);
        let input = rng.gen_string(&SOUP, len);
        let _ = parse(&input);
    });
}

/// Whatever parses must print and re-parse to a fixpoint — for whole
/// random programs assembled from statement templates.
#[test]
fn random_programs_round_trip() {
    let templates = [
        "a = a + 1;",
        "b = a * 2 - c;",
        "if (a > b) { c = 1; } else { c = 2; }",
        "while (a > 0) { a = a - 1; }",
        "for (a = 0; a < 5; a++) { arr[a] = a; }",
        "p = &a;",
        "c = *p;",
        "switch (a) { case 1: b = 1; break; default: b = 0; }",
    ];
    check("random_programs_round_trip", 256, |rng| {
        let count = rng.gen_range_usize(1, 12);
        let n = rng.gen_range_usize(1, 20);
        let body: String = (0..count)
            .map(|_| *rng.choose(&templates))
            .collect::<Vec<_>>()
            .join("\n    ");
        let src = format!(
            "int a; int b; int c; int *p; int arr[{n}];\nint main() {{\n    {body}\n    return a + b + c;\n}}\n"
        );
        let tu = parse(&src).expect("template program parses");
        let printed = print_unit(&tu);
        let reparsed = parse(&printed).expect("printed parses");
        assert_eq!(print_unit(&reparsed), printed);
    });
}

// ------------------------------------------------- pinned regressions --

/// Pinned from the retired `.proptest-regressions` file: proptest once
/// shrank a fixpoint failure to `&(&0)` — taking the address of an
/// address-of expression, which exercises parenthesisation of nested
/// prefix `&` in the printer.
#[test]
fn regression_addr_of_addr_of_literal() {
    let expr = e(ExprKind::Unary(
        UnaryOp::Addr,
        Box::new(e(ExprKind::Unary(
            UnaryOp::Addr,
            Box::new(e(ExprKind::IntLit(0))),
        ))),
    ));
    assert_fixpoint(&expr);
}
