//! Byte pins of everything the compile path outputs: the printed unit and
//! the `{:?}` of the AST, the RCCE source under off-chip and HSM, and the
//! O0/O2 bytecode of the baseline and the HSM translation, for every
//! corpus program and the six paper workloads at two sizes; and the
//! `Display` of the parse error, with its `line:col`, for malformed inputs.
//!
//! A change that makes the frontend, Stage 5 or the optimizer faster must
//! leave every digest here as it is. On a mismatch the test prints the
//! whole table as it now reads.

use hsm_core::api::{fnv1a_bytes, Mode, OptLevel, Pipeline, Scenario};
use hsm_workloads::{Bench, Params};
use std::path::Path;

/// Cores per corpus program: the benchmark's core counts, 4 elsewhere.
fn corpus_cores(stem: &str) -> usize {
    match stem {
        "example_4_1" => 3,
        "switch_classifier" => 2,
        "dot_product" | "task_dot_product" => 8,
        _ => 4,
    }
}

/// The sizes the `serve_mix` benchmark workload runs the paper programs at.
fn serve_mix_params(bench: Bench, threads: usize) -> Params {
    let (size, reps) = match bench {
        Bench::PiApprox => (8_000, 1),
        Bench::Sum35 => (20_000, 1),
        Bench::CountPrimes => (600, 1),
        Bench::DotProduct => (320, 3),
        Bench::LuDecomp => (8, 8),
        Bench::Stream => (256, 2),
    };
    Params {
        threads,
        size,
        reps,
    }
}

fn cases() -> Vec<(String, String, usize)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut cases = Vec::new();
    for dir in [root.clone(), root.join("adversarial")] {
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .expect("corpus dir")
            .map(|e| e.expect("entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == "c"))
            .collect();
        files.sort();
        for path in files {
            let stem = path.file_stem().unwrap().to_str().unwrap().to_string();
            let src = std::fs::read_to_string(&path).expect("read");
            let name = path.strip_prefix(&root).unwrap().display().to_string();
            cases.push((name, src, corpus_cores(&stem)));
        }
    }
    for bench in Bench::all() {
        let name = bench.name().replace(' ', "_");
        let p = bench.default_params(32);
        cases.push((format!("{name}@32"), hsm_workloads::source(bench, &p), 32));
        let p = serve_mix_params(bench, 8);
        cases.push((
            format!("{name}@small8"),
            hsm_workloads::source(bench, &p),
            8,
        ));
    }
    cases
}

fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a_bytes(bytes))
}

/// One line per case: the digests, or the error text where a stage fails.
fn table() -> String {
    let mut out = String::new();
    for (name, src, cores) in cases() {
        let unit = hsm_cir::parse(&src).expect("corpus parses");
        let printed = hsm_cir::print_unit(&unit);
        let ast = format!("{unit:?}");
        let mut row = format!(
            "{name} print={} ast={}",
            digest(printed.as_bytes()),
            digest(ast.as_bytes())
        );
        let session = Pipeline::new(src.as_str()).cores(cores);
        for (label, mode) in [("offchip", Mode::RcceOffChip), ("hsm", Mode::RcceHsm)] {
            let s = session.clone().scenario(mode.into());
            let text = match s.translation() {
                Ok(t) => digest(t.source().as_bytes()),
                Err(e) => format!("<{e}>"),
            };
            row += &format!(" {label}={text}");
        }
        for (label, mode) in [("base", Mode::PthreadBaseline), ("hsm", Mode::RcceHsm)] {
            for opt in [OptLevel::O0, OptLevel::O2] {
                let s = session.clone().scenario(Scenario::new(mode).opt_level(opt));
                let program = match mode {
                    Mode::PthreadBaseline => s.baseline_program(),
                    _ => s.program(),
                };
                let text = match program {
                    Ok(p) => digest(hsm_vm::serialize_program(&p).as_bytes()),
                    Err(e) => format!("<{e}>"),
                };
                row += &format!(" {label}.{opt:?}={text}");
            }
        }
        out += &row;
        out.push('\n');
    }
    out
}

const PINNED: &str = "\
dot_product.c print=8ca6cb1a4d19bc28 ast=056b93a3bdc2f828 offchip=6c10f0361fcd64cd hsm=e3c12efe7d6e7c8c base.O0=3c49198d29c141c0 base.O2=35b6cb5e30f44b69 hsm.O0=c4c53caca6f5278c hsm.O2=76de4bafc7a6fa53
escaping_local.c print=084423662c704d49 ast=5c4821f260623b31 offchip=49735dd0aa5698dd hsm=a9d394c7051c8973 base.O0=40668417fea3f29a base.O2=402bf02ebebb3d28 hsm.O0=90f37431c718e8de hsm.O2=7a4152aede9c287f
example_4_1.c print=a236c0817fe2f37f ast=7985bf49944d65b7 offchip=1686e1cc17cb9b75 hsm=3e0bb49ad55697bf base.O0=f6ad2d3b2ec7fd21 base.O2=adfbce2511ab9658 hsm.O0=188e1c0b2c4c9bf2 hsm.O2=5e062bab3274c9f1
matrix_vector.c print=be74686334014dc5 ast=d970c61e93563f89 offchip=00596353957a0f7f hsm=19cb743683270c60 base.O0=3d8bf551dcace0b4 base.O2=7834c1c582e8ae92 hsm.O0=74dba8d5d7cc9f87 hsm.O2=b2e2de4652e766d7
mutex_histogram.c print=1bdc97b68cbe3f3e ast=287895fb9f74df80 offchip=5b7388b1c86a00f1 hsm=36df5b61dd9eb352 base.O0=5f968f0f15acc9df base.O2=faa4ee07ce0a685a hsm.O0=5351499b08954fe2 hsm.O2=3b54a4ffe13d4200
switch_classifier.c print=038285600504f0c5 ast=08b7d1d423873b8d offchip=4382da7c59940e59 hsm=a3d626fdd78b984e base.O0=03d3827505688286 base.O2=60caff1df860028f hsm.O0=8134d31ef8c82958 hsm.O2=d9fc04cced6ffc33
task_dot_product.c print=eac7ef510b116650 ast=dbd30bea2d2aad26 offchip=8e0ee510b62c09e8 hsm=8e70d86088990709 base.O0=151bfa087c0ec9d2 base.O2=9db45f1c24966a6d hsm.O0=d7f6120e33b75bab hsm.O2=df7e0f39cc7fca3e
task_histogram.c print=af8ec66d25c9a9a9 ast=d8b1943a1fcd3fbd offchip=7627033bcddec8a4 hsm=665d921e810f9894 base.O0=6f08ac8eceb6555d base.O2=1dd06d271fa41ac0 hsm.O0=18dac41c261b09e3 hsm.O2=faa23ba397fb4e34
task_matrix_vector.c print=45e3448c7b17714b ast=1d7e79a54f77476f offchip=2a3285fc523f6222 hsm=08671196a1177baf base.O0=1da191201594af33 base.O2=3cb4dc70d175d904 hsm.O0=18887b66ad288044 hsm.O2=164cbb9159850e05
adversarial/escaping_arg.c print=54edb5ff23d49e8d ast=c70670fbba49071d offchip=ba626cdda2877f6d hsm=ba626cdda2877f6d base.O0=9c8ffaa719db589b base.O2=e25f8ce865ce6071 hsm.O0=f49c8808742fd7c4 hsm.O2=f7220f79843ef4ba
adversarial/unlocked_counter.c print=16ea82d8a0ec77cd ast=6ea072b080c0be7e offchip=328126abb64aa9dd hsm=238aefd3e9708dca base.O0=f1f2a5e9e064614e base.O2=a0979a3ba47a7e7e hsm.O0=96fbc29f0ac6b071 hsm.O2=405118d75ee5942f
Pi_Approximation@32 print=6304538c4def1289 ast=6905a324838dc202 offchip=3b1f7ca6a516e256 hsm=32a89cf0fa3e552f base.O0=540f6f32e7d761ad base.O2=8de5e4ae7235b4ed hsm.O0=ca90b06b24ea8a19 hsm.O2=4b690ae4a94c9863
Pi_Approximation@small8 print=1c5c626fff8615c0 ast=10c53ce434d6cd19 offchip=6b2a882523ea936e hsm=8263d2b5b8d44d23 base.O0=a67bc5f827a0ec18 base.O2=0ce5b4398fd06086 hsm.O0=d715c955e8a19827 hsm.O2=e3199efdafb6d5e1
3-5-Sum@32 print=25f891e2302d57ce ast=74e8365ef1683a61 offchip=c063a5e6c857647d hsm=ef734bbb55d1173e base.O0=b87ddf1867f479c6 base.O2=d0799e73a0b2d9be hsm.O0=c361c503c49483a7 hsm.O2=d2a1e635d1192695
3-5-Sum@small8 print=6c9983f396094f09 ast=d180ddc321473d3b offchip=3e307ed5ee2b3ea1 hsm=f7d4077120c7112a base.O0=1f413d2d2cbb8f1d base.O2=ab0354ef5736e785 hsm.O0=396649699c2569fd hsm.O2=a2f83427ba9b2de6
Count_Primes@32 print=76a51b78f05804a9 ast=1c78af7caef8ad1a offchip=5237556bb07cf9c9 hsm=b49dbe340bb454c8 base.O0=e3b4c04b82f95c0b base.O2=f8290ef4cac50479 hsm.O0=2f350cbae50acb88 hsm.O2=4c74cddb38724cc0
Count_Primes@small8 print=ef2478c2fffdbfba ast=f0133b7b1cc86ba4 offchip=56701f26a1464433 hsm=9b0f18bb905bcac2 base.O0=7209b754f3ccfe71 base.O2=d58d5b8ee1d9ae26 hsm.O0=360e185d49f53d8c hsm.O2=f01b765cad4298f6
Stream@32 print=c27a0fa59297778c ast=b477a81a14651a21 offchip=72659ee46ccf5bf7 hsm=2ee5768cfb2a8169 base.O0=1c2918372b2cea98 base.O2=15db3fa8193dc3c1 hsm.O0=081a70dd4d1783fc hsm.O2=a0cc2f1c46f00f74
Stream@small8 print=10df47c6ae5b12bb ast=6bd26654057f86b2 offchip=484e95b7849e0cb7 hsm=e06e04578f427eca base.O0=30bcc2eb92550df7 base.O2=03c3336643dfcf7f hsm.O0=42722bdf5ea6fd13 hsm.O2=b9ebd1cb4dc757d4
Dot_Product@32 print=a290e961ece61305 ast=7eebbad101f388ff offchip=b699fb286b0390ec hsm=cc2dc4a3ceb32c94 base.O0=f07eddb1fcfa3553 base.O2=7d14014605116b91 hsm.O0=3ed6b787da4322cb hsm.O2=76968afb8019522b
Dot_Product@small8 print=78456735b51d8ac9 ast=dbfe810a4ad95be6 offchip=dde175d66ac06647 hsm=79e173bcd3f90cda base.O0=c3648922f3bb3853 base.O2=8c1efb47f5ad99f9 hsm.O0=785e76e0fdc7b00d hsm.O2=e69c0f633e0e32dd
LU_Decomposition@32 print=fc8d8a99ee0e8ee4 ast=789e7e23b9c855fd offchip=96c860e4aef1505b hsm=f479314c4a46be96 base.O0=9db22083857f3eb1 base.O2=14e45ea4ba6bbebb hsm.O0=7c617408134adebb hsm.O2=5a18d68c9b13c258
LU_Decomposition@small8 print=a305b91a75dbf27e ast=667acad257359070 offchip=21914665b7961a78 hsm=71eab6db464de684 base.O0=7f1f5be34f65f2ba base.O2=0fa1a711be021006 hsm.O0=b802ecfca26875e5 hsm.O2=41edcf5882d8f759
";

#[test]
fn compile_path_outputs_are_pinned() {
    let now = table();
    assert!(now == PINNED, "compile-path digests moved; now:\n{now}");
}

/// Malformed inputs and the exact error each one reports.
const ERRORS: &[(&str, &str)] = &[
    (
        "int x = 99999999999999999999;",
        "parse error at 1:9: integer literal out of range",
    ),
    (
        "int x = 0x;",
        "parse error at 1:9: hex literal out of range",
    ),
    (
        "char c = '';",
        "parse error at 1:10: empty character literal",
    ),
    (
        "char c = '\\x41';",
        "parse error at 1:10: unterminated character literal",
    ),
    (
        "char *s = \"abc;\nint y;",
        "parse error at 1:11: unterminated string literal",
    ),
    (
        "int x; /* never closed",
        "parse error at 1:8: unterminated block comment",
    ),
    ("int é", "parse error at 1:5: unexpected character 'é'"),
    (
        "char *s = \"é\"; int é;",
        "parse error at 1:20: unexpected character 'é'",
    ),
    ("int main() { return 0; }\u{a0}", "ok"),
    (
        "int main() { return 0; }\u{a0}x",
        "parse error at 1:26: expected type specifier",
    ),
    (
        "double x = .5;",
        "parse error at 1:12: expected expression, found `.`",
    ),
    (
        "double x = 1.5e;",
        "parse error at 1:15: expected `;`, found `e`",
    ),
    (
        "int main( {",
        "parse error at 1:11: expected type specifier",
    ),
    (
        "int x = ;",
        "parse error at 1:9: expected expression, found `;`",
    ),
    (
        "int 3x;",
        "parse error at 1:5: expected identifier, found `3`",
    ),
    (
        "int main() { return 0 }",
        "parse error at 1:23: expected `;`, found `}`",
    ),
    ("int $x;", "parse error at 1:5: unexpected character '$'"),
    (
        "char c = 'ab';",
        "parse error at 1:10: unterminated character literal",
    ),
    (
        "char *s = \"\\",
        "parse error at 1:11: unterminated escape sequence",
    ),
    (
        "int a[;",
        "parse error at 1:7: expected expression, found `;`",
    ),
    ("x = 1;", "parse error at 1:1: expected type specifier"),
    (
        "int main() { if (1) }",
        "parse error at 1:21: expected expression, found `}`",
    ),
    (
        "int main() { int x = 09; return x; }",
        "parse error at 1:22: octal literal out of range",
    ),
    (
        "int main() { return 1 @ 2; }",
        "parse error at 1:23: unexpected character '@'",
    ),
    (
        "int x;\n\n\tint y = ;",
        "parse error at 3:10: expected expression, found `;`",
    ),
    (
        "int x;\r\nint y = ;",
        "parse error at 2:9: expected expression, found `;`",
    ),
    (
        "int main() { return 0x1ffffffffffffffffff; }",
        "parse error at 1:21: hex literal out of range",
    ),
    (
        "int main() { return 0777777777777777777777777; }",
        "parse error at 1:21: octal literal out of range",
    ),
    ("double d = 1e999999999999999999999;", "ok"),
    (
        "int main() { x->; }",
        "parse error at 1:17: expected identifier, found `;`",
    ),
    (
        "struct;",
        "parse error at 1:7: expected identifier, found `;`",
    ),
    (
        "int main() { return sizeof(; }",
        "parse error at 1:28: expected expression, found `;`",
    ),
    (
        "\u{feff}int x;",
        "parse error at 1:1: unexpected character '\\u{feff}'",
    ),
    (
        "int x = 1 /* é */ ¤;",
        "parse error at 1:19: unexpected character '¤'",
    ),
];

#[test]
fn parse_errors_keep_their_text_and_location() {
    let shown = |src: &str| match hsm_cir::parse(src) {
        Ok(_) => "ok".to_string(),
        Err(e) => e.to_string(),
    };
    let moved: Vec<String> = ERRORS
        .iter()
        .filter(|&&(src, pinned)| shown(src) != pinned)
        .map(|&(src, _)| format!("    ({src:?}, {:?}),", shown(src)))
        .collect();
    assert!(
        moved.is_empty(),
        "parse errors moved; now:\n{}",
        moved.join("\n")
    );
    let deep = format!(
        "int main() {{ return {}1{}; }}",
        "(".repeat(200),
        ")".repeat(200)
    );
    assert_eq!(
        shown(&deep),
        "parse error at 1:148: statements and expressions nested deeper than 128 levels"
    );
}
