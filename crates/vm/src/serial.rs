//! A versioned text codec for compiled [`Program`]s.
//!
//! The persistent artifact store (hsm-core's `DiskStore`) keeps compiled
//! bytecode on disk between processes, so the compile shelf of a warm
//! sweep can skip the CIR → bytecode compiler entirely. The format is a
//! line-oriented text dump chosen for three properties:
//!
//! * **Exact** — floats are written as `f64::to_bits` hex, so a decoded
//!   program is `==` to the encoded one (the round-trip tests pin this
//!   for every corpus program).
//! * **Versioned** — the `hsmvm <version>` header is checked on decode;
//!   a format bump turns every stale entry into a decode failure, which
//!   the store treats as a recompute-and-overwrite.
//! * **Dependency-free** — like the rest of the workspace it uses no
//!   serialization crate; the writer and reader are ~200 lines of std.

use crate::compile::{FrameVar, Function, GlobalVar, Program};
use crate::instr::{Instr, Intrinsic};
use crate::value::MemKind;
use hsm_cir::CType;
use std::fmt;
use std::fmt::Write as _;

/// Format version written in the header; bump on any layout change.
const SERIAL_VERSION: u32 = 1;

/// A decode failure (truncated, corrupted or stale-format input).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerialError {
    /// Human-readable description.
    pub message: String,
}

impl SerialError {
    fn new(msg: impl Into<String>) -> Self {
        SerialError {
            message: msg.into(),
        }
    }
}

impl fmt::Display for SerialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "program decode error: {}", self.message)
    }
}

impl std::error::Error for SerialError {}

// ------------------------------------------------------------- encode --

/// Serializes a compiled program to the versioned text format.
pub fn serialize_program(p: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "hsmvm {SERIAL_VERSION}");
    let _ = writeln!(out, "entry {}", p.entry);
    let _ = writeln!(out, "funcs {}", p.funcs.len());
    for f in &p.funcs {
        let _ = writeln!(
            out,
            "func {} regs {} params {} frame {} ret {}",
            f.name,
            f.n_regs,
            f.n_params,
            f.frame_mem,
            ctype_text(&f.ret)
        );
        let _ = writeln!(out, "framevars {}", f.frame_vars.len());
        for v in &f.frame_vars {
            let _ = writeln!(out, "fv {} {} {}", v.offset, v.size, v.name);
        }
        let _ = writeln!(out, "code {}", f.code.len());
        for i in &f.code {
            let _ = writeln!(out, "{}", instr_text(*i));
        }
    }
    let _ = writeln!(out, "globals {}", p.globals.len());
    for g in &p.globals {
        let _ = writeln!(
            out,
            "global {} {} {} {}",
            g.addr,
            g.storage,
            ctype_text(&g.ty),
            g.name
        );
    }
    let _ = writeln!(out, "strings {}", p.strings.len());
    for (addr, s) in &p.strings {
        let _ = writeln!(out, "str {} {}", addr, escape(s));
    }
    let _ = writeln!(out, "image {}", p.image.len());
    for (addr, bytes) in &p.image {
        let mut hex = String::with_capacity(bytes.len() * 2);
        for b in bytes {
            let _ = write!(hex, "{b:02x}");
        }
        let _ = writeln!(out, "blob {addr} {hex}");
    }
    out
}

fn instr_text(i: Instr) -> String {
    use Instr::*;
    match i {
        PushI(v) => format!("PushI {v}"),
        PushF(v) => format!("PushF {:016x}", v.to_bits()),
        LocalGet(s) => format!("LocalGet {s}"),
        LocalSet(s) => format!("LocalSet {s}"),
        LocalMemAddr(o) => format!("LocalMemAddr {o}"),
        Load(k) => format!("Load {}", kind_text(k)),
        Store(k, keep) => format!("Store {} {}", kind_text(k), u8::from(keep)),
        Jump(t) => format!("Jump {t}"),
        JumpIfZero(t) => format!("JumpIfZero {t}"),
        JumpIfNotZero(t) => format!("JumpIfNotZero {t}"),
        Call(f, n) => format!("Call {f} {n}"),
        CallIntrinsic(x, n) => format!("CallIntrinsic {} {n}", x.name()),
        // Every remaining variant is fieldless; its Debug name is stable.
        other => format!("{other:?}"),
    }
}

fn kind_text(k: MemKind) -> &'static str {
    match k {
        MemKind::I8 => "i8",
        MemKind::I16 => "i16",
        MemKind::I32 => "i32",
        MemKind::I64 => "i64",
        MemKind::F32 => "f32",
        MemKind::F64 => "f64",
    }
}

/// Space-free recursive spelling of a [`CType`], e.g.
/// `ptr(arr(int,8))` or `fn(void;ptr(void),int)`.
fn ctype_text(ty: &CType) -> String {
    match ty {
        CType::Void => "void".into(),
        CType::Char => "char".into(),
        CType::Short => "short".into(),
        CType::Int => "int".into(),
        CType::Long => "long".into(),
        CType::LongLong => "llong".into(),
        CType::UInt => "uint".into(),
        CType::ULong => "ulong".into(),
        CType::Float => "float".into(),
        CType::Double => "double".into(),
        CType::Named(n) => format!("named:{n}"),
        CType::Pointer(inner) => format!("ptr({})", ctype_text(inner)),
        CType::Array(inner, len) => match len {
            Some(n) => format!("arr({},{n})", ctype_text(inner)),
            None => format!("arr({},_)", ctype_text(inner)),
        },
        CType::Function { ret, params } => {
            let params: Vec<String> = params.iter().map(ctype_text).collect();
            format!("fn({};{})", ctype_text(ret), params.join(","))
        }
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

// ------------------------------------------------------------- decode --

/// Parses the text format back into a [`Program`].
///
/// # Errors
///
/// Returns a [`SerialError`] on any malformed, truncated or
/// version-mismatched input — the store maps that to "corrupt entry,
/// recompute".
pub fn parse_program(text: &str) -> Result<Program, SerialError> {
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| SerialError::new("empty input"))?;
    match header.strip_prefix("hsmvm ") {
        Some(v) if v == SERIAL_VERSION.to_string() => {}
        Some(v) => {
            return Err(SerialError::new(format!(
                "format version {v}, expected {SERIAL_VERSION}"
            )))
        }
        None => return Err(SerialError::new("missing hsmvm header")),
    }
    let entry = field(lines.next(), "entry")?.parse::<u32>().map_err(bad)?;
    let n_funcs = field(lines.next(), "funcs")?
        .parse::<usize>()
        .map_err(bad)?;
    let mut funcs = Vec::with_capacity(n_funcs);
    for _ in 0..n_funcs {
        funcs.push(parse_func(&mut lines)?);
    }
    let n_globals = field(lines.next(), "globals")?
        .parse::<usize>()
        .map_err(bad)?;
    let mut globals = Vec::with_capacity(n_globals);
    for _ in 0..n_globals {
        let rest = field(lines.next(), "global")?;
        let mut parts = rest.splitn(4, ' ');
        let addr = next_tok(&mut parts, "global addr")?
            .parse::<u64>()
            .map_err(bad)?;
        let storage = next_tok(&mut parts, "global storage")?
            .parse::<usize>()
            .map_err(bad)?;
        let ty = parse_ctype(next_tok(&mut parts, "global type")?)?;
        let name = next_tok(&mut parts, "global name")?.to_string();
        globals.push(GlobalVar {
            name,
            ty,
            addr,
            storage,
        });
    }
    let n_strings = field(lines.next(), "strings")?
        .parse::<usize>()
        .map_err(bad)?;
    let mut strings = Vec::with_capacity(n_strings);
    for _ in 0..n_strings {
        let rest = field(lines.next(), "str")?;
        let (addr, s) = rest
            .split_once(' ')
            .ok_or_else(|| SerialError::new("malformed str line"))?;
        strings.push((addr.parse::<u64>().map_err(bad)?, unescape(s)?));
    }
    let n_blobs = field(lines.next(), "image")?
        .parse::<usize>()
        .map_err(bad)?;
    let mut image = Vec::with_capacity(n_blobs);
    for _ in 0..n_blobs {
        let rest = field(lines.next(), "blob")?;
        let (addr, hex) = rest.split_once(' ').unwrap_or((rest, ""));
        if hex.len() % 2 != 0 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(SerialError::new("malformed blob hex"));
        }
        let bytes = hex
            .as_bytes()
            .chunks(2)
            .map(|pair| {
                let s = std::str::from_utf8(pair).expect("hex ascii");
                u8::from_str_radix(s, 16).expect("validated hex")
            })
            .collect();
        image.push((addr.parse::<u64>().map_err(bad)?, bytes));
    }
    if lines.next().is_some() {
        return Err(SerialError::new("trailing lines after image section"));
    }
    let program = Program {
        funcs,
        globals,
        strings,
        image,
        entry,
    };
    if program.entry as usize >= program.funcs.len() {
        return Err(SerialError::new("entry index out of range"));
    }
    Ok(program)
}

fn parse_func<'a>(lines: &mut impl Iterator<Item = &'a str>) -> Result<Function, SerialError> {
    let rest = field(lines.next(), "func")?;
    // `<name> regs <r> params <p> frame <f> ret <type>` — 9 tokens.
    let toks: Vec<&str> = rest.split(' ').collect();
    if toks.len() != 9
        || toks[1] != "regs"
        || toks[3] != "params"
        || toks[5] != "frame"
        || toks[7] != "ret"
    {
        return Err(SerialError::new(format!("malformed func line `{rest}`")));
    }
    let name = toks[0].to_string();
    let n_regs = toks[2].parse::<u16>().map_err(bad)?;
    let n_params = toks[4].parse::<u8>().map_err(bad)?;
    let frame_mem = toks[6].parse::<u32>().map_err(bad)?;
    let ret = parse_ctype(toks[8])?;
    let n_vars = field(lines.next(), "framevars")?
        .parse::<usize>()
        .map_err(bad)?;
    let mut frame_vars = Vec::with_capacity(n_vars);
    for _ in 0..n_vars {
        let rest = field(lines.next(), "fv")?;
        let mut parts = rest.splitn(3, ' ');
        let offset = next_tok(&mut parts, "fv offset")?
            .parse::<u32>()
            .map_err(bad)?;
        let size = next_tok(&mut parts, "fv size")?
            .parse::<u32>()
            .map_err(bad)?;
        let name = next_tok(&mut parts, "fv name")?.to_string();
        frame_vars.push(FrameVar { name, offset, size });
    }
    let n_code = field(lines.next(), "code")?.parse::<usize>().map_err(bad)?;
    let mut code = Vec::with_capacity(n_code);
    for _ in 0..n_code {
        let line = lines
            .next()
            .ok_or_else(|| SerialError::new("truncated code section"))?;
        code.push(parse_instr(line)?);
    }
    Ok(Function {
        name,
        code,
        n_regs,
        n_params,
        frame_mem,
        ret,
        frame_vars,
    })
}

fn parse_instr(line: &str) -> Result<Instr, SerialError> {
    use Instr::*;
    let mut parts = line.split(' ');
    let op = parts.next().unwrap_or("");
    let mut arg = |what: &str| next_tok(&mut parts, what);
    let instr = match op {
        "PushI" => PushI(arg("PushI value")?.parse::<i64>().map_err(bad)?),
        "PushF" => PushF(f64::from_bits(
            u64::from_str_radix(arg("PushF bits")?, 16).map_err(bad)?,
        )),
        "LocalGet" => LocalGet(arg("slot")?.parse::<u16>().map_err(bad)?),
        "LocalSet" => LocalSet(arg("slot")?.parse::<u16>().map_err(bad)?),
        "LocalMemAddr" => LocalMemAddr(arg("offset")?.parse::<u32>().map_err(bad)?),
        "Load" => Load(parse_kind(arg("kind")?)?),
        "Store" => {
            let kind = parse_kind(arg("kind")?)?;
            let keep = match arg("keep")? {
                "0" => false,
                "1" => true,
                other => return Err(SerialError::new(format!("bad Store keep `{other}`"))),
            };
            Store(kind, keep)
        }
        "Jump" => Jump(arg("target")?.parse::<u32>().map_err(bad)?),
        "JumpIfZero" => JumpIfZero(arg("target")?.parse::<u32>().map_err(bad)?),
        "JumpIfNotZero" => JumpIfNotZero(arg("target")?.parse::<u32>().map_err(bad)?),
        "Call" => {
            let f = arg("func index")?.parse::<u32>().map_err(bad)?;
            let n = arg("nargs")?.parse::<u8>().map_err(bad)?;
            Call(f, n)
        }
        "CallIntrinsic" => {
            let name = arg("intrinsic name")?;
            let x = Intrinsic::from_name(name)
                .ok_or_else(|| SerialError::new(format!("unknown intrinsic `{name}`")))?;
            let n = arg("nargs")?.parse::<u8>().map_err(bad)?;
            CallIntrinsic(x, n)
        }
        "Dup" => Dup,
        "Pop" => Pop,
        "Swap" => Swap,
        "Rot3" => Rot3,
        "Add" => Add,
        "Sub" => Sub,
        "Mul" => Mul,
        "Div" => Div,
        "Rem" => Rem,
        "Shl" => Shl,
        "Shr" => Shr,
        "BitAnd" => BitAnd,
        "BitOr" => BitOr,
        "BitXor" => BitXor,
        "Neg" => Neg,
        "Not" => Not,
        "BitNot" => BitNot,
        "CmpLt" => CmpLt,
        "CmpLe" => CmpLe,
        "CmpGt" => CmpGt,
        "CmpGe" => CmpGe,
        "CmpEq" => CmpEq,
        "CmpNe" => CmpNe,
        "I2F" => I2F,
        "F2I" => F2I,
        "Ret" => Ret,
        "RetVoid" => RetVoid,
        "Nop" => Nop,
        other => return Err(SerialError::new(format!("unknown opcode `{other}`"))),
    };
    if parts.next().is_some() {
        return Err(SerialError::new(format!("trailing operands in `{line}`")));
    }
    Ok(instr)
}

fn parse_kind(s: &str) -> Result<MemKind, SerialError> {
    Ok(match s {
        "i8" => MemKind::I8,
        "i16" => MemKind::I16,
        "i32" => MemKind::I32,
        "i64" => MemKind::I64,
        "f32" => MemKind::F32,
        "f64" => MemKind::F64,
        other => return Err(SerialError::new(format!("unknown mem kind `{other}`"))),
    })
}

fn field<'a>(line: Option<&'a str>, key: &str) -> Result<&'a str, SerialError> {
    let line = line.ok_or_else(|| SerialError::new(format!("missing {key} line")))?;
    line.strip_prefix(key)
        .and_then(|r| r.strip_prefix(' '))
        .ok_or_else(|| SerialError::new(format!("expected `{key} ...`, got `{line}`")))
}

fn next_tok<'a>(
    parts: &mut impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<&'a str, SerialError> {
    parts
        .next()
        .ok_or_else(|| SerialError::new(format!("missing {what}")))
}

fn bad(e: impl fmt::Display) -> SerialError {
    SerialError::new(format!("malformed number: {e}"))
}

fn unescape(s: &str) -> Result<String, SerialError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            _ => return Err(SerialError::new("bad escape in string")),
        }
    }
    Ok(out)
}

fn parse_ctype(s: &str) -> Result<CType, SerialError> {
    let (ty, rest) = parse_ctype_prefix(s)?;
    if !rest.is_empty() {
        return Err(SerialError::new(format!("trailing type text `{rest}`")));
    }
    Ok(ty)
}

/// Parses one type from the front of `s`, returning the remainder.
fn parse_ctype_prefix(s: &str) -> Result<(CType, &str), SerialError> {
    for (word, ty) in [
        ("void", CType::Void),
        ("char", CType::Char),
        ("short", CType::Short),
        ("int", CType::Int),
        ("llong", CType::LongLong),
        ("long", CType::Long),
        ("uint", CType::UInt),
        ("ulong", CType::ULong),
        ("float", CType::Float),
        ("double", CType::Double),
    ] {
        if let Some(rest) = s.strip_prefix(word) {
            // `long` must not swallow the prefix of nothing else; the
            // delimiter set below keeps `llong` ahead of `long`.
            if rest.is_empty() || rest.starts_with([',', ')', ';']) {
                return Ok((ty, rest));
            }
        }
    }
    if let Some(rest) = s.strip_prefix("named:") {
        let end = rest.find([',', ')', ';']).unwrap_or(rest.len());
        return Ok((CType::Named(rest[..end].to_string()), &rest[end..]));
    }
    if let Some(rest) = s.strip_prefix("ptr(") {
        let (inner, rest) = parse_ctype_prefix(rest)?;
        let rest = rest
            .strip_prefix(')')
            .ok_or_else(|| SerialError::new("unclosed ptr("))?;
        return Ok((CType::Pointer(Box::new(inner)), rest));
    }
    if let Some(rest) = s.strip_prefix("arr(") {
        let (inner, rest) = parse_ctype_prefix(rest)?;
        let rest = rest
            .strip_prefix(',')
            .ok_or_else(|| SerialError::new("malformed arr("))?;
        let end = rest
            .find(')')
            .ok_or_else(|| SerialError::new("unclosed arr("))?;
        let len = match &rest[..end] {
            "_" => None,
            n => Some(n.parse::<usize>().map_err(bad)?),
        };
        return Ok((CType::Array(Box::new(inner), len), &rest[end + 1..]));
    }
    if let Some(rest) = s.strip_prefix("fn(") {
        let (ret, rest) = parse_ctype_prefix(rest)?;
        let mut rest = rest
            .strip_prefix(';')
            .ok_or_else(|| SerialError::new("malformed fn("))?;
        let mut params = Vec::new();
        if let Some(after) = rest.strip_prefix(')') {
            return Ok((
                CType::Function {
                    ret: Box::new(ret),
                    params,
                },
                after,
            ));
        }
        loop {
            let (p, r) = parse_ctype_prefix(rest)?;
            params.push(p);
            if let Some(after) = r.strip_prefix(',') {
                rest = after;
            } else if let Some(after) = r.strip_prefix(')') {
                return Ok((
                    CType::Function {
                        ret: Box::new(ret),
                        params,
                    },
                    after,
                ));
            } else {
                return Err(SerialError::new("unclosed fn("));
            }
        }
    }
    Err(SerialError::new(format!("unknown type spelling `{s}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;

    fn round_trip(src: &str) -> (Program, Program) {
        let tu = hsm_cir::parse(src).expect("parses");
        let program = compile(&tu).expect("compiles");
        let text = serialize_program(&program);
        let decoded = parse_program(&text).expect("decodes");
        (program, decoded)
    }

    #[test]
    fn round_trips_a_scalar_program() {
        let (original, decoded) = round_trip(
            "int main() { int s = 0; int i; for (i = 1; i <= 4; i++) s += i; return s; }",
        );
        assert_eq!(original, decoded);
    }

    #[test]
    fn round_trips_floats_exactly() {
        let (original, decoded) = round_trip(
            r#"
double acc;
int main() {
    acc = 0.1;
    acc = acc + 3.14159265358979;
    printf("%f\n", acc);
    return 0;
}
"#,
        );
        assert_eq!(original, decoded);
        assert!(
            serialize_program(&original).contains("PushF"),
            "float constants are present"
        );
    }

    #[test]
    fn round_trips_threads_arrays_and_strings() {
        let (original, decoded) = round_trip(
            r#"
int sum[4];
int seeds[4] = {3, 1, 4, 1};
void *tf(void *tid) { sum[(int)tid] = seeds[(int)tid] + 1; return tid; }
int main() {
    pthread_t t[4];
    int i;
    for (i = 0; i < 4; i++) pthread_create(&t[i], NULL, tf, (void *)i);
    for (i = 0; i < 4; i++) pthread_join(t[i], NULL);
    printf("tab\there\n%d\n", sum[0] + sum[1] + sum[2] + sum[3]);
    return sum[3];
}
"#,
        );
        assert_eq!(original, decoded);
        assert!(!original.image.is_empty(), "string image present");
    }

    #[test]
    fn rejects_stale_versions_and_corruption() {
        let (original, _) = round_trip("int main() { return 2; }");
        let text = serialize_program(&original);
        let stale = text.replacen("hsmvm 1", "hsmvm 999", 1);
        assert!(parse_program(&stale).is_err(), "version mismatch rejected");
        assert!(parse_program("").is_err());
        assert!(parse_program("garbage\n").is_err());
        let truncated: String = text.lines().take(4).collect::<Vec<_>>().join("\n");
        assert!(parse_program(&truncated).is_err());
    }

    #[test]
    fn ctype_codec_round_trips_nested_types() {
        let types = [
            CType::Void,
            CType::LongLong,
            CType::Long,
            CType::Named("pthread_t".into()),
            CType::Pointer(Box::new(CType::Array(Box::new(CType::Int), Some(8)))),
            CType::Array(Box::new(CType::Pointer(Box::new(CType::Char))), None),
            CType::Function {
                ret: Box::new(CType::Pointer(Box::new(CType::Void))),
                params: vec![CType::Pointer(Box::new(CType::Void)), CType::Int],
            },
            CType::Function {
                ret: Box::new(CType::Void),
                params: vec![],
            },
        ];
        for ty in types {
            let text = ctype_text(&ty);
            assert_eq!(parse_ctype(&text).expect("parses"), ty, "spelling `{text}`");
        }
    }

    #[test]
    fn intrinsic_names_invert_from_name() {
        // Spot-check the two spellings that differ from the variant name.
        assert_eq!(
            Intrinsic::from_name(Intrinsic::RcceMpbMalloc.name()),
            Some(Intrinsic::RcceMpbMalloc)
        );
        assert_eq!(
            Intrinsic::from_name(Intrinsic::MutexLock.name()),
            Some(Intrinsic::MutexLock)
        );
    }
}
