//! A `printf` formatter for the simulated C library.

use crate::machine::{addr_arg, ExecError};
use hsm_vm::Value;

/// Formats `fmt` with `args` following C `printf` conventions for the
/// directives the benchmarks use: `%d %i %u %ld %lu %f %.Nf %e %g %s %c
/// %x %p %%` (field widths are honoured for integers and floats).
///
/// Missing arguments format as empty; `%s` consumes a string resolved by
/// the caller (see `args_strings`): string arguments are pre-resolved into
/// `strings` in consumption order.
pub(crate) fn format(fmt: &str, args: &[Value], strings: &[String]) -> String {
    let mut out = String::new();
    let mut chars = fmt.chars().peekable();
    let mut arg_i = 0usize;
    let mut str_i = 0usize;
    let next = |arg_i: &mut usize| -> Value {
        let v = args.get(*arg_i).copied().unwrap_or(Value::I(0));
        *arg_i += 1;
        v
    };
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        // Parse %[flags][width][.prec][length]conv
        let mut spec = String::new();
        let mut conv = '\0';
        loop {
            match chars.peek().copied() {
                Some(c2)
                    if c2.is_ascii_digit()
                        || c2 == '.'
                        || c2 == '-'
                        || c2 == '+'
                        || c2 == ' '
                        || c2 == '0' =>
                {
                    spec.push(c2);
                    chars.next();
                }
                Some('l') | Some('h') | Some('z') => {
                    chars.next();
                }
                Some(c2) => {
                    conv = c2;
                    chars.next();
                    break;
                }
                None => break,
            }
        }
        let (width, precision, left, zero) = parse_spec(&spec);
        let formatted = match conv {
            '%' => "%".to_string(),
            'd' | 'i' | 'u' => {
                let v = next(&mut arg_i).as_i();
                pad_int(v.to_string(), width, left, zero)
            }
            'x' => {
                let v = next(&mut arg_i).as_i();
                pad_int(format!("{v:x}"), width, left, zero)
            }
            'c' => {
                let v = next(&mut arg_i).as_i();
                char::from_u32(v as u32).unwrap_or('?').to_string()
            }
            'f' | 'F' => {
                let v = next(&mut arg_i).as_f();
                let p = precision.unwrap_or(6);
                pad_int(format!("{v:.p$}"), width, left, zero)
            }
            'e' => {
                let v = next(&mut arg_i).as_f();
                let p = precision.unwrap_or(6);
                format!("{v:.p$e}")
            }
            'g' => {
                let v = next(&mut arg_i).as_f();
                format!("{v}")
            }
            's' => {
                let _ = next(&mut arg_i);
                let s = strings.get(str_i).cloned().unwrap_or_default();
                str_i += 1;
                s
            }
            'p' => {
                let v = next(&mut arg_i).as_i();
                format!("0x{v:x}")
            }
            other => format!("%{other}"),
        };
        out.push_str(&formatted);
    }
    out
}

fn parse_spec(spec: &str) -> (usize, Option<usize>, bool, bool) {
    let left = spec.starts_with('-');
    let trimmed = spec.trim_start_matches(['-', '+', ' ']);
    let zero = trimmed.starts_with('0');
    let mut parts = trimmed.splitn(2, '.');
    let width = parts
        .next()
        .and_then(|w| w.trim_start_matches('0').parse().ok())
        .unwrap_or(0);
    let precision = parts.next().and_then(|p| p.parse().ok());
    (width, precision, left, zero)
}

fn pad_int(s: String, width: usize, left: bool, zero: bool) -> String {
    if s.len() >= width {
        return s;
    }
    let pad = width - s.len();
    if left {
        format!("{s}{}", " ".repeat(pad))
    } else if zero {
        // Zero-padding goes after a sign.
        if let Some(rest) = s.strip_prefix('-') {
            format!("-{}{rest}", "0".repeat(pad))
        } else {
            format!("{}{s}", "0".repeat(pad))
        }
    } else {
        format!("{}{s}", " ".repeat(pad))
    }
}

/// Formats one `printf` syscall end to end: resolves the format string
/// and every `%s` argument through `read_cstr` (the calling unit's view
/// of memory), then delegates to [`format()`].
///
/// This is the single formatting path both execution modes share; the
/// coherence model decides what `read_cstr` actually observes.
///
/// # Errors
///
/// A negative format or `%s` pointer is the program's error.
pub(crate) fn format_syscall(
    args: &[Value],
    read_cstr: &mut dyn FnMut(u64) -> String,
) -> Result<String, ExecError> {
    if args.is_empty() {
        return Ok(String::new());
    }
    let fmt = read_cstr(addr_arg(args, 0)?);
    let rest = &args[1..];
    let mut strings = Vec::new();
    for i in count_string_args(&fmt) {
        if i < rest.len() {
            strings.push(read_cstr(addr_arg(rest, i)?));
        }
    }
    Ok(format(&fmt, rest, &strings))
}

/// Counts how many `%s` directives `fmt` contains (the engine resolves
/// those argument addresses to strings before formatting).
pub(crate) fn count_string_args(fmt: &str) -> Vec<usize> {
    // Returns the argument indices (0-based, counting all conversion
    // directives) that are strings.
    let mut out = Vec::new();
    let mut chars = fmt.chars().peekable();
    let mut idx = 0usize;
    while let Some(c) = chars.next() {
        if c != '%' {
            continue;
        }
        // Skip flags/width/precision/length.
        while let Some(&c2) = chars.peek() {
            if c2.is_ascii_digit() || matches!(c2, '.' | '-' | '+' | ' ' | 'l' | 'h' | 'z') {
                chars.next();
            } else {
                break;
            }
        }
        match chars.next() {
            Some('%') => {}
            Some('s') => {
                out.push(idx);
                idx += 1;
            }
            Some(_) => idx += 1,
            None => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_directives() {
        assert_eq!(
            format("Sum Array: %d\n", &[Value::I(7)], &[]),
            "Sum Array: 7\n"
        );
        assert_eq!(
            format("%d + %d = %d", &[1.into(), 2.into(), 3.into()], &[]),
            "1 + 2 = 3"
        );
        assert_eq!(format("100%%", &[], &[]), "100%");
    }

    #[test]
    fn float_precision() {
        assert_eq!(format("%f", &[Value::F(3.25159)], &[]), "3.251590");
        assert_eq!(format("%.2f", &[Value::F(3.25159)], &[]), "3.25");
        assert_eq!(format("%.10f", &[Value::F(0.5)], &[]), "0.5000000000");
    }

    #[test]
    fn widths_and_padding() {
        assert_eq!(format("%5d", &[Value::I(42)], &[]), "   42");
        assert_eq!(format("%-5d|", &[Value::I(42)], &[]), "42   |");
        assert_eq!(format("%05d", &[Value::I(42)], &[]), "00042");
        assert_eq!(format("%05d", &[Value::I(-42)], &[]), "-0042");
    }

    #[test]
    fn long_modifier_is_transparent() {
        assert_eq!(format("%ld", &[Value::I(1_000_000)], &[]), "1000000");
        assert_eq!(format("%lu", &[Value::I(9)], &[]), "9");
    }

    #[test]
    fn strings_and_chars() {
        assert_eq!(
            format(
                "%s world %c",
                &[Value::I(0), Value::I(33)],
                &["hello".into()]
            ),
            "hello world !"
        );
    }

    #[test]
    fn hex_and_pointer() {
        assert_eq!(format("%x", &[Value::I(255)], &[]), "ff");
        assert_eq!(format("%p", &[Value::I(0x1000)], &[]), "0x1000");
    }

    #[test]
    fn scientific() {
        let s = format("%e", &[Value::F(12345.0)], &[]);
        assert!(s.contains('e'), "{s}");
    }

    #[test]
    fn missing_args_default_to_zero() {
        assert_eq!(format("%d %d", &[Value::I(1)], &[]), "1 0");
    }

    #[test]
    fn string_arg_positions() {
        assert_eq!(count_string_args("%d %s %f %s"), vec![1, 3]);
        assert_eq!(count_string_args("no directives"), Vec::<usize>::new());
        assert_eq!(count_string_args("%%s"), Vec::<usize>::new());
    }
}
