//! Runtime values of the C-subset VM.

use std::fmt;

/// A runtime value: C integers/pointers live in `I`, floating point in `F`.
///
/// Pointers are plain addresses carried as integers; the compiler knows the
/// pointee type, so the VM never needs a tagged pointer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer (also used for pointers and characters).
    I(i64),
    /// Floating point (`float` is widened to `double`).
    F(f64),
}

impl Value {
    /// The integer interpretation (floats truncate, as a C cast does).
    pub fn as_i(self) -> i64 {
        match self {
            Value::I(v) => v,
            Value::F(v) => v as i64,
        }
    }

    /// The floating interpretation.
    pub fn as_f(self) -> f64 {
        match self {
            Value::I(v) => v as f64,
            Value::F(v) => v,
        }
    }

    /// C truthiness.
    pub(crate) fn is_truthy(self) -> bool {
        match self {
            Value::I(v) => v != 0,
            Value::F(v) => v != 0.0,
        }
    }

    /// Whether either operand is floating (C usual arithmetic conversion).
    pub(crate) fn promotes_to_f(self, other: Value) -> bool {
        matches!(self, Value::F(_)) || matches!(other, Value::F(_))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I(v) => write!(f, "{v}"),
            Value::F(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F(v)
    }
}

/// Memory access widths/kinds used by `Load`/`Store`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemKind {
    /// 1-byte integer.
    I8,
    /// 2-byte integer.
    I16,
    /// 4-byte integer.
    I32,
    /// 8-byte integer.
    I64,
    /// 4-byte float (widened to f64 in registers).
    F32,
    /// 8-byte float.
    F64,
}

impl MemKind {
    /// Width in bytes.
    pub fn bytes(self) -> usize {
        match self {
            MemKind::I8 => 1,
            MemKind::I16 => 2,
            MemKind::I32 | MemKind::F32 => 4,
            MemKind::I64 | MemKind::F64 => 8,
        }
    }

    /// Whether loads of this kind produce a float value.
    pub fn is_float(self) -> bool {
        matches!(self, MemKind::F32 | MemKind::F64)
    }

    /// The kind for a C type (pointers are 4-byte integers on the SCC's
    /// IA-32 cores, but we carry them in 8-byte cells for simplicity of
    /// the private address space — the *timing* uses the C size).
    pub(crate) fn for_ctype(ty: &hsm_cir::CType) -> MemKind {
        use hsm_cir::CType::*;
        match ty {
            Char => MemKind::I8,
            Short => MemKind::I16,
            Int | UInt => MemKind::I32,
            Long | ULong => MemKind::I64,
            LongLong => MemKind::I64,
            Float => MemKind::F32,
            Double => MemKind::F64,
            Pointer(_) | Array(..) | Function { .. } | Named(_) | Void => MemKind::I64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsm_cir::CType;

    #[test]
    fn conversions_match_c_semantics() {
        assert_eq!(Value::F(3.9).as_i(), 3);
        assert_eq!(Value::I(3).as_f(), 3.0);
        assert!(Value::I(1).is_truthy());
        assert!(!Value::I(0).is_truthy());
        assert!(!Value::F(0.0).is_truthy());
    }

    #[test]
    fn promotion_rules() {
        assert!(Value::I(1).promotes_to_f(Value::F(1.0)));
        assert!(Value::F(1.0).promotes_to_f(Value::I(1)));
        assert!(!Value::I(1).promotes_to_f(Value::I(2)));
    }

    #[test]
    fn memkind_widths() {
        assert_eq!(MemKind::I8.bytes(), 1);
        assert_eq!(MemKind::I32.bytes(), 4);
        assert_eq!(MemKind::F64.bytes(), 8);
        assert!(MemKind::F32.is_float());
        assert!(!MemKind::I64.is_float());
    }

    #[test]
    fn ctype_mapping() {
        assert_eq!(MemKind::for_ctype(&CType::Int), MemKind::I32);
        assert_eq!(MemKind::for_ctype(&CType::Double), MemKind::F64);
        assert_eq!(MemKind::for_ctype(&CType::Int.ptr_to()), MemKind::I64);
        assert_eq!(MemKind::for_ctype(&CType::Char), MemKind::I8);
    }
}
