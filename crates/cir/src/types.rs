//! The C type model used throughout analysis, partitioning and translation.
//!
//! Sizes follow the 32-bit IA-32 ABI of the SCC's P54C cores (pointers and
//! `long` are 4 bytes), matching the "mem size" combination of the Size and
//! Type columns in Table 4.1 of the paper.

use std::fmt;

/// A type in the supported C subset.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CType {
    /// `void` — only valid behind a pointer or as a return type.
    Void,
    /// `char` (1 byte).
    Char,
    /// `short` (2 bytes).
    Short,
    /// `int` (4 bytes).
    Int,
    /// `long` (4 bytes on IA-32).
    Long,
    /// `long long` (8 bytes).
    LongLong,
    /// `unsigned int` (4 bytes).
    UInt,
    /// `unsigned long` (4 bytes on IA-32).
    ULong,
    /// `float` (4 bytes).
    Float,
    /// `double` (8 bytes).
    Double,
    /// A named (typedef'd or library) type such as `pthread_t` or `size_t`.
    Named(String),
    /// A pointer to another type.
    Pointer(Box<CType>),
    /// An array with an optional compile-time length.
    Array(Box<CType>, Option<usize>),
    /// A function type (used for function symbols, not first-class values).
    Function {
        /// Return type.
        ret: Box<CType>,
        /// Parameter types.
        params: Vec<CType>,
    },
}

impl CType {
    /// Convenience constructor for a pointer to `self`.
    pub fn ptr_to(self) -> CType {
        CType::Pointer(Box::new(self))
    }

    /// Convenience constructor for an array of `self`.
    pub fn array_of(self, len: Option<usize>) -> CType {
        CType::Array(Box::new(self), len)
    }

    /// Whether this is any pointer type.
    pub fn is_pointer(&self) -> bool {
        matches!(self, CType::Pointer(_))
    }

    /// Whether this is an array type.
    pub fn is_array(&self) -> bool {
        matches!(self, CType::Array(..))
    }

    /// Whether the type is a floating-point scalar.
    pub fn is_float(&self) -> bool {
        matches!(self, CType::Float | CType::Double)
    }

    /// The element type of an array or the pointee of a pointer, if any.
    pub fn element(&self) -> Option<&CType> {
        match self {
            CType::Pointer(t) | CType::Array(t, _) => Some(t),
            _ => None,
        }
    }

    /// The declared element count (1 for scalars, the length for arrays).
    ///
    /// This is the "Size" column of Table 4.1 in the paper: `sum[3]` has
    /// size 3, `int x` has size 1, `int *p` has size 1.
    pub fn count(&self) -> usize {
        match self {
            CType::Array(inner, len) => len.unwrap_or(1) * inner.count(),
            _ => 1,
        }
    }

    /// Size in bytes of one element (scalar size, pointee ignored).
    ///
    /// Named types default to 4 bytes (the size of `pthread_t` and other
    /// handle types on IA-32) unless they are well-known larger library
    /// types.
    pub fn scalar_size(&self) -> usize {
        match self {
            CType::Void => 0,
            CType::Char => 1,
            CType::Short => 2,
            CType::Int | CType::UInt | CType::Long | CType::ULong | CType::Float => 4,
            CType::LongLong | CType::Double => 8,
            CType::Pointer(_) => 4,
            CType::Array(inner, _) => inner.scalar_size(),
            CType::Named(name) => match name.as_str() {
                "pthread_mutex_t" => 24,
                "pthread_attr_t" => 36,
                _ => 4,
            },
            CType::Function { .. } => 0,
        }
    }

    /// Total memory footprint in bytes (`count * scalar_size`).
    ///
    /// This is the `mem_size` used by the paper's Algorithm 3 partitioner.
    ///
    /// ```
    /// use hsm_cir::CType;
    /// let sum = CType::Int.array_of(Some(3));
    /// assert_eq!(sum.mem_size(), 12);
    /// assert_eq!(CType::Double.ptr_to().mem_size(), 4);
    /// ```
    pub fn mem_size(&self) -> usize {
        self.count() * self.scalar_size()
    }

    /// Strips one level of array to yield the pointer type it decays to in
    /// expression context, or returns a clone for non-arrays.
    pub fn decay(&self) -> CType {
        match self {
            CType::Array(inner, _) => CType::Pointer(inner.clone()),
            other => other.clone(),
        }
    }

    /// Whether the type names a pthread library type that the translator
    /// must remove (Algorithm 7).
    pub fn is_pthread_type(&self) -> bool {
        match self {
            CType::Named(n) => n.starts_with("pthread_"),
            CType::Pointer(t) | CType::Array(t, _) => t.is_pthread_type(),
            _ => false,
        }
    }

    fn base_name(&self) -> String {
        match self {
            CType::Void => "void".into(),
            CType::Char => "char".into(),
            CType::Short => "short".into(),
            CType::Int => "int".into(),
            CType::Long => "long".into(),
            CType::LongLong => "long long".into(),
            CType::UInt => "unsigned int".into(),
            CType::ULong => "unsigned long".into(),
            CType::Float => "float".into(),
            CType::Double => "double".into(),
            CType::Named(n) => n.clone(),
            CType::Pointer(t) | CType::Array(t, _) => t.base_name(),
            CType::Function { ret, .. } => ret.base_name(),
        }
    }

    /// Renders a C declaration of `name` with this type, e.g.
    /// `int *sum[3]` for `name = "sum"`.
    ///
    /// ```
    /// use hsm_cir::CType;
    /// let t = CType::Int.ptr_to();
    /// assert_eq!(t.display_decl("ptr"), "int *ptr");
    /// let a = CType::Int.array_of(Some(3));
    /// assert_eq!(a.display_decl("sum"), "int sum[3]");
    /// ```
    pub fn display_decl(&self, name: &str) -> String {
        let base = self.base_name();
        let decl = self.declarator(name);
        if decl.is_empty() {
            base
        } else {
            format!("{base} {decl}")
        }
    }

    fn declarator(&self, name: &str) -> String {
        match self {
            CType::Pointer(inner) => {
                let starred = format!("*{name}");
                match **inner {
                    CType::Array(..) | CType::Function { .. } => {
                        inner.declarator(&format!("({starred})"))
                    }
                    _ => inner.declarator(&starred),
                }
            }
            CType::Array(inner, len) => {
                let suffixed = match len {
                    Some(n) => format!("{name}[{n}]"),
                    None => format!("{name}[]"),
                };
                inner.declarator(&suffixed)
            }
            CType::Function { ret, params } => {
                let ps: Vec<String> = if params.is_empty() {
                    vec![]
                } else {
                    params.iter().map(|p| p.display_decl("")).collect()
                };
                ret.declarator(&format!("{name}({})", ps.join(", ")))
            }
            _ => name.to_string(),
        }
    }
}

impl fmt::Display for CType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_decl(""))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes_match_ia32() {
        assert_eq!(CType::Int.mem_size(), 4);
        assert_eq!(CType::Double.mem_size(), 8);
        assert_eq!(CType::Char.mem_size(), 1);
        assert_eq!(CType::Long.mem_size(), 4);
        assert_eq!(CType::Int.ptr_to().mem_size(), 4);
    }

    #[test]
    fn array_sizes_multiply() {
        let a = CType::Double.array_of(Some(100));
        assert_eq!(a.count(), 100);
        assert_eq!(a.mem_size(), 800);
        let m = CType::Double.array_of(Some(4)).array_of(Some(8));
        assert_eq!(m.count(), 32);
        assert_eq!(m.mem_size(), 256);
    }

    #[test]
    fn table_4_1_sizes() {
        // Table 4.1: `sum` is int* with size 3 (array of 3 decayed) — the
        // declared array `int sum[3]` has count 3, mem 12 bytes.
        assert_eq!(CType::Int.array_of(Some(3)).count(), 3);
        // `threads` is pthread_t[3]: size 3.
        let t = CType::Named("pthread_t".into()).array_of(Some(3));
        assert_eq!(t.count(), 3);
        assert_eq!(t.mem_size(), 12);
    }

    #[test]
    fn decay_turns_array_into_pointer() {
        let a = CType::Int.array_of(Some(3));
        assert_eq!(a.decay(), CType::Int.ptr_to());
        assert_eq!(CType::Int.decay(), CType::Int);
    }

    #[test]
    fn pthread_types_are_detected() {
        assert!(CType::Named("pthread_t".into()).is_pthread_type());
        assert!(CType::Named("pthread_mutex_t".into()).is_pthread_type());
        assert!(CType::Named("pthread_t".into())
            .array_of(Some(3))
            .is_pthread_type());
        assert!(!CType::Named("size_t".into()).is_pthread_type());
        assert!(!CType::Int.is_pthread_type());
    }

    #[test]
    fn display_decl_renders_declarators() {
        assert_eq!(CType::Int.display_decl("x"), "int x");
        assert_eq!(CType::Void.ptr_to().display_decl("p"), "void *p");
        assert_eq!(
            CType::Int.array_of(Some(3)).ptr_to().display_decl("p"),
            "int (*p)[3]"
        );
        assert_eq!(
            CType::Int.ptr_to().array_of(Some(3)).display_decl("a"),
            "int *a[3]"
        );
        assert_eq!(CType::Double.to_string(), "double");
    }

    #[test]
    fn classification_predicates() {
        assert!(CType::Double.is_float());
        assert!(!CType::Int.is_float());
        assert!(CType::Void.ptr_to().is_pointer());
        assert!(CType::Int.array_of(None).is_array());
    }

    #[test]
    fn element_walks_one_level() {
        let t = CType::Int.ptr_to();
        assert_eq!(t.element(), Some(&CType::Int));
        assert_eq!(CType::Int.element(), None);
    }
}
