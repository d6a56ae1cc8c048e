//! The ssair type system.
//!
//! A small monomorphic type system mirroring the LLVM types that the
//! benchmarks and the IDL atomic constraints (`is integer`, `is float`,
//! `is pointer`) need. Pointers carry their pointee type so that `gep`
//! can scale indices by the element size, exactly like a typed LLVM GEP.
//!
//! Every pointer points at a scalar or at another pointer, so a type is
//! exactly a scalar plus a pointer depth: a two-byte `Copy` value that
//! needs no heap and no recursion to build, compare, print or drop.

use std::fmt;

/// The scalar at the bottom of a type: the type itself at depth 0, the
/// innermost pointee of a pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Scalar {
    I1,
    I32,
    I64,
    F32,
    F64,
    Void,
}

/// A first-class ssair type: a scalar behind `depth` levels of pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Type {
    scalar: Scalar,
    depth: u8,
}

const _: () = assert!(std::mem::size_of::<Type>() <= 2);

impl Type {
    /// 1-bit boolean, produced by comparisons and consumed by branches.
    pub const I1: Type = Type::scalar(Scalar::I1);
    /// 32-bit signed integer.
    pub const I32: Type = Type::scalar(Scalar::I32);
    /// 64-bit signed integer (also the index type of `gep`).
    pub const I64: Type = Type::scalar(Scalar::I64);
    /// 32-bit IEEE float.
    pub const F32: Type = Type::scalar(Scalar::F32);
    /// 64-bit IEEE double.
    pub const F64: Type = Type::scalar(Scalar::F64);
    /// The type of instructions that produce no value (`store`, `br`, ...).
    #[allow(non_upper_case_globals)]
    pub const Void: Type = Type::scalar(Scalar::Void);

    /// The deepest pointer a type can hold (`double` behind 255 `*`s).
    pub const MAX_DEPTH: usize = u8::MAX as usize;

    const fn scalar(scalar: Scalar) -> Type {
        Type { scalar, depth: 0 }
    }

    /// Pointer to `self`.
    ///
    /// # Panics
    /// If `self` is already [`Type::MAX_DEPTH`] pointers deep. Both
    /// parsers cap pointer depth below that, with room for the one level
    /// `alloca` adds.
    #[must_use]
    pub fn ptr_to(self) -> Type {
        let depth = self.depth.checked_add(1).expect("pointer depth fits u8");
        Type { depth, ..self }
    }

    /// `true` for the integer types `i1`, `i32`, `i64`.
    #[must_use]
    pub fn is_integer(self) -> bool {
        matches!(self, Type::I1 | Type::I32 | Type::I64)
    }

    /// `true` for `f32` and `f64`.
    #[must_use]
    pub fn is_float(self) -> bool {
        matches!(self, Type::F32 | Type::F64)
    }

    /// `true` for pointer types.
    #[must_use]
    pub fn is_pointer(self) -> bool {
        self.depth > 0
    }

    /// The pointee type of a pointer, or `None` for non-pointers.
    #[must_use]
    pub fn pointee(self) -> Option<Type> {
        let depth = self.depth.checked_sub(1)?;
        Some(Type { depth, ..self })
    }

    /// Size of a value of this type in bytes, as laid out by the
    /// interpreter's memory model (pointers are 8 bytes).
    #[must_use]
    pub fn size_bytes(self) -> usize {
        if self.is_pointer() {
            return 8;
        }
        match self.scalar {
            Scalar::I1 => 1,
            Scalar::I32 | Scalar::F32 => 4,
            Scalar::I64 | Scalar::F64 => 8,
            Scalar::Void => 0,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self.scalar {
            Scalar::I1 => "i1",
            Scalar::I32 => "i32",
            Scalar::I64 => "i64",
            Scalar::F32 => "float",
            Scalar::F64 => "double",
            Scalar::Void => "void",
        })?;
        for _ in 0..self.depth {
            f.write_str("*")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trip_shapes() {
        assert_eq!(Type::I32.to_string(), "i32");
        assert_eq!(Type::F64.ptr_to().to_string(), "double*");
        assert_eq!(Type::F64.ptr_to().ptr_to().to_string(), "double**");
    }

    #[test]
    fn classification() {
        assert!(Type::I1.is_integer());
        assert!(Type::I64.is_integer());
        assert!(!Type::F32.is_integer());
        assert!(Type::F32.is_float());
        assert!(Type::I32.ptr_to().is_pointer());
        assert!(!Type::I32.is_pointer());
        assert!(!Type::I32.ptr_to().is_integer());
        assert!(!Type::F64.ptr_to().is_float());
    }

    #[test]
    fn sizes() {
        assert_eq!(Type::I32.size_bytes(), 4);
        assert_eq!(Type::F64.size_bytes(), 8);
        assert_eq!(Type::I1.size_bytes(), 1);
        assert_eq!(Type::I32.ptr_to().size_bytes(), 8);
        assert_eq!(Type::I1.ptr_to().size_bytes(), 8);
        assert_eq!(Type::Void.size_bytes(), 0);
        assert_eq!(Type::Void.ptr_to().size_bytes(), 8);
    }

    #[test]
    fn pointee() {
        let p = Type::F32.ptr_to();
        assert_eq!(p.pointee(), Some(Type::F32));
        assert_eq!(p.ptr_to().pointee(), Some(p));
        assert_eq!(Type::F32.pointee(), None);
        assert_ne!(p, Type::F32);
        assert_ne!(p, Type::I32.ptr_to());
    }
}
