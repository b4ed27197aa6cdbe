//! Runtime values of the interpreter.
//!
//! A value is `Copy`: reading a local is a slot copy, and a function
//! reference is the callee's index in the program's function table
//! rather than its name. Names reach the hook layer only when an
//! indirect call actually happens.

use std::fmt;

pub use scalana_lang::lower::FuncId;

/// A MiniMPI runtime value: 64-bit integers (which also serve as request
/// handles) or function references for indirect calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// Integer (arithmetic, booleans as 0/1, request ids).
    Int(i64),
    /// `&func` reference, by function index.
    Func(FuncId),
}

impl Value {
    /// Integer content, or `None` for function references.
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(v),
            Value::Func(_) => None,
        }
    }

    /// Truthiness: nonzero integers are true; function refs are true.
    pub fn truthy(self) -> bool {
        match self {
            Value::Int(v) => v != 0,
            Value::Func(_) => true,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Func(id) => write!(f, "&#{id}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::Int(0).truthy());
        assert!(Value::Int(-1).truthy());
        assert!(Value::Func(0).truthy());
        assert_eq!(Value::Func(0).as_int(), None);
        assert_eq!(Value::Int(7).as_int(), Some(7));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Func(3).to_string(), "&#3");
    }
}
