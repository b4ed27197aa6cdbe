//! Runtime values and lexical environments for the interpreter.

use std::fmt;

/// A MiniMPI runtime value: 64-bit integers (which also serve as request
/// handles) or function references for indirect calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Integer (arithmetic, booleans as 0/1, request ids).
    Int(i64),
    /// `&func` reference.
    Func(String),
}

impl Value {
    /// Integer content, or `None` for function references.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Func(_) => None,
        }
    }

    /// Truthiness: nonzero integers are true; function refs are true.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Int(v) => *v != 0,
            Value::Func(_) => true,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Func(name) => write!(f, "&{name}"),
        }
    }
}

/// A block-scoped variable environment (one per call frame).
///
/// Stored as one flat entry stack plus scope start offsets rather than a
/// stack of hash maps: frames hold a handful of live variables, so a
/// reverse linear scan over short strings beats hashing every lookup in
/// the interpreter's hot loop, `push_scope`/`pop_scope` are an integer
/// push/truncate, and popped entries release no per-scope table. Names
/// are borrowed from the program's AST (`'p`), so defining a variable —
/// every executed `let`, every loop iteration — never allocates.
#[derive(Debug, Default)]
pub struct Env<'p> {
    entries: Vec<(&'p str, Value)>,
    /// Start index of each open scope in `entries`.
    scope_starts: Vec<usize>,
}

impl<'p> Env<'p> {
    /// Fresh environment with one root scope.
    pub fn new() -> Env<'p> {
        Env {
            entries: Vec::new(),
            scope_starts: vec![0],
        }
    }

    /// Enter a nested block scope.
    pub fn push_scope(&mut self) {
        self.scope_starts.push(self.entries.len());
    }

    /// Leave the innermost block scope.
    pub fn pop_scope(&mut self) {
        debug_assert!(self.scope_starts.len() > 1, "cannot pop the root scope");
        if let Some(start) = self.scope_starts.pop() {
            self.entries.truncate(start);
        }
    }

    /// Define (or shadow) a variable in the innermost scope.
    pub fn define(&mut self, name: &'p str, value: Value) {
        let start = *self.scope_starts.last().expect("root scope");
        for (n, v) in self.entries[start..].iter_mut().rev() {
            if *n == name {
                *v = value;
                return;
            }
        }
        self.entries.push((name, value));
    }

    /// Reassign the nearest definition of `name`. Semantic checking
    /// guarantees it exists.
    pub fn assign(&mut self, name: &'p str, value: Value) {
        for (n, v) in self.entries.iter_mut().rev() {
            if *n == name {
                *v = value;
                return;
            }
        }
        // Unreachable for checked programs; define defensively.
        self.entries.push((name, value));
    }

    /// Look up a variable.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.entries
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
    }

    /// Current scope depth (for tests).
    pub fn depth(&self) -> usize {
        self.scope_starts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoping_shadows_and_restores() {
        let mut env = Env::new();
        env.define("x", Value::Int(1));
        env.push_scope();
        env.define("x", Value::Int(2));
        assert_eq!(env.get("x"), Some(&Value::Int(2)));
        env.pop_scope();
        assert_eq!(env.get("x"), Some(&Value::Int(1)));
    }

    #[test]
    fn assign_updates_outer_scope() {
        let mut env = Env::new();
        env.define("x", Value::Int(1));
        env.push_scope();
        env.assign("x", Value::Int(9));
        env.pop_scope();
        assert_eq!(env.get("x"), Some(&Value::Int(9)));
    }

    #[test]
    fn truthiness() {
        assert!(!Value::Int(0).truthy());
        assert!(Value::Int(-1).truthy());
        assert!(Value::Func("f".into()).truthy());
        assert_eq!(Value::Func("f".into()).as_int(), None);
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Func("foo".into()).to_string(), "&foo");
    }
}
