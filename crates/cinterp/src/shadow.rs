//! Test-only oracle: the name-keyed environment the interpreter used before
//! names were resolved at compile time — a stack of scopes, each a map from
//! name to address, with frame boundaries that hide a caller's locals.
//!
//! In unit-test builds the interpreter replays every scope, frame and
//! declaration event into a [`NameChain`] and, at every identifier it
//! evaluates, asserts that the slot the resolver chose holds the address
//! this chain finds by name.

use std::collections::HashMap;

pub(crate) struct NameChain {
    /// Scope stack; index 0 is globals.
    scopes: Vec<HashMap<String, usize>>,
    /// Frame boundaries: scopes below the innermost boundary are invisible
    /// to the running function (except globals).
    frames: Vec<usize>,
}

impl Default for NameChain {
    fn default() -> NameChain {
        NameChain {
            scopes: vec![HashMap::new()],
            frames: Vec::new(),
        }
    }
}

impl NameChain {
    pub fn push_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    pub fn pop_scope(&mut self) {
        assert!(self.scopes.len() > 1, "cannot pop the global scope");
        self.scopes.pop();
    }

    pub fn push_frame(&mut self) {
        self.frames.push(self.scopes.len());
        self.scopes.push(HashMap::new());
    }

    pub fn pop_frame(&mut self) {
        let boundary = self.frames.pop().expect("frame underflow");
        self.scopes.truncate(boundary);
    }

    pub fn define(&mut self, name: &str, addr: usize) {
        self.scopes
            .last_mut()
            .expect("at least one scope")
            .insert(name.to_string(), addr);
    }

    /// Innermost visible scope outward, stopping at the current frame
    /// boundary, then globals.
    pub fn lookup(&self, name: &str) -> Option<usize> {
        let floor = self.frames.last().copied().unwrap_or(1);
        self.scopes[floor..]
            .iter()
            .rev()
            .chain(&self.scopes[..1])
            .find_map(|scope| scope.get(name).copied())
    }

    /// Assert that the resolver's answer for `name` is the chain's.
    pub fn check(&self, name: &str, resolved: Option<usize>) {
        assert_eq!(
            resolved,
            self.lookup(name),
            "slot resolution and name lookup disagree on `{name}`"
        );
    }
}
