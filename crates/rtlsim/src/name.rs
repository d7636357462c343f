//! Interned hierarchical names.
//!
//! The kernel registers thousands of components and signals, and the
//! diagnostics / profiling surfaces used to clone their `String` names on
//! every report. Names are now interned once, at registration, into a
//! `NameArena`; everything else passes a copyable [`NameId`] around and
//! hands out cheaply-cloneable [`Name`] handles (a shared `Arc<str>`),
//! so the hot path never allocates for a name again.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Handle to an interned name in a simulator's name arena.
///
/// `NameId`s are only meaningful for the simulator that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(pub(crate) u32);

/// A cheaply-cloneable interned name (component or signal).
///
/// Dereferences to `str` and compares against string types directly, so
/// existing `assert_eq!(msg.component, "checker")`-style call sites keep
/// working. Cloning is an atomic reference-count bump, never a string
/// copy.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Name(Arc<str>);

impl Name {
    /// View as a plain string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

/// Honours width, alignment and precision, like `str`'s `Display`.
impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(&self.0)
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        &*self.0 == other.as_str()
    }
}

impl From<Name> for String {
    fn from(n: Name) -> String {
        n.0.to_string()
    }
}

/// Deduplicating arena of interned names.
#[derive(Default)]
pub(crate) struct NameArena {
    names: Vec<Name>,
    index: HashMap<Name, NameId>,
}

impl NameArena {
    pub fn new() -> NameArena {
        NameArena::default()
    }

    /// Intern `s`, returning the id of the (possibly pre-existing) entry.
    pub fn intern(&mut self, s: &str) -> NameId {
        if let Some(&id) = self.index.get(s) {
            return id;
        }
        let name = Name(Arc::from(s));
        let id = NameId(self.names.len() as u32);
        self.names.push(name.clone());
        self.index.insert(name, id);
        id
    }

    /// Resolve an id to its shared name handle.
    #[inline]
    pub fn resolve(&self, id: NameId) -> &Name {
        &self.names[id.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups_and_resolves() {
        let mut arena = NameArena::new();
        let a = arena.intern("cie.busy");
        let b = arena.intern("me.busy");
        let a2 = arena.intern("cie.busy");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(*arena.resolve(a), "cie.busy");
        assert_eq!(arena.resolve(b).as_str(), "me.busy");
    }

    #[test]
    fn name_compares_like_a_string() {
        let mut arena = NameArena::new();
        let id = arena.intern("testbench");
        let n = arena.resolve(id).clone();
        assert_eq!(n, "testbench");
        assert_eq!(n, String::from("testbench"));
        assert_eq!(format!("{n}"), "testbench");
        assert_eq!(String::from(n.clone()), "testbench");
        assert_eq!(&n[..4], "test");
    }

    #[test]
    fn name_display_pads_like_a_str() {
        let mut arena = NameArena::new();
        let id = arena.intern("mux");
        let n = arena.resolve(id).clone();
        assert_eq!(format!("{n:<6}|"), "mux   |");
        assert_eq!(format!("{n:>6}|"), "   mux|");
        assert_eq!(format!("{n:.2}|"), "mu|");
    }
}
