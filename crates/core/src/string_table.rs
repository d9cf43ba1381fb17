//! Interned strings shared across a profile.
//!
//! Function names, file paths, and load-module names repeat heavily in
//! call-path profiles; interning them once keeps the calling context tree
//! compact (paper §IV-A: "minimizes the storage in both memory and disk").
//!
//! The table keeps every string's bytes back to back in one append-only
//! `String`, so interning allocates nothing per string and a lookup
//! neither clones its key nor chases a pointer per entry. Lookup is an
//! open-addressed probe keyed by an FxHash of the bytes.

use crate::fast_hash::FxHasher;
use std::hash::Hasher;

/// A handle to an interned string in a [`StringTable`].
///
/// `StringId(0)` is always the empty string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StringId(pub(crate) u32);

impl StringId {
    /// The id of the empty string, present in every table.
    pub const EMPTY: StringId = StringId(0);

    /// The raw index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an id from a raw index (used by deserialization).
    pub fn from_index(index: usize) -> StringId {
        StringId(index as u32)
    }
}

/// A deduplicating string table. Ids are dense and handed out in
/// first-intern order.
///
/// # Examples
///
/// ```
/// use ev_core::StringTable;
///
/// let mut t = StringTable::new();
/// let a = t.intern("main");
/// let b = t.intern("main");
/// assert_eq!(a, b);
/// assert_eq!(t.resolve(a), "main");
/// ```
#[derive(Debug, Clone)]
pub struct StringTable {
    /// Every interned string, back to back.
    bytes: String,
    /// Id → (offset, length) into `bytes`.
    spans: Vec<(u32, u32)>,
    /// Open-addressed probe table; a slot holds `id + 1`, 0 = empty.
    /// Its length is a power of two.
    table: Vec<u32>,
}

fn hash_str(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    // Mix the length so zero-padded tails of different lengths (the
    // word-at-a-time remainder) do not collide systematically.
    h.write_usize(s.len());
    h.finish()
}

impl StringTable {
    /// Creates a table containing only the empty string.
    pub fn new() -> StringTable {
        let mut table = StringTable {
            bytes: String::new(),
            spans: Vec::new(),
            table: vec![0; 16],
        };
        table.intern("");
        table
    }

    fn str_at(&self, id: u32) -> &str {
        let (start, len) = self.spans[id as usize];
        &self.bytes[start as usize..(start + len) as usize]
    }

    /// The probe slot holding `s`, or the empty slot where it would go.
    fn slot_of(&self, s: &str) -> usize {
        let mask = self.table.len() - 1;
        let mut slot = (hash_str(s) as usize) & mask;
        while let Some(id) = self.table[slot].checked_sub(1) {
            if self.str_at(id) == s {
                break;
            }
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// Interns `s`, returning its id; repeated calls with equal strings
    /// return equal ids.
    ///
    /// # Panics
    ///
    /// Panics if the table's bytes would exceed `u32::MAX`.
    pub fn intern(&mut self, s: &str) -> StringId {
        let slot = self.slot_of(s);
        if let Some(id) = self.table[slot].checked_sub(1) {
            return StringId(id);
        }
        let id = self.spans.len() as u32;
        let start = self.bytes.len();
        assert!(
            start + s.len() <= u32::MAX as usize,
            "string table byte storage overflow"
        );
        self.bytes.push_str(s);
        self.spans.push((start as u32, s.len() as u32));
        self.table[slot] = id + 1;
        // Keep the probe table under 7/8 load.
        if (self.spans.len() + 1) * 8 > self.table.len() * 7 {
            self.grow();
        }
        StringId(id)
    }

    fn grow(&mut self) {
        let new_len = self.table.len() * 2;
        let mut table = vec![0u32; new_len];
        let mask = new_len - 1;
        for id in 0..self.spans.len() as u32 {
            let mut slot = (hash_str(self.str_at(id)) as usize) & mask;
            while table[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            table[slot] = id + 1;
        }
        self.table = table;
    }

    /// Returns the string for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table (or a table whose
    /// contents this one was deserialized from).
    pub fn resolve(&self, id: StringId) -> &str {
        assert!(id.index() < self.spans.len(), "unknown string id {}", id.0);
        self.str_at(id.0)
    }

    /// Fallible lookup, for ids from untrusted serialized data.
    pub fn get(&self, id: StringId) -> Option<&str> {
        (id.index() < self.spans.len()).then(|| self.str_at(id.0))
    }

    /// Looks up an already-interned string without inserting.
    pub fn lookup(&self, s: &str) -> Option<StringId> {
        self.table[self.slot_of(s)].checked_sub(1).map(StringId)
    }

    /// Number of interned strings (including the empty string).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Always `false`: the empty string is interned at construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates over the interned strings in id order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        (0..self.spans.len() as u32).map(|id| self.str_at(id))
    }

    /// Rebuilds a table from serialized contents. The first entry must be
    /// the empty string; if absent it is prepended, preserving relative
    /// order of the rest (this only happens for hand-built inputs).
    pub fn from_strings(strings: Vec<String>) -> StringTable {
        let mut table = StringTable::new();
        for s in &strings {
            table.intern(s);
        }
        table
    }
}

impl Default for StringTable {
    /// The same as [`StringTable::new`]: the empty string is id 0.
    fn default() -> StringTable {
        StringTable::new()
    }
}

impl PartialEq for StringTable {
    fn eq(&self, other: &StringTable) -> bool {
        self.spans.len() == other.spans.len() && self.iter().eq(other.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_test::prelude::*;

    #[test]
    fn empty_string_is_id_zero() {
        let mut t = StringTable::new();
        assert_eq!(t.intern(""), StringId::EMPTY);
        assert_eq!(t.resolve(StringId::EMPTY), "");
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn default_table_holds_the_empty_string() {
        let mut t = StringTable::default();
        assert_eq!(t.len(), 1);
        assert_eq!(t.resolve(StringId::EMPTY), "");
        assert_ne!(t.intern("main"), StringId::EMPTY);
        assert_eq!(t.intern(""), StringId::EMPTY);
        assert_eq!(t, {
            let mut n = StringTable::new();
            n.intern("main");
            n
        });
    }

    #[test]
    fn interning_deduplicates() {
        let mut t = StringTable::new();
        let a = t.intern("foo");
        let b = t.intern("bar");
        let c = t.intern("foo");
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn deduplicates_and_resolves() {
        let mut t = StringTable::new();
        let a = t.intern("foo");
        let b = t.intern("bar");
        assert_ne!(a, b);
        assert_eq!(t.intern("foo"), a);
        assert_eq!(t.resolve(a), "foo");
        assert_eq!(t.resolve(b), "bar");
        assert_eq!(t.get(StringId(99)), None);
        assert_eq!(t.lookup("bar"), Some(b));
        assert_eq!(t.lookup("baz"), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn empty_string_is_found_before_interning() {
        let mut t = StringTable::new();
        assert_eq!(t.lookup(""), Some(StringId::EMPTY));
        let e = t.intern("");
        assert_eq!(e, StringId::EMPTY);
        assert_eq!(t.resolve(e), "");
        assert_eq!(t.intern(""), e);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn lookup_does_not_insert() {
        let mut t = StringTable::new();
        assert_eq!(t.lookup("x"), None);
        let id = t.intern("x");
        assert_eq!(t.lookup("x"), Some(id));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn get_is_fallible() {
        let t = StringTable::new();
        assert_eq!(t.get(StringId(99)), None);
        assert_eq!(t.get(StringId::EMPTY), Some(""));
    }

    #[test]
    fn from_strings_roundtrip() {
        let mut t = StringTable::new();
        for s in ["alpha", "beta", "gamma"] {
            t.intern(s);
        }
        let rebuilt = StringTable::from_strings(t.iter().map(str::to_owned).collect());
        assert_eq!(t, rebuilt);
    }

    #[test]
    fn survives_growth_with_dense_ids() {
        let mut t = StringTable::new();
        let ids: Vec<StringId> = (0..1000).map(|n| t.intern(&format!("s{n}"))).collect();
        // Dense in first-intern order, after the empty string.
        assert_eq!(
            ids,
            (1..=1000).map(StringId::from_index).collect::<Vec<_>>()
        );
        for (n, id) in ids.iter().enumerate() {
            assert_eq!(t.resolve(*id), format!("s{n}"));
            assert_eq!(t.lookup(&format!("s{n}")), Some(*id));
        }
        assert_eq!(t.len(), 1001);
    }

    #[test]
    fn equality_is_by_contents() {
        let mut a = StringTable::new();
        let mut b = StringTable::new();
        for s in ["x", "y", "z"] {
            a.intern(s);
        }
        for s in ["x", "y"] {
            b.intern(s);
        }
        assert_ne!(a, b);
        b.intern("z");
        assert_eq!(a, b);
        b.intern("w");
        assert_ne!(a, b);
    }

    property! {
        fn resolve_inverts_intern(strings in vec(string_printable(0..21), 0..50)) {
            let mut t = StringTable::new();
            let ids: Vec<_> = strings.iter().map(|s| t.intern(s)).collect();
            for (s, id) in strings.iter().zip(ids) {
                prop_assert_eq!(t.resolve(id), s.as_str());
            }
        }

        fn ids_are_dense(strings in vec(string_from("abcdef", 1..5), 0..50)) {
            let mut t = StringTable::new();
            for s in &strings {
                t.intern(s);
            }
            // Every id below len() resolves.
            for i in 0..t.len() {
                prop_assert!(t.get(StringId::from_index(i)).is_some());
            }
        }

        fn matches_reference_vec(strings in vec(string_printable(0..24), 0..200)) {
            // Differential against the obvious linear-search construction.
            let mut table = StringTable::new();
            let mut reference: Vec<String> = vec![String::new()];
            for s in &strings {
                let id = table.intern(s);
                match reference.iter().position(|r| r == s) {
                    Some(pos) => prop_assert_eq!(id.index(), pos),
                    None => {
                        prop_assert_eq!(id.index(), reference.len());
                        reference.push(s.clone());
                    }
                }
            }
            prop_assert_eq!(table.len(), reference.len());
            for (id, s) in reference.iter().enumerate() {
                prop_assert_eq!(table.resolve(StringId::from_index(id)), s.as_str());
            }
            prop_assert!(table.iter().eq(reference.iter().map(String::as_str)));
        }
    }
}
