//! Token interning: `Sym` ↔ token text.
//!
//! Every tokenizer in this crate resolves token text to a compact
//! [`Sym`] through an [`Interner`], so a token's heap string is stored
//! exactly once per corpus no matter how many bags, blocking keys or
//! inverted-index buckets mention it. Downstream set operations
//! ([`crate::tokenize::TokenBag`]) then compare 4-byte symbols instead of
//! hashing strings.
//!
//! ## Determinism
//!
//! Symbols are assigned densely in first-intern order, so a fixed
//! sequence of `intern` calls always yields the same numbering — the
//! property the streaming subsystem's parallel ingest relies on (workers
//! tokenize against a frozen interner snapshot and a single writer
//! commits fresh tokens in ingest order; see `zeroer_stream`).

use std::collections::HashMap;

/// An interned token: a dense index into an [`Interner`].
///
/// Symbols are only meaningful relative to the interner that produced
/// them; comparing symbols from different interners is a logic error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub(crate) u32);

impl Sym {
    /// The dense index of this symbol in its interner.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Flag bit marking a *scratch-local* symbol produced by
/// [`crate::derive::ScratchDeriver`]; such symbols must be remapped into
/// the global interner before use (see `DerivedRecord::commit`).
pub(crate) const LOCAL_BIT: u32 = 1 << 31;

/// Stable 64-bit FNV-1a hash of a token's text. Deliberately *not*
/// `DefaultHasher`: it is identical across processes, platforms, and std
/// versions, and cheap on the short strings tokens are.
#[inline]
pub fn fnv1a(s: &str) -> u64 {
    fnv1a_extend(FNV1A_OFFSET, s.as_bytes())
}

/// The FNV-1a offset basis: the hash of no bytes.
pub(crate) const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a hash `h` over `bytes`.
#[inline]
pub(crate) fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append-only token table: text → [`Sym`] with first-seen-order symbol
/// assignment.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    strings: Vec<Box<str>>,
    /// text-hash → candidate symbol indices (collision chain).
    map: HashMap<u64, Vec<u32>>,
    bytes: usize,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning its symbol (existing or freshly assigned).
    ///
    /// # Panics
    /// Panics if more than 2³¹ distinct tokens are interned.
    pub fn intern(&mut self, s: &str) -> Sym {
        let h = fnv1a(s);
        if let Some(ids) = self.map.get(&h) {
            for &i in ids {
                if &*self.strings[i as usize] == s {
                    return Sym(i);
                }
            }
        }
        let id = self.strings.len() as u32;
        assert!(id < LOCAL_BIT, "interner overflow: 2^31 distinct tokens");
        self.strings.push(s.into());
        self.bytes += s.len();
        self.map.entry(h).or_default().push(id);
        Sym(id)
    }

    /// Looks up an already-interned token without inserting.
    pub fn get(&self, s: &str) -> Option<Sym> {
        let ids = self.map.get(&fnv1a(s))?;
        ids.iter()
            .find(|&&i| &*self.strings[i as usize] == s)
            .map(|&i| Sym(i))
    }

    /// The text of a symbol.
    ///
    /// # Panics
    /// Panics on a symbol this interner did not produce (including
    /// uncommitted scratch-local symbols).
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym.0 as usize]
    }

    /// Number of distinct interned tokens.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Total bytes of distinct token text stored (each token once).
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

/// Anything tokens can be interned into: the global [`Interner`] or a
/// worker-local scratch table ([`crate::derive::ScratchDeriver`]).
pub trait InternSink {
    /// Interns one token.
    fn intern_token(&mut self, s: &str) -> Sym;
}

impl InternSink for Interner {
    #[inline]
    fn intern_token(&mut self, s: &str) -> Sym {
        self.intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut it = Interner::new();
        let a = it.intern("alpha");
        let b = it.intern("beta");
        assert_eq!(it.intern("alpha"), a);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(it.len(), 2);
        assert_eq!(it.bytes(), "alpha".len() + "beta".len());
    }

    #[test]
    fn resolve_round_trips() {
        let mut it = Interner::new();
        let s = it.intern("token");
        assert_eq!(it.resolve(s), "token");
        assert_eq!(it.get("token"), Some(s));
        assert_eq!(it.get("missing"), None);
    }

    #[test]
    fn fnv1a_pinned_values() {
        // `fnv1a` is documented as stable across builds: pin it.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn symbols_assigned_in_first_seen_order() {
        let mut a = Interner::new();
        let mut b = Interner::new();
        for t in ["x", "y", "x", "z"] {
            a.intern(t);
        }
        for t in ["x", "y", "z"] {
            b.intern(t);
        }
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.resolve(Sym(i as u32)), b.resolve(Sym(i as u32)));
        }
    }
}
