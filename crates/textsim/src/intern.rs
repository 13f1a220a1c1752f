//! Token interning: `Sym` ↔ token text.
//!
//! Every tokenizer in this crate resolves token text to a compact
//! [`Sym`] through an [`Interner`], so a token's text is stored exactly
//! once per corpus no matter how many bags, blocking keys or
//! inverted-index buckets mention it. Downstream set operations
//! ([`crate::tokenize::TokenBag`]) then compare 4-byte symbols instead of
//! hashing strings.
//!
//! ## Layout
//!
//! The table is flat: no allocation per token and no second hash.
//!
//! * Token texts lie back to back in one `String`; symbol `i` is the
//!   slice between offsets `i` and `i + 1` of a start-offset list.
//! * Each symbol keeps its [`fnv1a`] hash.
//! * Lookup is an open-addressing slot array holding `symbol + 1`
//!   (0 marks an empty slot). A token's home slot is the top bits of its
//!   FNV-1a hash times an odd multiplier, and probing is linear: a slot
//!   matches when its symbol's stored hash, then its text, equal the
//!   token's. The array doubles when it would pass half full, re-placing
//!   every symbol from its stored hash.
//!
//! Cloning an interner is therefore a few flat copies.
//!
//! Token text comes from outside the program, so the multiplier is drawn
//! at random for each new interner (a clone keeps it). With a known
//! multiplier, tokens could be crafted by brute force to share a home
//! slot, and every probe among them would scan one long run. Multiplying
//! by a random odd number and keeping the top `k` bits puts two distinct
//! hashes in one home slot with probability at most 2/2ᵏ (Dietzfelbinger
//! et al., *A reliable randomized algorithm for the closest-pair
//! problem*, J. Algorithms 25(1), 1997). Only tokens with equal FNV-1a
//! hashes must share a run, as they shared a chain in the `HashMap` of
//! hash → symbols this table replaced.
//!
//! ## Determinism
//!
//! Symbols are assigned densely in first-intern order, so a fixed
//! sequence of `intern` calls always yields the same numbering — the
//! property the streaming subsystem relies on: only its single writer
//! interns, deriving records in ingest order whatever the thread count
//! (see `zeroer_stream`). The slot array only finds symbols; it never
//! chooses one, so where a token lands in it, and the random multiplier,
//! have no effect on any number.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

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

/// The slot array's size when the first token arrives.
const MIN_SLOTS: usize = 16;

/// Append-only token table: text → [`Sym`] with first-seen-order symbol
/// assignment. See the module docs for the layout.
#[derive(Debug, Clone)]
pub struct Interner {
    /// Every token's text, back to back in symbol order.
    text: String,
    /// Symbol `i`'s text is `text[starts[i]..starts[i + 1]]`; one more
    /// entry than there are symbols.
    starts: Vec<u32>,
    /// Each symbol's [`fnv1a`] hash.
    hashes: Vec<u64>,
    /// Open-addressing table of `symbol + 1`, 0 = empty; its length is 0
    /// or a power of two, and at most half its slots are full.
    slots: Vec<u32>,
    /// The odd multiplier that spreads hashes over `slots`, drawn at
    /// random per interner (see the module docs).
    mix: u64,
}

impl Default for Interner {
    fn default() -> Self {
        Self {
            text: String::new(),
            starts: vec![0],
            hashes: Vec::new(),
            slots: Vec::new(),
            mix: RandomState::new().hash_one(0u64) | 1,
        }
    }
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning its symbol (existing or freshly assigned).
    ///
    /// # Panics
    /// Panics if more than 2³² − 1 distinct tokens, or more than 4 GiB
    /// of distinct token text, are interned.
    pub fn intern(&mut self, s: &str) -> Sym {
        self.intern_hashed(fnv1a(s), s)
    }

    /// [`Interner::intern`] of `s` whose [`fnv1a`] hash is `h`.
    pub(crate) fn intern_hashed(&mut self, h: u64, s: &str) -> Sym {
        let slot = match self.find(h, s) {
            Ok(sym) => return sym,
            Err(slot) => slot,
        };
        // A slot holds `symbol + 1`, so the last symbol is `u32::MAX - 1`;
        // the length never passes `u32::MAX`, so the cast is exact.
        let id = self.hashes.len() as u32;
        assert!(id < u32::MAX, "interner overflow: 2^32 - 1 distinct tokens");
        let end = u32::try_from(self.text.len() + s.len())
            .expect("interner overflow: 4 GiB of token text");
        self.text.push_str(s);
        self.starts.push(end);
        self.hashes.push(h);
        if 2 * self.hashes.len() > self.slots.len() {
            self.grow();
        } else {
            self.slots[slot] = id + 1;
        }
        Sym(id)
    }

    /// Looks up an already-interned token without inserting.
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.get_hashed(fnv1a(s), s)
    }

    /// [`Interner::get`] of `s` whose [`fnv1a`] hash is `h`.
    pub(crate) fn get_hashed(&self, h: u64, s: &str) -> Option<Sym> {
        self.find(h, s).ok()
    }

    /// `s`'s symbol, or the empty slot where it would go. With no slot
    /// array yet, the miss reports slot 0, which [`Interner::grow`]
    /// replaces.
    fn find(&self, h: u64, s: &str) -> Result<Sym, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut slot = self.home(h);
        loop {
            let id = match self.slots[slot] {
                0 => return Err(slot),
                full => full - 1,
            };
            let sym = Sym(id);
            if self.hashes[sym.index()] == h && self.resolve(sym) == s {
                return Ok(sym);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The first slot probed for hash `h`.
    #[inline]
    fn home(&self, h: u64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (h.wrapping_mul(self.mix) >> (64 - bits)) as usize
    }

    /// Doubles the slot array (or makes the first one) and re-places
    /// every symbol, the newest included.
    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(MIN_SLOTS);
        self.slots.clear();
        self.slots.resize(size, 0);
        let mask = size - 1;
        for (id, &h) in self.hashes.iter().enumerate() {
            let mut slot = self.home(h);
            while self.slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = id as u32 + 1;
        }
    }

    /// The text of a symbol.
    ///
    /// # Panics
    /// Panics on a symbol this interner did not produce.
    pub fn resolve(&self, sym: Sym) -> &str {
        let i = sym.index();
        &self.text[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// Number of distinct interned tokens.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Total bytes of distinct token text stored (each token once).
    pub fn bytes(&self) -> usize {
        self.text.len()
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
    fn colliding_hashes_still_compare_text() {
        // Every hash folded onto four values: most probes meet symbols
        // with the token's hash but another text, across several
        // doublings of the slot array, and a clone keeps probing alike.
        let weak = |s: &str| fnv1a(s) & 3;
        let tokens: Vec<String> = (0..400).map(|i| format!("t{}", i * 7 % 150)).collect();
        let mut it = Interner::new();
        let mut first_seen: Vec<&str> = Vec::new();
        let mut twin = None;
        for (n, t) in tokens.iter().enumerate() {
            let want = first_seen.iter().position(|&s| s == t).unwrap_or_else(|| {
                first_seen.push(t);
                first_seen.len() - 1
            });
            assert_eq!(it.intern_hashed(weak(t), t), Sym(want as u32), "{t}");
            if n == 200 {
                twin = Some(it.clone());
            }
        }
        let mut twin = twin.expect("cloned mid-stream");
        for t in &tokens[201..] {
            assert_eq!(
                twin.intern_hashed(weak(t), t),
                it.get_hashed(weak(t), t).unwrap()
            );
        }
        assert_eq!(it.len(), 150);
        assert_eq!(twin.len(), 150);
        for (i, t) in first_seen.iter().enumerate() {
            assert_eq!(it.get_hashed(weak(t), t), Some(Sym(i as u32)));
            assert_eq!(it.resolve(Sym(i as u32)), *t);
        }
        assert_eq!(it.get_hashed(weak("t150"), "t150"), None);
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
