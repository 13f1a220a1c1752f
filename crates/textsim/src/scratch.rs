//! Reusable scratch buffers for the allocation-heavy sequence kernels.
//!
//! The DP measures (Levenshtein, Jaro-Winkler) and the hybrid
//! Monge-Elkan each allocate several short-lived `Vec`s per call — char
//! buffers, DP rows, match flags. On the bulk featurizer and the
//! batched scoring hot path those calls happen thousands of times per
//! fill, and the allocator traffic dominates the actual DP work for typical
//! attribute-length strings. [`SimScratch`] owns one set of buffers that
//! the `*_with` kernel variants reuse across calls; after the first few
//! calls the buffers have seen their maximum sizes and the kernels stop
//! allocating entirely.
//!
//! The `*_with` variants execute the **exact same operation sequence**
//! as their allocating counterparts (which delegate to them with a fresh
//! scratch), so results are bit-identical by construction — the property
//! the streaming subsystem's batched-vs-scalar parity suite locks in.

use crate::intern::{Interner, Sym};
use crate::tokenize::TokenBag;

/// Scratch buffers shared by the `*_with` sequence-similarity kernels.
///
/// One instance per worker/batch is enough; the kernels fully reset the
/// buffers they use, so a scratch can be freely reused across different
/// measures and string lengths.
#[derive(Debug, Clone, Default)]
pub struct SimScratch {
    /// Left-side chars (Unicode scalar values).
    pub(crate) a_chars: Vec<char>,
    /// Right-side chars.
    pub(crate) b_chars: Vec<char>,
    /// Integer DP row (Levenshtein `prev`).
    pub(crate) row_a: Vec<usize>,
    /// Integer DP row (Levenshtein `curr`).
    pub(crate) row_b: Vec<usize>,
    /// Bit-parallel Levenshtein match masks, one per ASCII byte. All
    /// zero between calls: a call clears exactly the entries it set.
    pub(crate) peq: Vec<u64>,
    /// Jaro per-position match flags for the left side.
    pub(crate) a_used: Vec<bool>,
    /// Jaro per-position match flags for the right side.
    pub(crate) b_used: Vec<bool>,
    /// Monge-Elkan outer token symbols.
    pub(crate) syms: Vec<Sym>,
    /// Char signatures of the tokens of one Monge-Elkan call's inner
    /// (or fixed) bag.
    pub(crate) sigs: Vec<u64>,
    /// The fixed-side Monge-Elkan memo.
    pub(crate) memo: TokenMemo,
    /// Per-outer-token running maxima of one fixed-outer Monge-Elkan
    /// pair.
    pub(crate) best: Vec<f64>,
    /// The fixed bag of a batch set-count call.
    pub(crate) marks: SymMarks,
}

impl SimScratch {
    /// A fresh, empty scratch (no buffers allocated yet).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Scores memoized per token for one batch call: one best match per
/// token when Monge-Elkan's inner bag is fixed, one Jaro-Winkler row per
/// token when its outer bag is.
///
/// A table indexed by symbol holds each token's offset into one flat
/// score buffer, so a lookup is one load; the table grows to 4 bytes per
/// symbol of the largest interner it has served. Symbols mean something
/// only within one interner, so the memo is empty between calls:
/// [`TokenMemo::clear`] resets exactly the entries the call set.
#[derive(Debug, Clone, Default)]
pub(crate) struct TokenMemo {
    /// Offset of each symbol's scores in `scores`, or [`Self::NONE`].
    at: Vec<u32>,
    /// The symbols with an offset set.
    keys: Vec<Sym>,
    /// The memoized scores.
    scores: Vec<f64>,
}

impl TokenMemo {
    const NONE: u32 = u32::MAX;

    /// Makes room for every symbol of `interner`.
    pub(crate) fn reserve(&mut self, interner: &Interner) {
        if self.at.len() < interner.len() {
            self.at.resize(interner.len(), Self::NONE);
        }
    }

    /// The offset of `sym`'s scores, if memoized.
    pub(crate) fn get(&self, sym: Sym) -> Option<usize> {
        let at = self.at[sym.index()];
        (at != Self::NONE).then_some(at as usize)
    }

    /// Memoizes `scores` for `sym`, returning their offset.
    pub(crate) fn insert(&mut self, sym: Sym, scores: impl IntoIterator<Item = f64>) -> usize {
        let at = self.scores.len();
        self.at[sym.index()] = u32::try_from(at)
            .ok()
            .filter(|&a| a != Self::NONE)
            .expect("fewer than 2^32 - 1 memoized scores");
        self.keys.push(sym);
        self.scores.extend(scores);
        at
    }

    /// The memoized scores, indexed by the offsets above.
    pub(crate) fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Forgets every token.
    pub(crate) fn clear(&mut self) {
        for sym in self.keys.drain(..) {
            self.at[sym.index()] = Self::NONE;
        }
        self.scores.clear();
    }
}

/// A set of symbols, one bit per symbol of the largest interner it has
/// served: marking a bag once turns each membership test against it
/// into one load. All bits are zero between calls: [`SymMarks::unmark`]
/// clears exactly the bits [`SymMarks::mark`] set.
#[derive(Debug, Clone, Default)]
pub(crate) struct SymMarks {
    bits: Vec<u64>,
}

impl SymMarks {
    /// Makes room for every symbol of `interner`.
    pub(crate) fn reserve(&mut self, interner: &Interner) {
        let words = interner.len().div_ceil(64);
        if self.bits.len() < words {
            self.bits.resize(words, 0);
        }
    }

    /// Adds `bag`'s distinct symbols.
    pub(crate) fn mark(&mut self, bag: &TokenBag) {
        for s in bag.syms() {
            self.bits[s.index() >> 6] |= 1 << (s.index() & 63);
        }
    }

    /// How many of `bag`'s distinct symbols are marked.
    pub(crate) fn count(&self, bag: &TokenBag) -> usize {
        bag.syms()
            .map(|s| ((self.bits[s.index() >> 6] >> (s.index() & 63)) & 1) as usize)
            .sum()
    }

    /// Removes `bag`'s symbols, undoing [`SymMarks::mark`] of the same bag.
    pub(crate) fn unmark(&mut self, bag: &TokenBag) {
        for s in bag.syms() {
            self.bits[s.index() >> 6] &= !(1 << (s.index() & 63));
        }
    }
}
