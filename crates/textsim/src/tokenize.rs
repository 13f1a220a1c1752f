//! Tokenizers: q-grams and word tokens, over interned symbols.
//!
//! Magellan names its features after the tokenizer used, e.g.
//! `title_title_jac_qgm_3_qgm_3` = Jaccard over 3-grams of the two title
//! values. We reproduce the same two tokenizer families, but tokens are
//! interned ([`crate::intern::Interner`]) so a bag stores sorted
//! `(Sym, count)` pairs instead of one heap string per distinct token.

use crate::intern::{Interner, Sym};

/// A multiset of tokens with counts, the input to the token-based
/// similarity measures.
///
/// Token identity is the interned symbol; counts matter for Monge-Elkan
/// and TF-IDF but not for Jaccard/overlap (which operate on the support
/// set). Entries are stored sorted by symbol, so iteration is
/// deterministic and set operations are merge-joins over two sorted
/// slices — no hashing, no string comparisons.
///
/// Bags are only comparable when built against the same interner.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TokenBag {
    entries: Box<[(Sym, u32)]>,
    total: u32,
}

impl TokenBag {
    /// Builds a bag from a symbol stream (with multiplicity).
    pub fn from_syms(syms: Vec<Sym>) -> Self {
        let mut buf = syms;
        Self::from_sym_buf(&mut buf)
    }

    /// Builds a bag from a reusable symbol buffer (sorted and
    /// run-length-encoded in place; the buffer is left cleared).
    pub fn from_sym_buf(buf: &mut Vec<Sym>) -> Self {
        buf.sort_unstable();
        let total = buf.len() as u32;
        let mut entries: Vec<(Sym, u32)> = Vec::new();
        for &s in buf.iter() {
            match entries.last_mut() {
                Some((last, c)) if *last == s => *c += 1,
                _ => entries.push((s, 1)),
            }
        }
        buf.clear();
        Self {
            entries: entries.into_boxed_slice(),
            total,
        }
    }

    /// Number of distinct tokens.
    pub fn distinct(&self) -> usize {
        self.entries.len()
    }

    /// Total token count (with multiplicity).
    pub fn len(&self) -> usize {
        self.total as usize
    }

    /// Whether the bag is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Count of a specific symbol.
    pub fn count(&self, sym: Sym) -> u32 {
        self.entries
            .binary_search_by_key(&sym, |&(s, _)| s)
            .map(|i| self.entries[i].1)
            .unwrap_or(0)
    }

    /// Count of a token given as text (resolved through the interner the
    /// bag was built with).
    pub fn count_text(&self, interner: &Interner, token: &str) -> u32 {
        interner.get(token).map_or(0, |s| self.count(s))
    }

    /// Iterator over `(symbol, count)` pairs, sorted by symbol.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, u32)> + '_ {
        self.entries.iter().copied()
    }

    /// The distinct symbols, sorted.
    pub fn syms(&self) -> impl Iterator<Item = Sym> + '_ {
        self.entries.iter().map(|&(s, _)| s)
    }

    /// The distinct tokens as text (in symbol order).
    pub fn tokens<'a>(&'a self, interner: &'a Interner) -> impl Iterator<Item = &'a str> + 'a {
        self.syms().map(|s| interner.resolve(s))
    }

    /// Size of the set intersection (distinct tokens present in both):
    /// a merge-join over the two sorted entry slices. Each step advances
    /// by comparison results instead of branching on them, so the loop
    /// does not stall on the unpredictable order of two token lists.
    pub fn set_intersection(&self, other: &TokenBag) -> usize {
        let (a, b) = (&self.entries, &other.entries);
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            let (x, y) = (a[i].0, b[j].0);
            n += usize::from(x == y);
            i += usize::from(x <= y);
            j += usize::from(y <= x);
        }
        n
    }

    /// Size of the set union (distinct tokens present in either).
    pub fn set_union(&self, other: &TokenBag) -> usize {
        self.distinct() + other.distinct() - self.set_intersection(other)
    }
}

/// Lowercases and strips non-alphanumeric characters (keeping spaces),
/// collapsing runs of whitespace — the canonical pre-tokenization
/// cleanup. Buffer-reusing form: writes into `out`.
pub fn normalize_into(s: &str, out: &mut String) {
    out.clear();
    let mut last_space = true;
    for ch in s.chars() {
        if ch.is_alphanumeric() {
            out.extend(ch.to_lowercase());
            last_space = false;
        } else if !last_space {
            out.push(' ');
            last_space = true;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
}

/// Allocating convenience form of [`normalize_into`].
pub fn normalize(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    normalize_into(s, &mut out);
    out
}

/// Tokenizes an *already-normalized* string into word symbols, appending
/// to `out` (in occurrence order, with multiplicity).
pub(crate) fn words_from_norm(interner: &mut Interner, norm: &str, out: &mut Vec<Sym>) {
    for tok in norm.split(' ') {
        if !tok.is_empty() {
            out.push(interner.intern(tok));
        }
    }
}

/// Character q-grams of an *already-normalized* string, padded with
/// `q − 1` leading and trailing `#` marks, appended to `out` as symbols
/// in window order. Builds windows directly over a reusable char buffer
/// (no `format!`, no per-call `Vec<char>`, no per-token `String`).
pub(crate) fn qgrams_from_norm(
    interner: &mut Interner,
    norm: &str,
    q: usize,
    chars: &mut Vec<char>,
    tok: &mut String,
    out: &mut Vec<Sym>,
) {
    assert!(q > 0, "q-gram size must be positive");
    if norm.is_empty() {
        return;
    }
    chars.clear();
    chars.extend(std::iter::repeat_n('#', q - 1));
    chars.extend(norm.chars());
    chars.extend(std::iter::repeat_n('#', q - 1));
    if chars.len() < q {
        tok.clear();
        tok.extend(chars.iter());
        out.push(interner.intern(tok));
        return;
    }
    for w in chars.windows(q) {
        tok.clear();
        tok.extend(w.iter());
        out.push(interner.intern(tok));
    }
}

/// Splits into lowercase word tokens (alphanumeric runs), interning each
/// token.
pub fn words(interner: &mut Interner, s: &str) -> TokenBag {
    let norm = normalize(s);
    let mut syms = Vec::new();
    words_from_norm(interner, &norm, &mut syms);
    TokenBag::from_sym_buf(&mut syms)
}

/// Character q-grams of the *normalized* string, padded with `q − 1`
/// leading and trailing `#` marks (Magellan's convention, which lets
/// short strings still produce tokens and weights prefixes/suffixes).
///
/// # Panics
/// Panics if `q == 0`.
pub fn qgrams(interner: &mut Interner, s: &str, q: usize) -> TokenBag {
    assert!(q > 0, "q-gram size must be positive");
    let norm = normalize(s);
    let (mut chars, mut tok, mut syms) = (Vec::new(), String::new(), Vec::new());
    qgrams_from_norm(interner, &norm, q, &mut chars, &mut tok, &mut syms);
    TokenBag::from_sym_buf(&mut syms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_lowercases_and_strips_punctuation() {
        assert_eq!(normalize("Hello,  World!"), "hello world");
        assert_eq!(normalize("  A-B_C  "), "a b c");
        assert_eq!(normalize(""), "");
        assert_eq!(normalize("!!!"), "");
    }

    #[test]
    fn words_splits_on_nonalphanumeric() {
        let mut it = Interner::new();
        let bag = words(&mut it, "The Quick, quick fox");
        assert_eq!(bag.count_text(&it, "quick"), 2);
        assert_eq!(bag.count_text(&it, "the"), 1);
        assert_eq!(bag.distinct(), 3);
        assert_eq!(bag.len(), 4);
    }

    #[test]
    fn qgrams_of_abc_with_q2() {
        // normalized "abc" padded to "#abc#": #a ab bc c#
        let mut it = Interner::new();
        let bag = qgrams(&mut it, "ABC", 2);
        assert_eq!(bag.count_text(&it, "#a"), 1);
        assert_eq!(bag.count_text(&it, "ab"), 1);
        assert_eq!(bag.count_text(&it, "bc"), 1);
        assert_eq!(bag.count_text(&it, "c#"), 1);
        assert_eq!(bag.len(), 4);
    }

    #[test]
    fn qgrams_empty_string_yields_empty_bag() {
        let mut it = Interner::new();
        assert!(qgrams(&mut it, "", 3).is_empty());
        assert!(qgrams(&mut it, "—!", 3).is_empty());
    }

    #[test]
    fn qgrams_shorter_than_q_still_tokenize() {
        let mut it = Interner::new();
        let bag = qgrams(&mut it, "a", 3);
        assert!(
            !bag.is_empty(),
            "padding must produce tokens for short strings"
        );
    }

    #[test]
    fn set_ops_known_values() {
        let mut it = Interner::new();
        let a = words(&mut it, "red green blue");
        let b = words(&mut it, "green blue yellow");
        assert_eq!(a.set_intersection(&b), 2);
        assert_eq!(a.set_union(&b), 4);
    }

    #[test]
    fn intersection_is_symmetric() {
        let mut it = Interner::new();
        let a = words(&mut it, "x y z w");
        let b = words(&mut it, "y w");
        assert_eq!(a.set_intersection(&b), b.set_intersection(&a));
    }

    #[test]
    fn bag_iteration_is_sorted_by_symbol() {
        let mut it = Interner::new();
        let bag = words(&mut it, "zeta alpha zeta mid");
        let syms: Vec<Sym> = bag.syms().collect();
        let mut sorted = syms.clone();
        sorted.sort();
        assert_eq!(syms, sorted);
        assert_eq!(bag.count_text(&it, "zeta"), 2);
    }

    #[test]
    #[should_panic(expected = "q-gram size")]
    fn zero_q_panics() {
        qgrams(&mut Interner::new(), "abc", 0);
    }
}
