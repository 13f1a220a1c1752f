//! Token-based and hybrid similarity measures.

use crate::derive::AttrDerived;
use crate::edit::jaro_winkler_with;
use crate::intern::{Interner, Sym};
use crate::scratch::SimScratch;
use crate::tokenize::TokenBag;

/// What every set measure reads of a bag pair: the number of distinct
/// tokens the bags share and each bag's distinct-token count.
///
/// One merge-join ([`SetCounts::of`]) serves Jaccard, cosine, Dice and
/// overlap alike; the free functions [`jaccard`], [`cosine`], [`dice`]
/// and [`overlap_coefficient`] delegate here, so a caller that needs
/// several of them on one pair computes the intersection once and gets
/// the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetCounts {
    /// `|A ∩ B|` over distinct tokens.
    pub inter: usize,
    /// `|A|`, distinct tokens.
    pub a: usize,
    /// `|B|`, distinct tokens.
    pub b: usize,
}

impl SetCounts {
    /// The counts of `a` against `b`.
    pub fn of(a: &TokenBag, b: &TokenBag) -> Self {
        Self {
            inter: a.set_intersection(b),
            a: a.distinct(),
            b: b.distinct(),
        }
    }

    /// Whether both bags are empty: every set measure scores that 1.
    fn both_empty(self) -> bool {
        self.a == 0 && self.b == 0
    }

    /// Jaccard `|A ∩ B| / |A ∪ B|`.
    pub fn jaccard(self) -> f64 {
        if self.both_empty() {
            return 1.0;
        }
        let union = self.a + self.b - self.inter;
        if union == 0 {
            return 0.0;
        }
        self.inter as f64 / union as f64
    }

    /// Set cosine `|A ∩ B| / √(|A|·|B|)`.
    pub fn cosine(self) -> f64 {
        if self.both_empty() {
            return 1.0;
        }
        if self.a == 0 || self.b == 0 {
            return 0.0;
        }
        self.inter as f64 / ((self.a as f64) * (self.b as f64)).sqrt()
    }

    /// Dice `2|A ∩ B| / (|A| + |B|)`.
    pub fn dice(self) -> f64 {
        if self.both_empty() {
            return 1.0;
        }
        let denom = self.a + self.b;
        if denom == 0 {
            return 0.0;
        }
        2.0 * self.inter as f64 / denom as f64
    }

    /// Overlap coefficient `|A ∩ B| / min(|A|, |B|)`.
    pub fn overlap(self) -> f64 {
        if self.both_empty() {
            return 1.0;
        }
        let min = self.a.min(self.b);
        if min == 0 {
            return 0.0;
        }
        self.inter as f64 / min as f64
    }
}

/// Jaccard similarity `|A ∩ B| / |A ∪ B|` over distinct tokens, in
/// `[0, 1]`. Two empty bags are maximally similar.
pub fn jaccard(a: &TokenBag, b: &TokenBag) -> f64 {
    SetCounts::of(a, b).jaccard()
}

/// Set-based cosine similarity `|A ∩ B| / √(|A|·|B|)` over distinct
/// tokens (Magellan's `cos` for q-gram features), in `[0, 1]`.
pub fn cosine(a: &TokenBag, b: &TokenBag) -> f64 {
    SetCounts::of(a, b).cosine()
}

/// Dice coefficient `2|A ∩ B| / (|A| + |B|)` over distinct tokens, in
/// `[0, 1]`.
pub fn dice(a: &TokenBag, b: &TokenBag) -> f64 {
    SetCounts::of(a, b).dice()
}

/// Overlap coefficient `|A ∩ B| / min(|A|, |B|)` over distinct tokens, in
/// `[0, 1]`. Useful when one value is an abbreviation / subset of the
/// other.
pub fn overlap_coefficient(a: &TokenBag, b: &TokenBag) -> f64 {
    SetCounts::of(a, b).overlap()
}

/// Monge-Elkan similarity: for each token of `a`, the best Jaro-Winkler
/// match among tokens of `b`, averaged. Range `[0, 1]`. Asymmetric by
/// definition; Magellan uses it as-is (first argument = left tuple).
///
/// Both bags must come from `interner`. The outer sum runs in canonical
/// token-*text* order, so the floating-point result is independent of
/// interner history and bag representation — the property the streaming
/// subsystem's bit-exact determinism tests rely on.
pub fn monge_elkan(interner: &Interner, a: &TokenBag, b: &TokenBag) -> f64 {
    monge_elkan_with(&mut SimScratch::new(), interner, a, b)
}

/// [`monge_elkan`] reusing `scratch`'s buffers for the outer token list
/// and every inner Jaro-Winkler call. Sorting `a`'s *symbols* by their
/// token text visits the same outer sequence as sorting the texts
/// themselves (distinct symbols always resolve to distinct texts), so
/// the summation order — and with it every float operation — is
/// canonical.
///
/// Two exact shortcuts skip Jaro-Winkler calls whose value is known:
///
/// * An outer token that is also in `b` scores exactly 1.0 without any
///   call: Jaro-Winkler of a string with itself is exactly 1.0
///   (`(1 + 1 + 1) / 3` plus a zero prefix bonus), and every score is
///   capped at 1.0, so that token's maximum is 1.0 whatever else `b`
///   holds.
/// * Two tokens that share no char score exactly `+0.0`: Jaro finds no
///   match and returns `0.0`, and the common prefix is 0. The running
///   maximum starts at `+0.0`, so the call is skipped. A 64-bit char
///   signature per token (bit `c & 63` for each char `c`) proves most
///   such pairs disjoint with one AND; chars whose codes agree modulo
///   64 only make a pair fall back to the call. `b`'s signatures are
///   computed once per call.
pub fn monge_elkan_with(
    scratch: &mut SimScratch,
    interner: &Interner,
    a: &TokenBag,
    b: &TokenBag,
) -> f64 {
    if let Some(v) = empty_monge_elkan(a, b) {
        return v;
    }
    let mut syms = std::mem::take(&mut scratch.syms);
    let mut sigs = std::mem::take(&mut scratch.sigs);
    sort_by_text(&mut syms, interner, a);
    fill_sigs(&mut sigs, b.tokens(interner));
    let mut total = 0.0;
    for &sa in &syms {
        total += best_match(scratch, interner, sa, b, &sigs);
    }
    let n = syms.len() as f64;
    scratch.syms = syms;
    scratch.sigs = sigs;
    total / n
}

/// Which argument of a two-bag measure stays the same across a batch
/// call ([`monge_elkan_fixed_with`], [`set_counts_fixed_with`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixedBag {
    /// The first argument `a`: Monge-Elkan's outer bag, whose tokens are
    /// averaged over.
    Outer,
    /// The second argument `b`: Monge-Elkan's inner bag, searched for
    /// each outer token's best match.
    Inner,
}

/// [`monge_elkan_with`] of one attribute's word bag against many:
/// appends to `out`, in order, the score of `fixed` against each
/// attribute of `others` — as the outer argument `a` when `side` is
/// [`FixedBag::Outer`], as the inner `b` when it is [`FixedBag::Inner`].
/// Every value equals the single-pair kernel's to the bit. All
/// attributes must be derived against `interner`.
///
/// Each outer bag is visited in the text order its derivation stored
/// ([`AttrDerived::word_order`]), which is the order the single-pair
/// kernel sorts into, so no pair sorts. With one side fixed, a token's
/// Jaro-Winkler scores are memoized for the call instead of recomputed
/// for every pair that holds it:
///
/// * **Fixed inner bag.** An outer token's best match over `b` is a
///   pure function of the token, so it is computed once per distinct
///   token.
/// * **Fixed outer bag.** Each distinct inner token gets one row of
///   Jaro-Winkler scores against the fixed tokens, and a pair's
///   per-token maxima are folded from its tokens' rows in symbol order,
///   as the single-pair kernel folds them.
///
/// Each pair still adds its per-token maxima in canonical text order,
/// the same values in the same order, and `max` over non-NaN scores
/// does not depend on the order it sees them in. The memo lives in
/// `scratch` and is emptied before the call returns: symbols mean
/// something only within one interner.
///
/// Both forms take [`monge_elkan_with`]'s disjoint-char shortcut: the
/// fixed bag's char signatures are computed once per call, the other
/// token's once per memo miss, and a fixed-outer row stores `+0.0` for a
/// disjoint pair without a call — the value the call would return.
pub fn monge_elkan_fixed_with<'b>(
    scratch: &mut SimScratch,
    interner: &Interner,
    fixed: &AttrDerived,
    side: FixedBag,
    others: impl IntoIterator<Item = &'b AttrDerived>,
    out: &mut Vec<f64>,
) {
    let mut memo = std::mem::take(&mut scratch.memo);
    let mut sigs = std::mem::take(&mut scratch.sigs);
    memo.reserve(interner);
    match side {
        FixedBag::Inner => {
            fill_sigs(&mut sigs, fixed.word.tokens(interner));
            for a in others {
                if let Some(v) = empty_monge_elkan(&a.word, &fixed.word) {
                    out.push(v);
                    continue;
                }
                let order = a.word_order();
                let mut total = 0.0;
                for &sa in order {
                    let at = match memo.get(sa) {
                        Some(at) => at,
                        None => {
                            memo.insert(sa, [best_match(scratch, interner, sa, &fixed.word, &sigs)])
                        }
                    };
                    total += memo.scores()[at];
                }
                out.push(total / order.len() as f64);
            }
        }
        FixedBag::Outer => {
            let order = fixed.word_order();
            let k = order.len();
            fill_sigs(&mut sigs, order.iter().map(|&sa| interner.resolve(sa)));
            let mut best = std::mem::take(&mut scratch.best);
            for b in others {
                let b = &b.word;
                if let Some(v) = empty_monge_elkan(&fixed.word, b) {
                    out.push(v);
                    continue;
                }
                best.clear();
                best.resize(k, 0.0);
                for sb in b.syms() {
                    let at = match memo.get(sb) {
                        Some(at) => at,
                        None => {
                            let tb = interner.resolve(sb);
                            let sig_b = char_sig(tb);
                            let row = order.iter().zip(&sigs).map(|(&sa, &sig_a)| {
                                if sig_a & sig_b == 0 {
                                    0.0
                                } else {
                                    jaro_winkler_with(scratch, interner.resolve(sa), tb)
                                }
                            });
                            memo.insert(sb, row)
                        }
                    };
                    for (m, &jw) in best.iter_mut().zip(&memo.scores()[at..at + k]) {
                        *m = m.max(jw);
                    }
                }
                let mut total = 0.0;
                for (&sa, &m) in order.iter().zip(&best) {
                    total += if b.count(sa) > 0 { 1.0 } else { m };
                }
                out.push(total / k as f64);
            }
            scratch.best = best;
        }
    }
    memo.clear();
    scratch.memo = memo;
    scratch.sigs = sigs;
}

/// [`SetCounts::of`] of one bag against many: appends to `out`, in
/// order, the counts of `fixed` against each bag of `others` — `fixed`
/// as the first argument `a` when `side` is [`FixedBag::Outer`], as the
/// second `b` when it is [`FixedBag::Inner`]. All bags must come from
/// `interner`.
///
/// The fixed bag's symbols are marked once in a symbol-indexed bitset
/// in `scratch`, and each other bag's intersection is counted by one
/// lookup per distinct token instead of a merge-join against the fixed
/// bag. Both count the same distinct shared tokens, so every count
/// equals [`SetCounts::of`]'s, and the set measures read nothing else.
/// The bitset is all zero again when the call returns.
pub fn set_counts_fixed_with<'b>(
    scratch: &mut SimScratch,
    interner: &Interner,
    fixed: &TokenBag,
    side: FixedBag,
    others: impl IntoIterator<Item = &'b TokenBag>,
    out: &mut Vec<SetCounts>,
) {
    let marks = &mut scratch.marks;
    marks.reserve(interner);
    marks.mark(fixed);
    out.extend(others.into_iter().map(|other| {
        let (inter, f, o) = (marks.count(other), fixed.distinct(), other.distinct());
        match side {
            FixedBag::Outer => SetCounts { inter, a: f, b: o },
            FixedBag::Inner => SetCounts { inter, a: o, b: f },
        }
    }));
    marks.unmark(fixed);
}

/// Monge-Elkan's empty-bag conventions: two empty bags score 1, one
/// empty bag 0; `None` when both have tokens.
fn empty_monge_elkan(a: &TokenBag, b: &TokenBag) -> Option<f64> {
    match (a.is_empty(), b.is_empty()) {
        (true, true) => Some(1.0),
        (false, false) => None,
        _ => Some(0.0),
    }
}

/// Fills `syms` with `bag`'s symbols in canonical token-text order.
fn sort_by_text(syms: &mut Vec<Sym>, interner: &Interner, bag: &TokenBag) {
    syms.clear();
    syms.extend(bag.syms());
    syms.sort_unstable_by(|&x, &y| interner.resolve(x).cmp(interner.resolve(y)));
}

/// One outer token's Monge-Elkan term: 1.0 when `b` holds the token
/// itself (the exact-token shortcut), else its best Jaro-Winkler score
/// over `b`'s tokens, whose char signatures `b_sigs` holds in symbol
/// order.
fn best_match(
    scratch: &mut SimScratch,
    interner: &Interner,
    sa: Sym,
    b: &TokenBag,
    b_sigs: &[u64],
) -> f64 {
    if b.count(sa) > 0 {
        return 1.0;
    }
    let ta = interner.resolve(sa);
    let sig_a = char_sig(ta);
    let mut best = 0.0f64;
    for (sb, &sig_b) in b.syms().zip(b_sigs) {
        if sig_a & sig_b != 0 {
            best = best.max(jaro_winkler_with(scratch, ta, interner.resolve(sb)));
        }
    }
    best
}

/// A token's char signature: bit `c & 63` set for every char `c`. The
/// empty token gets every bit: it scores 1.0 against itself, so it must
/// never look disjoint.
///
/// When two tokens' signatures do not intersect, their Jaro-Winkler is
/// exactly `+0.0` and the kernels skip the call. The tokens are then
/// non-empty and share no char, so Jaro finds no match (`m = 0`) and
/// returns `0.0`, and the common prefix is 0, so Jaro-Winkler is
/// `(0.0 + 0 · 0.1 · (1 − 0.0)).min(1.0)`, which is `+0.0`. Distinct
/// chars whose codes agree modulo 64 only make signatures intersect,
/// and then the score is computed.
#[inline]
fn char_sig(token: &str) -> u64 {
    if token.is_empty() {
        return u64::MAX;
    }
    token.chars().fold(0, |sig, c| sig | 1 << (c as u32 & 63))
}

/// Refills `sigs` with the char signatures of `tokens`, in order.
fn fill_sigs<'t>(sigs: &mut Vec<u64>, tokens: impl Iterator<Item = &'t str>) {
    sigs.clear();
    sigs.extend(tokens.map(char_sig));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::words;

    fn bags(ss: &[&str]) -> (Interner, Vec<TokenBag>) {
        let mut it = Interner::new();
        let bags = ss.iter().map(|s| words(&mut it, s)).collect();
        (it, bags)
    }

    #[test]
    fn jaccard_known_values() {
        let (_, b) = bags(&["a b c", "b c d"]);
        assert!((jaccard(&b[0], &b[1]) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard(&b[0], &b[0]), 1.0);
    }

    #[test]
    fn jaccard_disjoint_is_zero() {
        let (_, b) = bags(&["a b", "x y"]);
        assert_eq!(jaccard(&b[0], &b[1]), 0.0);
    }

    #[test]
    fn empty_bag_conventions() {
        let (it, b) = bags(&["", "a"]);
        let (e, x) = (&b[0], &b[1]);
        assert_eq!(jaccard(e, e), 1.0);
        assert_eq!(jaccard(e, x), 0.0);
        assert_eq!(cosine(e, e), 1.0);
        assert_eq!(cosine(e, x), 0.0);
        assert_eq!(dice(e, e), 1.0);
        assert_eq!(overlap_coefficient(e, e), 1.0);
        assert_eq!(monge_elkan(&it, e, e), 1.0);
        assert_eq!(monge_elkan(&it, e, x), 0.0);
    }

    #[test]
    fn cosine_known_values() {
        let (_, b) = bags(&["a b c d", "c d"]);
        // |inter| = 2, sqrt(4*2) = 2.828…
        assert!((cosine(&b[0], &b[1]) - 2.0 / 8.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn dice_known_values() {
        let (_, b) = bags(&["a b c", "b c d"]);
        assert!((dice(&b[0], &b[1]) - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_subset_is_one() {
        let (_, b) = bags(&["new york city", "new york"]);
        assert_eq!(overlap_coefficient(&b[0], &b[1]), 1.0);
    }

    #[test]
    fn monge_elkan_rewards_near_matches() {
        let (it, b) = bags(&["jonathan smith", "jonathon smyth", "completely different"]);
        let sim = monge_elkan(&it, &b[0], &b[1]);
        assert!(
            sim > 0.8,
            "near-identical tokens should score high, got {sim}"
        );
        assert!(monge_elkan(&it, &b[0], &b[2]) < sim);
    }

    #[test]
    fn monge_elkan_identity() {
        let (it, b) = bags(&["alpha beta"]);
        assert!((monge_elkan(&it, &b[0], &b[0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn monge_elkan_is_representation_independent() {
        // Same texts interned in different orders (different symbol
        // numbering) must give bit-identical results.
        let mut it1 = Interner::new();
        let a1 = words(&mut it1, "zeta alpha mid");
        let b1 = words(&mut it1, "zetta alpa mid");
        let mut it2 = Interner::new();
        let warm = words(&mut it2, "mid alpa zetta unrelated");
        let a2 = words(&mut it2, "zeta alpha mid");
        let b2 = words(&mut it2, "zetta alpa mid");
        drop(warm);
        assert_eq!(
            monge_elkan(&it1, &a1, &b1).to_bits(),
            monge_elkan(&it2, &a2, &b2).to_bits()
        );
    }
}
