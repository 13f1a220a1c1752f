//! Token-based and hybrid similarity measures.

use crate::edit::jaro_winkler_with;
use crate::intern::Interner;
use crate::scratch::SimScratch;
use crate::tokenize::TokenBag;

/// Jaccard similarity `|A ∩ B| / |A ∪ B|` over distinct tokens, in
/// `[0, 1]`. Two empty bags are maximally similar.
pub fn jaccard(a: &TokenBag, b: &TokenBag) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.set_intersection(b);
    let union = a.set_union(b);
    if union == 0 {
        return 0.0;
    }
    inter as f64 / union as f64
}

/// Set-based cosine similarity `|A ∩ B| / √(|A|·|B|)` over distinct
/// tokens (Magellan's `cos` for q-gram features), in `[0, 1]`.
pub fn cosine(a: &TokenBag, b: &TokenBag) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    a.set_intersection(b) as f64 / ((a.distinct() as f64) * (b.distinct() as f64)).sqrt()
}

/// Dice coefficient `2|A ∩ B| / (|A| + |B|)` over distinct tokens, in
/// `[0, 1]`.
pub fn dice(a: &TokenBag, b: &TokenBag) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let denom = a.distinct() + b.distinct();
    if denom == 0 {
        return 0.0;
    }
    2.0 * a.set_intersection(b) as f64 / denom as f64
}

/// Overlap coefficient `|A ∩ B| / min(|A|, |B|)` over distinct tokens, in
/// `[0, 1]`. Useful when one value is an abbreviation / subset of the
/// other.
pub fn overlap_coefficient(a: &TokenBag, b: &TokenBag) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let min = a.distinct().min(b.distinct());
    if min == 0 {
        return 0.0;
    }
    a.set_intersection(b) as f64 / min as f64
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
/// An outer token that is also in `b` scores exactly 1.0 without any
/// Jaro-Winkler call: Jaro-Winkler of a string with itself is exactly
/// 1.0 (`(1 + 1 + 1) / 3` plus a zero prefix bonus), and every score is
/// capped at 1.0, so that token's maximum is 1.0 whatever else `b`
/// holds.
pub fn monge_elkan_with(
    scratch: &mut SimScratch,
    interner: &Interner,
    a: &TokenBag,
    b: &TokenBag,
) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mut syms = std::mem::take(&mut scratch.syms);
    syms.clear();
    syms.extend(a.syms());
    syms.sort_unstable_by(|&x, &y| interner.resolve(x).cmp(interner.resolve(y)));
    let mut total = 0.0;
    for &sa in &syms {
        if b.count(sa) > 0 {
            total += 1.0;
            continue;
        }
        let ta = interner.resolve(sa);
        let mut best = 0.0f64;
        for tb in b.tokens(interner) {
            best = best.max(jaro_winkler_with(scratch, ta, tb));
        }
        total += best;
    }
    let n = syms.len() as f64;
    scratch.syms = syms;
    total / n
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
